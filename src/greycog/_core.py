"""Shared scalar kernels.

Every engine's arithmetic lives here, one float-only state update per
family, from float planes to float planes: `crisp_next`, `interval_next`
and `kernel_grey_next` (its kernel and greyness sums fused). The weights
do not change during a run, so `blocks` prepares them once: BLOCK rows at
a time, the last block filled with zero rows, each block stored as the
tuple of its columns. An update zips the state planes with a block,
reading a state value and one column tuple per step, and keeps one
accumulator per row and quantity, gathering each quantity's sums in its
own list. `sigmoids` then activates a plane's real rows in one call, so
the logistic and its finite guard are written once, and every update
returns tuple planes; the zero rows are neither activated nor returned.
The interval product is `interval_dot_lr`, four endpoint products a
term; the blocked loop takes one per end, which is the same at a state
whose x_lo are all >= 0, as after step 0. Each row is summed left to
right from +0.0, one `+=` per term, so degenerate cases coincide bitwise:
a kernel/greyness map with zero greyness, an interval map with
zero-width intervals, and the crisp map all produce identical floating
point trajectories. Every sum is a `+=` loop: `sum` (compensated since
CPython 3.12), `fsum`, `sumprod` and `reduce` would tie the bits to the
interpreter.
"""

import math

from .errors import MalformedInputError

# Weight rows summed per pass over the state planes: each update reads a
# state value once for this many rows. The kernels' loop bodies are
# written out for four rows, and `blocks` groups the rows to match.
BLOCK = 4


def sigmoids(xs, lam):
    """The logistic activation 1 / (1 + exp(-lam * x)) of every x in xs,
    as a tuple plane: one call per plane, not per value.

    Two-branch form: never exponentiates a large positive argument, so it
    cannot overflow for any finite x. A non-finite x is an overflowed row
    sum, which the logistic would silently clip to 0 or 1, so the first
    one raises.
    """
    exp, isfinite = math.exp, math.isfinite
    out = []
    for x in xs:
        if not isfinite(x):
            raise MalformedInputError(f"activation input must be finite, got {x}")
        z = lam * x
        if z >= 0.0:
            out.append(1.0 / (1.0 + exp(-z)))
        else:
            e = exp(z)
            out.append(e / (1.0 + e))
    return tuple(out)


def interval_dot_lr(w_lo, w_hi, x_lo, x_hi):
    """Interval dot product over endpoint planes, as (lo, hi): each term's
    ends are the min and the max of its four endpoint products (the first
    on a tie), each end summed left to right from +0.0, one `+=` per term."""
    lo = hi = 0.0
    for wl, wh, xl, xh in zip(w_lo, w_hi, x_lo, x_hi):
        p = (wl * xl, wl * xh, wh * xl, wh * xh)
        lo += min(p)
        hi += max(p)
    return lo, hi


def blocks(*planes):
    """A run's weights, prepared once, as (rows, blocks).

    planes are the weight rows of each plane, all of one shape: the crisp
    rows, the low and the high rows, or the kernel and the greyness rows.
    Their rows are taken BLOCK at a time, the last block filled up with
    zero rows, and each block is stored as the tuple of its columns:
    column j holds entry j of the block's rows, plane after plane. rows is
    the real row count, which the updates activate and return.
    """
    rows = len(planes[0])
    zero = (0.0,) * len(planes[0][0])
    planes = [[*p, *[zero] * (-rows % BLOCK)] for p in planes]
    return rows, tuple(tuple(zip(*[row for p in planes for row in p[i:i + BLOCK]]))
                       for i in range(0, len(planes[0]), BLOCK))


def crisp_next(weights, a, lam):
    """One crisp update of every node, as (plane,): out_i =
    sigmoid(w_i . a), each row summed left to right from +0.0, one `+=`
    per term, and the real rows' sums activated by one `sigmoids` call.
    weights are the crisp weight rows prepared by `blocks`."""
    rows, wb = weights
    sums = []
    for block in wb:
        s0 = s1 = s2 = s3 = 0.0
        for v, (w0, w1, w2, w3) in zip(a, block):
            s0 += w0 * v
            s1 += w1 * v
            s2 += w2 * v
            s3 += w3 * v
        sums += s0, s1, s2, s3
    return (sigmoids(sums[:rows], lam),)


def interval_next(weights, x_lo, x_hi, lam):
    """One interval update of every node over endpoint planes, as (lo, hi)
    tuple planes: each end's row sums taken left to right from +0.0, one
    `+=` per term, gathered in one list and activated by one `sigmoids`
    call. weights are the low and high weight rows prepared by `blocks`.
    The float logistic is not monotone, so two ends in order can cross
    once activated: each hi is the larger of its node's two activated ends.

    At a state whose x_lo are all >= 0, as after step 0, each end takes
    one product, not `interval_dot_lr`'s four: there w_lo * x <= w_hi * x,
    so the low end is w_lo times x_lo (x_hi if w_lo < 0) and the high end
    w_hi times x_hi (x_lo if w_hi < 0), the min and the max of the four up
    to the sign of a zero, which a sum from +0.0 never shows. Any other
    state takes `interval_dot_lr` per row, read back from the columns.
    """
    rows, wb = weights
    los = []
    his = []
    if min(x_lo) < 0.0:
        for block in wb:
            w = tuple(zip(*block))
            for wl, wh in zip(w[:BLOCK], w[BLOCK:]):
                lo, hi = interval_dot_lr(wl, wh, x_lo, x_hi)
                los.append(lo)
                his.append(hi)
    else:
        for block in wb:
            lo0 = lo1 = lo2 = lo3 = hi0 = hi1 = hi2 = hi3 = 0.0
            for xl, xh, (l0, l1, l2, l3, h0, h1, h2, h3) in zip(x_lo, x_hi, block):
                lo0 += l0 * (xl if l0 >= 0.0 else xh)
                hi0 += h0 * (xh if h0 >= 0.0 else xl)
                lo1 += l1 * (xl if l1 >= 0.0 else xh)
                hi1 += h1 * (xh if h1 >= 0.0 else xl)
                lo2 += l2 * (xl if l2 >= 0.0 else xh)
                hi2 += h2 * (xh if h2 >= 0.0 else xl)
                lo3 += l3 * (xl if l3 >= 0.0 else xh)
                hi3 += h3 * (xh if h3 >= 0.0 else xl)
            los += lo0, lo1, lo2, lo3
            his += hi0, hi1, hi2, hi3
    lo = sigmoids(los[:rows], lam)
    return lo, tuple(map(max, lo, sigmoids(his[:rows], lam)))


def kernel_grey_next(weights, x_k, x_g, lam):
    """One kernel/greyness update of every node, as (kernels, greyness)
    tuple planes. weights are the kernel and greyness weight rows prepared
    by `blocks`.

    Each kernel sum reads only the kernel planes and is summed left to
    right from +0.0, one `+=` per term. Each greyness is the activated
    kernel times the |kernel product|-weighted average of max(weight
    greyness, state greyness); with zero kernel mass it is 0, and an
    infinite mass or weighted mass sum raises MalformedInputError. The sign flip stands in
    for abs(p): it leaves -0.0 as it is, but the mass sums start at +0.0
    and add only terms >= 0 or -0.0, so they come out the same. The three
    sums of a row (kernel, mass, weighted mass) share one loop, and each
    is gathered in its own list; the real rows' kernel sums are activated
    by one `sigmoids` call.
    """
    rows, wb = weights
    sums = []
    masses = []
    weighted = []
    for block in wb:
        s0 = s1 = s2 = s3 = d0 = d1 = d2 = d3 = m0 = m1 = m2 = m3 = 0.0
        for xk, xg, (k0, k1, k2, k3, g0, g1, g2, g3) in zip(x_k, x_g, block):
            p = k0 * xk
            s0 += p
            if p < 0.0:
                p = -p
            d0 += p
            m0 += (xg if xg > g0 else g0) * p
            p = k1 * xk
            s1 += p
            if p < 0.0:
                p = -p
            d1 += p
            m1 += (xg if xg > g1 else g1) * p
            p = k2 * xk
            s2 += p
            if p < 0.0:
                p = -p
            d2 += p
            m2 += (xg if xg > g2 else g2) * p
            p = k3 * xk
            s3 += p
            if p < 0.0:
                p = -p
            d3 += p
            m3 += (xg if xg > g3 else g3) * p
        sums += s0, s1, s2, s3
        masses += d0, d1, d2, d3
        weighted += m0, m1, m2, m3
    kernels = sigmoids(sums[:rows], lam)
    if math.inf in masses or math.inf in weighted:
        raise MalformedInputError("greyness mass sum must be finite, got inf")
    return kernels, tuple([k * (num / denom) if denom > 0.0 else 0.0
                           for k, denom, num in zip(kernels, masses, weighted)])
