"""Shared scalar kernels.

Every engine's arithmetic lives here, one float-only state update per
family, from float planes to float planes: `crisp_next`, `interval_next`
and `kernel_grey_next` (its kernel and greyness sums fused). The weights
do not change during a run, so `blocks` prepares them once: the weight
planes, and beside them their rows BLOCK at a time, the last block
filled with zero rows, each block stored as the tuple of its columns. An
update zips the state planes with a block, reading a state value and one
column tuple per step, and keeps one accumulator per row and quantity,
gathering each quantity's sums in its own list. `sigmoids` then
activates a plane's real rows in one call, so the logistic and its
finite guard are written once, and every update returns tuple planes;
the zero rows are neither activated nor returned. The interval product
is `interval_dot_lr`, four endpoint products a term; the blocked loop
takes one per end, which is the same at a state whose x_lo are all
>= 0, as after step 0. Each row is summed left to right from +0.0, one
`+=` per term, so degenerate cases coincide bitwise: a kernel/greyness
map with zero greyness, an interval map with zero-width intervals, and
the crisp map all produce identical floating point trajectories. Every
sum is a `+=` loop: `sum` (compensated since CPython 3.12), `fsum`,
`sumprod` and `reduce` would tie the bits to the interpreter.
"""

import math

from .errors import MalformedInputError

# Weight rows summed per pass over the state planes: each update reads a
# state value once for this many rows. The kernels' loop bodies are
# written out for four rows, and `blocks` groups the rows to match.
BLOCK = 4

# A greyness mass sum below TINY_MASS, 0 included, is made of products that
# lost bits to the subnormal range or underflowed to 0, so its shares no
# longer sum to 1: `row_masses` takes that row's products again, scaled.
TINY_MASS = 2.0 ** -969


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
    """A run's weights, prepared once, as (planes, blocks).

    planes are the weight rows of each plane, all of one shape: the crisp
    rows, the low and the high rows, or the kernel, |kernel| and greyness
    rows. They come back as given, for a path that reads whole rows, and
    beside them their rows BLOCK at a time, the last block filled up with
    zero rows, each block stored as the tuple of its columns: column j
    holds entry j of the block's rows, plane after plane.
    """
    rows = len(planes[0])
    zero = (0.0,) * len(planes[0][0])
    padded = [[*p, *[zero] * (-rows % BLOCK)] for p in planes]
    return planes, tuple(tuple(zip(*[row for p in padded for row in p[i:i + BLOCK]]))
                         for i in range(0, len(padded[0]), BLOCK))


def grey_blocks(kernels, greys):
    """The `blocks` of the kernel, |kernel| and greyness weight rows."""
    return blocks(kernels, [tuple(map(abs, row)) for row in kernels], greys)


def crisp_next(weights, a, lam):
    """One crisp update of every node, as (plane,): out_i =
    sigmoid(w_i . a), each row summed left to right from +0.0, one `+=`
    per term, and the real rows' sums activated by one `sigmoids` call.
    weights are the crisp weight rows prepared by `blocks`."""
    (w,), wb = weights
    sums = []
    for block in wb:
        s0 = s1 = s2 = s3 = 0.0
        for v, (w0, w1, w2, w3) in zip(a, block):
            s0 += w0 * v
            s1 += w1 * v
            s2 += w2 * v
            s3 += w3 * v
        sums += s0, s1, s2, s3
    return (sigmoids(sums[:len(w)], lam),)


def interval_next(weights, x_lo, x_hi, lam):
    """One interval update of every node over endpoint planes, as (lo, hi)
    tuple planes: each end's row sums taken left to right from +0.0, one
    `+=` per term, gathered in one list and activated by one `sigmoids`
    call. weights are the low and high weight rows prepared by `blocks`.
    The float logistic is not monotone, so two ends in order can cross
    once activated: each lo is the smaller of its node's two activated
    ends, and each hi the larger.

    At a state whose x_lo are all >= 0, as after step 0, each end takes
    one product, not `interval_dot_lr`'s four: there w_lo * x <= w_hi * x,
    so the low end is w_lo times x_lo (x_hi if w_lo < 0) and the high end
    w_hi times x_hi (x_lo if w_hi < 0), the min and the max of the four up
    to the sign of a zero, which a sum from +0.0 never shows. Any other
    state takes `interval_dot_lr` over each low and high weight row.
    """
    (w_lo, w_hi), wb = weights
    if min(x_lo) < 0.0:
        los, his = zip(*[interval_dot_lr(wl, wh, x_lo, x_hi) for wl, wh in zip(w_lo, w_hi)])
    else:
        los = []
        his = []
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
    lo, hi = sigmoids(los[:len(w_lo)], lam), sigmoids(his[:len(w_lo)], lam)
    return tuple(map(min, lo, hi)), tuple(map(max, lo, hi))


def row_masses(k_row, x_k):
    """Each |k_j * x_j|, as a list, and their sum left to right from +0.0.
    Where that sum is below TINY_MASS, 0 included, the products are taken
    again times 2**600 and, where still below, times 2**1200, which leaves
    their ratios as they are. Each scaled product is rounded once: its
    factor of smaller magnitude is scaled by `math.ldexp`, which is exact.
    A nonzero product of two finite floats is at least 2**-2148, so at
    2**1200 each is a normal float and keeps every bit. Every product
    scaled is below 2**-368 (the row's sum below TINY_MASS bounds the
    products, and so the smaller factor, before each scale), so no factor,
    product or greyness-weighted product overflows."""
    ldexp = math.ldexp
    products = [abs(k * x) for k, x in zip(k_row, x_k)]
    for scale in 600, 1200, None:
        total = 0.0
        for p in products:
            total += p
        if total >= TINY_MASS or scale is None:
            break
        products = [abs(ldexp(k, scale) * x if abs(k) < abs(x) else k * ldexp(x, scale))
                    for k, x in zip(k_row, x_k)]
    return products, total


def kernel_grey_next(weights, x_k, x_g, lam):
    """One kernel/greyness update of every node, as (kernels, greyness)
    tuple planes. weights are prepared by `grey_blocks`.

    Each kernel sum reads only the kernel planes and is summed left to
    right from +0.0, one `+=` per term. Each greyness is the activated
    kernel times the kernel-mass-weighted average of max(weight greyness,
    state greyness); with zero kernel mass it is 0, and an infinite mass
    or weighted mass sum raises MalformedInputError. A term's mass is
    |k| * |x|, the float |k * x| (rounding to nearest is even in sign),
    from the |kernel| weights and an |x| plane: x_k itself where every x
    is > 0, as in each computed state, so a step builds no tuple for the
    garbage collector to count. The three sums of a row (kernel, mass,
    weighted mass) share one loop, and each is gathered in its own list;
    the real rows' kernel sums are activated by one `sigmoids` call. A
    row whose mass sum is below TINY_MASS, 0 included, has its mass and
    weighted mass summed again over the `row_masses` of its kernel weight
    row, against its greyness weight row; a row of truly zero products
    keeps a greyness of 0.
    """
    (k_rows, _, g_rows), wb = weights
    rows = len(k_rows)
    x_a = x_k if min(x_k) > 0.0 else tuple(map(abs, x_k))
    sums = []
    masses = []
    weighted = []
    for block in wb:
        s0 = s1 = s2 = s3 = d0 = d1 = d2 = d3 = m0 = m1 = m2 = m3 = 0.0
        for xk, xa, xg, (k0, k1, k2, k3, a0, a1, a2, a3, g0, g1, g2, g3) in zip(
                x_k, x_a, x_g, block):
            s0 += k0 * xk
            p = a0 * xa
            d0 += p
            m0 += (xg if xg > g0 else g0) * p
            s1 += k1 * xk
            p = a1 * xa
            d1 += p
            m1 += (xg if xg > g1 else g1) * p
            s2 += k2 * xk
            p = a2 * xa
            d2 += p
            m2 += (xg if xg > g2 else g2) * p
            s3 += k3 * xk
            p = a3 * xa
            d3 += p
            m3 += (xg if xg > g3 else g3) * p
        sums += s0, s1, s2, s3
        masses += d0, d1, d2, d3
        weighted += m0, m1, m2, m3
    kernels = sigmoids(sums[:rows], lam)
    if math.inf in masses or math.inf in weighted:
        raise MalformedInputError("greyness mass sum must be finite, got inf")
    masses = masses[:rows]
    if min(masses) < TINY_MASS:
        for i, denom in enumerate(masses):
            if denom < TINY_MASS:
                products, denom = row_masses(k_rows[i], x_k)
                num = 0.0
                for p, xg, g in zip(products, x_g, g_rows[i]):
                    num += (xg if xg > g else g) * p
                masses[i], weighted[i] = denom, num
    return kernels, tuple([k * (num / denom) if denom > 0.0 else 0.0
                           for k, denom, num in zip(kernels, masses, weighted)])
