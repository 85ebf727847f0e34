"""Shared scalar kernels.

Every engine's arithmetic lives here, one float-only state update per
family, from float planes to float planes: `crisp_next` runs the row
kernel `dot_lr` over every weight row, `interval_next` multiplies
intervals by endpoint selection (at a state whose x_lo are all >= 0, as
after step 0, by `interval_dot_nonneg`, one product per end, else by
`interval_dot_lr`), and `kernel_grey_next` does its kernel and greyness
sums in one loop of its own. All three accumulate left to right in the
same order, so degenerate cases coincide bitwise: a kernel/greyness map
with zero greyness, an interval map with zero-width intervals, and the
crisp map all produce identical floating point trajectories. Every sum is
a `+=` loop: `sum` (compensated since CPython 3.12), `fsum`, `sumprod` and
`reduce` would tie the bits to the interpreter.
"""

import math

from .errors import MalformedInputError


def sigmoid(x, lam):
    """Logistic activation 1 / (1 + exp(-lam * x)).

    Two-branch form: never exponentiates a large positive argument, so it
    cannot overflow for any finite x. A non-finite x is an overflowed row
    sum, which the logistic would silently clip to 0 or 1, so it raises.
    """
    if not math.isfinite(x):
        raise MalformedInputError(f"activation input must be finite, got {x}")
    z = lam * x
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def dot_lr(weights, values):
    """Plain left-to-right accumulated dot product.

    Summation order is part of the cross-engine bit-equality contract; do
    not replace with pairwise or fused variants.
    """
    s = 0.0
    for w, v in zip(weights, values):
        s += w * v
    return s


def interval_dot_lr(w_lo, w_hi, x_lo, x_hi):
    """Interval dot product over endpoint planes, returned as (lo, hi).

    Each term multiplies by endpoint selection: a weight endpoint e >= 0
    makes e * x smallest at x_lo and largest at x_hi, a negative one the
    other way round. Of the two weight endpoints' picks, the smaller low
    one goes to lo and the larger high one to hi, left to right as in
    `dot_lr`. Rounding is monotone, so this is the four-product min/max
    value for value; a tie can differ only in the sign of a zero, which
    sums that start at +0.0 never show.
    """
    lo = 0.0
    hi = 0.0
    for wl, wh, xl, xh in zip(w_lo, w_hi, x_lo, x_hi):
        if wl >= 0.0:
            lo1, hi1 = wl * xl, wl * xh
        else:
            lo1, hi1 = wl * xh, wl * xl
        if wh >= 0.0:
            lo2, hi2 = wh * xl, wh * xh
        else:
            lo2, hi2 = wh * xh, wh * xl
        lo += lo1 if lo1 < lo2 else lo2
        hi += hi1 if hi1 > hi2 else hi2
    return lo, hi


def interval_dot_nonneg(w_lo, w_hi, x_lo, x_hi):
    """`interval_dot_lr` bit for bit where every x_lo >= 0: w * x grows with w."""
    lo = hi = 0.0
    for wl, wh, xl, xh in zip(w_lo, w_hi, x_lo, x_hi):
        lo += wl * (xl if wl >= 0.0 else xh)
        hi += wh * (xh if wh >= 0.0 else xl)
    return lo, hi


def crisp_next(w, a, lam):
    """One crisp update of every node, as one tuple plane: out_i =
    sigmoid(w_i . a)."""
    return (tuple(sigmoid(dot_lr(row, a), lam) for row in w),)


def interval_next(w_lo, w_hi, x_lo, x_hi, lam):
    """One interval update of every node over endpoint planes, as (lo, hi)."""
    dot = interval_dot_lr if min(x_lo) < 0.0 else interval_dot_nonneg
    lo_out = []
    hi_out = []
    for wl, wh in zip(w_lo, w_hi):
        lo, hi = dot(wl, wh, x_lo, x_hi)
        lo_out.append(sigmoid(lo, lam))
        hi_out.append(sigmoid(hi, lam))
    return lo_out, hi_out


def kernel_grey_next(w_k, w_g, x_k, x_g, lam):
    """One kernel/greyness update of every node, as (kernels, greyness).

    Each kernel sum reads only the kernel planes and accumulates exactly
    as `dot_lr`. Each greyness is the activated kernel times the
    |kernel product|-weighted average of max(weight greyness, state
    greyness); with zero kernel mass it is 0. The sign flip stands in for
    abs(p): it leaves -0.0 as it is, but the mass sums start at +0.0 and
    add only terms >= 0 or -0.0, so they come out the same.
    """
    k_out = []
    g_out = []
    for wk_row, wg_row in zip(w_k, w_g):
        s = 0.0
        denom = 0.0
        num = 0.0
        for wk, wg, xk, xg in zip(wk_row, wg_row, x_k, x_g):
            p = wk * xk
            s += p
            if p < 0.0:
                p = -p
            denom += p
            num += (xg if xg > wg else wg) * p
        k = sigmoid(s, lam)
        k_out.append(k)
        g_out.append(k * (num / denom) if denom > 0.0 else 0.0)
    return k_out, g_out
