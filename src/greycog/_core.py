"""Shared scalar kernels.

Every engine's arithmetic lives here, one float-only state update per
family, from float planes to float planes: `crisp_next` runs the row
kernel `dot_lr` over every weight row, `interval_next` runs
`interval_dot_lr`, and `kernel_grey_next` does its kernel and greyness
sums in one loop of its own, with no per-row call. All three accumulate
left to right in the same order, so degenerate cases coincide bitwise: a
kernel/greyness map with zero greyness, an interval map with zero-width
intervals, and the crisp map all produce identical floating point
trajectories.
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

    Each term is the four-product interval multiplication. The strict
    comparison chains in order p1..p4 keep the first extreme on ties, as
    the builtin min/max do, and the sums run left to right as in `dot_lr`.
    """
    lo = 0.0
    hi = 0.0
    for wl, wh, xl, xh in zip(w_lo, w_hi, x_lo, x_hi):
        p1 = wl * xl
        p2 = wl * xh
        p3 = wh * xl
        p4 = wh * xh
        mn = mx = p1
        if p2 < mn:
            mn = p2
        if p3 < mn:
            mn = p3
        if p4 < mn:
            mn = p4
        if p2 > mx:
            mx = p2
        if p3 > mx:
            mx = p3
        if p4 > mx:
            mx = p4
        lo += mn
        hi += mx
    return lo, hi


def crisp_next(w, a, lam):
    """One crisp update of every node, as one tuple plane: out_i =
    sigmoid(w_i . a)."""
    return (tuple(sigmoid(dot_lr(row, a), lam) for row in w),)


def interval_next(w_lo, w_hi, x_lo, x_hi, lam):
    """One interval update of every node over endpoint planes, as (lo, hi)."""
    lo_out = []
    hi_out = []
    for wl, wh in zip(w_lo, w_hi):
        lo, hi = interval_dot_lr(wl, wh, x_lo, x_hi)
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
