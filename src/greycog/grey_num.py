"""General grey numbers: multi-interval unions, kernel/greyness reduction,
and the activation rules of the kernel/greyness map engine (the node
update boxes the engine's row kernel `_core.kernel_grey_row`).

A general grey number is known only to lie in a finite union of closed
intervals inside the value domain [-1, 1]. For computation it is reduced to
a kernel (representative crisp value: mean of the interval midpoints) and a
greyness (normalized uncertainty mass: total interval width divided by the
domain width 2). The two components evolve separately under inference: the
kernel ignores greyness entirely, the greyness is dragged along as a
kernel-weighted average of uncertainty contributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._core import kernel_grey_row, sigmoid
from .errors import DimensionError, InvalidParameterError, MalformedInputError

__all__ = [
    "GreyUnion",
    "Ggn",
    "ggn_from_union",
    "ggn_row_update",
    "ggn_sigmoid",
]


@dataclass(frozen=True)
class GreyUnion:
    """A union of closed intervals [lo, hi] within [-1, 1].

    Intervals must be sorted ascending by lo and pairwise disjoint.
    Degenerate points are width-zero intervals [p, p].
    """

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        ivs = tuple((float(lo), float(hi)) for lo, hi in self.intervals)
        object.__setattr__(self, "intervals", ivs)
        if not ivs:
            raise MalformedInputError("grey union must contain at least one interval")
        for lo, hi in ivs:
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise MalformedInputError("union endpoints must be finite")
            if lo > hi:
                raise MalformedInputError(f"interval [{lo}, {hi}] has lo > hi")
            if lo < -1.0 or hi > 1.0:
                raise MalformedInputError(
                    f"interval [{lo}, {hi}] escapes the value domain [-1, 1]"
                )
        for (lo_a, hi_a), (lo_b, hi_b) in zip(ivs, ivs[1:]):
            if hi_a >= lo_b:
                raise MalformedInputError(
                    "union intervals must be disjoint and sorted ascending"
                )


@dataclass(frozen=True)
class Ggn:
    """Reduced general grey number: kernel plus nonnegative greyness."""

    kernel: float
    greyness: float

    def __post_init__(self):
        object.__setattr__(self, "kernel", float(self.kernel))
        object.__setattr__(self, "greyness", float(self.greyness))
        if not math.isfinite(self.kernel):
            raise MalformedInputError("kernel must be finite")
        if not math.isfinite(self.greyness) or self.greyness < 0.0:
            raise MalformedInputError(f"greyness must be >= 0, got {self.greyness}")


def ggn_from_union(u: GreyUnion) -> Ggn:
    """Reduce a union of intervals to kernel and greyness.

    Kernel is the unweighted mean of interval midpoints (a point counts as
    its own midpoint). Greyness is the total width over the width 2 of the
    value domain [-1, 1], the only domain `GreyUnion` admits.
    """
    mid_sum = 0.0
    width_sum = 0.0
    for lo, hi in u.intervals:
        mid_sum += (lo + hi) / 2.0
        width_sum += hi - lo
    return Ggn(mid_sum / len(u.intervals), width_sum / 2.0)


def ggn_sigmoid(g: Ggn, lam: float) -> Ggn:
    """Activate a general grey number.

    The kernel maps through the logistic function; the greyness is scaled
    by the activated kernel, so activation always shrinks uncertainty.
    """
    if not lam > 0.0:
        raise InvalidParameterError(f"lambda must be > 0, got {lam}")
    k = sigmoid(g.kernel, lam)
    return Ggn(k, k * g.greyness)


def ggn_row_update(w_row, a, lam: float) -> Ggn:
    """One node update of the kernel/greyness map.

    Kernel: logistic of the crisp kernel dot product. Greyness: activated
    kernel times the |kernel product|-weighted average of max(weight
    greyness, state greyness) over the row. A row with zero kernel mass
    contributes no grey signal, so its output greyness is 0.
    """
    if not lam > 0.0:
        raise InvalidParameterError(f"lambda must be > 0, got {lam}")
    if len(w_row) != len(a):
        raise DimensionError(f"row length {len(w_row)} != state length {len(a)}")
    if len(a) == 0:
        raise DimensionError("empty row")
    return Ggn(*kernel_grey_row([w.kernel for w in w_row], [w.greyness for w in w_row],
                                [x.kernel for x in a], [x.greyness for x in a], lam))
