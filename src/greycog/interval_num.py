"""Interval grey numbers and their endpoint arithmetic: addition,
four-product multiplication, monotone sigmoid, and the interval dot
product, which boxes the engine's row kernel `_core.interval_dot_lr`.

Plain floating point, no outward rounding. At the scale this package
targets (desk-size maps, |values| <= a few units) the representation error
is far below every tolerance in use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._core import interval_dot_lr, sigmoid
from .errors import DimensionError, InvalidParameterError, MalformedInputError

__all__ = ["Ign", "ign_add", "ign_dot_row", "ign_mul", "ign_sigmoid"]


@dataclass(frozen=True)
class Ign:
    """Closed interval [lo, hi], lo <= hi, both finite."""

    lo: float
    hi: float

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise MalformedInputError("interval endpoints must be finite")
        if self.lo > self.hi:
            raise MalformedInputError(f"interval [{self.lo}, {self.hi}] has lo > hi")

    @property
    def width(self) -> float:
        return self.hi - self.lo


def ign_add(a: Ign, b: Ign) -> Ign:
    return Ign(a.lo + b.lo, a.hi + b.hi)


def ign_mul(a: Ign, b: Ign) -> Ign:
    p1 = a.lo * b.lo
    p2 = a.lo * b.hi
    p3 = a.hi * b.lo
    p4 = a.hi * b.hi
    return Ign(min(p1, p2, p3, p4), max(p1, p2, p3, p4))


def ign_sigmoid(a: Ign, lam: float) -> Ign:
    """Endpoint image under the logistic function; monotone, so the interval
    maps to the interval of images."""
    if not lam > 0.0:
        raise InvalidParameterError(f"lambda must be > 0, got {lam}")
    return Ign(sigmoid(a.lo, lam), sigmoid(a.hi, lam))


def ign_dot_row(w_row, a) -> Ign:
    """Interval dot product: left-to-right sum of four-product interval
    multiplications. Contains every crisp dot product of member values.
    """
    if len(w_row) != len(a):
        raise DimensionError(f"row length {len(w_row)} != state length {len(a)}")
    if len(a) == 0:
        raise DimensionError("empty row")
    lo, hi = interval_dot_lr([w.lo for w in w_row], [w.hi for w in w_row],
                             [x.lo for x in a], [x.hi for x in a])
    return Ign(lo, hi)
