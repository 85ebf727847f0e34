"""The three number families, each cell rule written once.

A family is the number type of a map's cells: crisp floats (`fcm`),
intervals `Ign` (`fgcm`) and kernel/greyness pairs `Ggn` (`fggcm`).
`FAMILY` holds one `Family` descriptor per family, and every module that
handles cells reads it instead of branching on the family: the model-file
codec, `Model`, `simulate`, the CLI's trajectory writer and `classify`.

The cell constructors own the conversion of a number to a finite float, so
each number is converted and checked once; crisp cells are plain floats,
which `Model` converts through the family's `cell` entry. `finite` and
`positive` are the number and positive-parameter rules every module applies.

`Ign` and `Ggn` are frozen dataclasses: equality, hash, repr and
read-only fields come from `dataclasses`. `simulate` builds one per
computed cell, so `__init__` is written by hand (`init=False`): it
converts inline and sets each slot through its own setter, at less than
half the cost of a generated frozen `__init__`. `__slots__` is declared,
not `slots=True`, whose rebuilt class on CPython 3.11 raises TypeError,
not AttributeError, on assigning a name that is not a field. `__reduce__`
rebuilds a cell through its constructor, since default unpickling
assigns through the frozen `__setattr__` and raises.

Plain floating point, no outward rounding. At the scale this package
targets (desk-size maps, |values| <= a few units) the representation error
is far below every tolerance in use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, NamedTuple

from ._core import crisp_next, interval_next, kernel_grey_next
from .errors import MalformedInputError, ValidationError


def is_number(x) -> bool:
    """An int or a float, but not a bool (an int subclass)."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def finite(x, error, where=None):
    """A number (see `is_number`) as a finite float. One that is none
    raises error, its message prefixed with where when given."""
    try:
        v = float(x)
    except OverflowError:
        problem = "integer too large for a float"
    else:
        if math.isfinite(v):
            return v
        problem = f"non-finite number {v}"
    raise error(problem if where is None else f"{where}: {problem}")


def positive(x, error, name="lambda") -> float:
    """x as a float if it is a finite number > 0 (see `is_number`), else raises error."""
    if is_number(x):
        v = finite(x, error, name)
        if v > 0.0:
            return v
    raise error(f"{name} must be a positive finite number, got {x!r}")


def located(take, values, where):
    """take(v) for every v in values, as a tuple. A value take rejects
    raises its error again, same type, prefixed with where.format(j), j
    being the value's 1-based index; the location is built only then."""
    cells = []
    try:
        for v in values:
            cells.append(take(v))
    except (MalformedInputError, ValidationError) as exc:
        raise type(exc)(f"{where.format(len(cells) + 1)}: {exc}") from exc
    return tuple(cells)


@dataclass(frozen=True, init=False)
class Ign:
    """Closed interval [lo, hi], lo <= hi, both finite."""

    __slots__ = ("lo", "hi")
    lo: float
    hi: float

    def __init__(self, lo, hi):
        try:
            lo, hi = float(lo), float(hi)
        except OverflowError:
            raise MalformedInputError("integer too large for a float") from None
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise MalformedInputError("interval endpoints must be finite")
        if lo > hi:
            raise MalformedInputError(f"interval [{lo}, {hi}] has lo > hi")
        _set_lo(self, lo)
        _set_hi(self, hi)

    def __reduce__(self):
        return Ign, (self.lo, self.hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True, init=False)
class Ggn:
    """Reduced general grey number: kernel plus nonnegative greyness.

    The kernel is a representative crisp value, the greyness a normalized
    uncertainty mass. Under inference the kernel ignores greyness entirely;
    the greyness is dragged along as a kernel-weighted average of
    uncertainty contributions.
    """

    __slots__ = ("kernel", "greyness")
    kernel: float
    greyness: float

    def __init__(self, kernel, greyness):
        try:
            k, g = float(kernel), float(greyness)
        except OverflowError:
            raise MalformedInputError("integer too large for a float") from None
        if not math.isfinite(k):
            raise MalformedInputError("kernel must be finite")
        if not math.isfinite(g) or g < 0.0:
            raise MalformedInputError(f"greyness must be >= 0, got {g}")
        _set_kernel(self, k)
        _set_greyness(self, g)

    def __reduce__(self):
        return Ggn, (self.kernel, self.greyness)


_set_lo, _set_hi = Ign.lo.__set__, Ign.hi.__set__
_set_kernel, _set_greyness = Ggn.kernel.__set__, Ggn.greyness.__set__


@dataclass(frozen=True)
class GreyUnion:
    """A general grey number: known only to lie in a union of closed
    intervals [lo, hi] within the value domain [-1, 1].

    Intervals must be sorted ascending by lo and pairwise disjoint.
    Degenerate points are width-zero intervals [p, p].
    """

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        ivs = tuple((finite(lo, MalformedInputError), finite(hi, MalformedInputError))
                    for lo, hi in self.intervals)
        object.__setattr__(self, "intervals", ivs)
        if not ivs:
            raise MalformedInputError("grey union must contain at least one interval")
        for lo, hi in ivs:
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


class Family(NamedTuple):
    """One family's cell rule. parse, cell and weight raise without a
    location; their callers add it through `located`."""

    fields: tuple[str, ...]  # a cell's float fields, in plane order
    parse: Callable  # model-file JSON value -> cell; MalformedInputError
    encode: Callable  # cell -> model-file JSON value
    cell: Callable  # any value -> cell of this family, or an error
    weight: Callable  # cell -> itself if within [-1, 1], else ValidationError
    split: Callable  # cells -> float planes, one per field
    box: Callable  # float planes -> tuple of cells
    advance: Callable  # (*weight planes, *state planes, lam) -> next planes
    distance: Callable  # Euclidean distance of two states of equal length


def _crisp_parse(raw):
    if not is_number(raw):
        raise MalformedInputError("fcm cells must be plain numbers")
    return raw


def _crisp_cell(x):
    if not is_number(x):
        raise ValidationError("fcm cells must be numbers")
    return finite(x, MalformedInputError)


def _crisp_weight(v):
    if abs(v) > 1.0:
        raise ValidationError(f"weight {v} outside [-1, 1]")
    return v


def _crisp_split(cells):
    return (cells,)


def _crisp_dist(a, b) -> float:
    s = 0.0
    for x, y in zip(a, b):
        d = x - y
        s += d * d
    return math.sqrt(s)


def _interval_parse(raw):
    if is_number(raw):
        return Ign(raw, raw)
    if not isinstance(raw, dict):
        raise MalformedInputError("expected a number or an object")
    if raw.keys() != {"interval"}:
        raise MalformedInputError("fgcm cells take an 'interval' object")
    pair = raw["interval"]
    if not (isinstance(pair, list) and len(pair) == 2
            and is_number(pair[0]) and is_number(pair[1])):
        raise MalformedInputError("'interval' must be [lo, hi]")
    return Ign(*pair)


def _interval_cell(c):
    if not isinstance(c, Ign):
        raise ValidationError("fgcm cells must be intervals")
    return c


def _interval_weight(c):
    if c.lo < -1.0 or c.hi > 1.0:
        raise ValidationError("interval escapes [-1, 1]")
    return c


def _interval_split(cells):
    return [c.lo for c in cells], [c.hi for c in cells]


def _interval_box(planes):
    return tuple(map(Ign, *planes))


def _interval_dist(a, b) -> float:
    s = 0.0
    for x, y in zip(a, b):
        dl = x.lo - y.lo
        dh = x.hi - y.hi
        s += dl * dl + dh * dh
    return math.sqrt(s)


def _grey_parse(raw):
    if is_number(raw):
        return Ggn(raw, 0.0)
    if not isinstance(raw, dict):
        raise MalformedInputError("expected a number or an object")
    if raw.keys() == {"kernel", "greyness"}:
        k, g = raw["kernel"], raw["greyness"]
        if not (is_number(k) and is_number(g)):
            raise MalformedInputError("kernel and greyness must be numbers")
        return Ggn(k, g)
    if raw.keys() == {"union"}:
        ivs = raw["union"]
        if not (isinstance(ivs, list) and ivs
                and all(isinstance(p, list) and len(p) == 2
                        and is_number(p[0]) and is_number(p[1]) for p in ivs)):
            raise MalformedInputError("'union' must be a list of [lo, hi]")
        return ggn_from_union(GreyUnion(ivs))
    raise MalformedInputError("fggcm cells take 'kernel'/'greyness' or 'union' objects")


def _grey_cell(c):
    if not isinstance(c, Ggn):
        raise ValidationError("fggcm cells must be kernel/greyness pairs")
    return c


def _grey_weight(c):
    if abs(c.kernel) > 1.0:
        raise ValidationError(f"kernel {c.kernel} outside [-1, 1]")
    return c


def _grey_split(cells):
    return [c.kernel for c in cells], [c.greyness for c in cells]


def _grey_box(planes):
    return tuple(map(Ggn, *planes))


def _grey_dist(a, b) -> float:
    s = 0.0
    for x, y in zip(a, b):
        dk = x.kernel - y.kernel
        dg = x.greyness - y.greyness
        s += dk * dk + dg * dg
    return math.sqrt(s)


FAMILY = {
    "fcm": Family(
        ("value",), _crisp_parse, float, _crisp_cell, _crisp_weight,
        _crisp_split, itemgetter(0), crisp_next, _crisp_dist,
    ),
    "fgcm": Family(
        ("lo", "hi"), _interval_parse, lambda c: {"interval": [c.lo, c.hi]},
        _interval_cell, _interval_weight,
        _interval_split, _interval_box, interval_next, _interval_dist,
    ),
    "fggcm": Family(
        ("kernel", "greyness"), _grey_parse,
        lambda c: {"kernel": c.kernel, "greyness": c.greyness},
        _grey_cell, _grey_weight,
        _grey_split, _grey_box, kernel_grey_next, _grey_dist,
    ),
}

FAMILIES = tuple(FAMILY)
