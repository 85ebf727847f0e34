"""The three number families, each cell rule written once.

A family is the number type of a map's cells: crisp floats (`fcm`),
intervals `Ign` (`fgcm`) and kernel/greyness pairs `Ggn` (`fggcm`).
`FAMILY` holds one `Family` descriptor per family, and every module that
handles cells reads it instead of branching on the family: the model-file
codec, `Model`, `Trajectory`, `simulate`, the CLI and `classify`.

One number rule, `finite` (an int or a float, not a bool, finite), makes
every float: the cell constructors `Ign` and `Ggn` apply it (`GreyUnion`
reads its intervals through `Ign`), so the model-file parsers check only
JSON shape. Crisp cells have no constructor: the fcm model-file rule is
`finite` raising MalformedInputError, and the fcm `cell` is `number`.

A matrix or vector argument is read by `matrix` or `vector`, which check
its shape and pass each entry through a family's `cell` or `number`
(or, for a model file, a `_parse` rule), naming the place of one refused.
A sequence whose entries are all what the rule would return (finite floats
for `number`, the fcm `cell` and `_crisp_parse`, `Ign` or `Ggn` cells for
the grey `cell` rules) is taken whole, tested at C speed, as are a
`Model`'s rows in a criterion, a crisp model file's rows and the states
of a hand-built `Trajectory`.

A model-file weight row or initial state is read once, by its family's
`row` reader: a crisp row through `vector` with `_crisp_parse`, a grey row
in one loop (JSON shape, number rule, cell invariant and range applied,
cells built as `box` builds them) or, where that loop stops (an int, a
union, a fault), cell by cell through `_interval_parse` or `_grey_parse`.
A crisp row within [-1, 1] or a grey row the loop took comes back
`_Read`, which `Model` keeps; `Model` range-checks any other row, so
every error is the one the per-cell rules raise.
`simulate` marks its state list `_Read` too, which `Trajectory` keeps.

Every record of the package (the cells, `GreyUnion`, `Model`,
`Trajectory`, the analysis results and `Family`) is a `Record`: declared
`__slots__` and a written-out constructor, with read-only fields,
equality, hash, repr and pickling from the base. Importing `dataclasses`
(with `inspect`, `ast`, `dis` and `tokenize`; it also compiles each made
method) took most of the time of `import greycog.cli`, and `typing` (for
a `NamedTuple`) milliseconds more; the package imports neither. `Ign` and `Ggn`
convert each number through `finite`, test their invariant and set their
fields through `Record.__init__`; the fgcm `box` maps `Ign` over the
planes. The fggcm `box` builds its cells in one loop with `Ggn`'s slot
setters, without a constructor call: it tests each pair of floats
against `Ggn`'s invariant (both finite, greyness >= 0) and, at the first
pair that fails, maps `Ggn`, which raises its usual error.

Plain floating point, no outward rounding. At the scale this package
targets (desk-size maps, |values| <= a few units) the representation error
is far below every tolerance in use.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from operator import itemgetter

from ._core import blocks, crisp_next, grey_blocks, interval_next, kernel_grey_next
from .errors import DimensionError, MalformedInputError, ValidationError


def is_number(x) -> bool:
    """An int or a float, but not a bool (an int subclass)."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def finite(x, error, where=None):
    """x as a finite float if it is a number (see `is_number`), else
    raises error, its message prefixed with where when given."""
    if not is_number(x):
        problem = f"expected a number, got {type(x).__name__}"
    else:
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
    """x as a float if it is a finite number > 0 (see `finite`), else raises error."""
    v = finite(x, error, name)
    if v > 0.0:
        return v
    raise error(f"{name} must be a positive finite number, got {x!r}")


def at_least(x, low, error, name) -> int:
    """x if it is an int, not a bool, and >= low, else raises error."""
    if isinstance(x, int) and not isinstance(x, bool) and x >= low:
        return x
    raise error(f"{name} must be an integer >= {low}, got {x}")


def number(x):
    """`finite` raising ValidationError: the rule for an argument's entries."""
    return finite(x, ValidationError)


def sequence(x, name, error=DimensionError):
    """x as a tuple, a tuple as it is. A value that is no sequence, is a
    str (characters) or bytes-like (items read as ints), a set (hash
    order) or a mapping (its keys) raises error."""
    if not isinstance(x, (str, bytes, bytearray, memoryview, set, frozenset, Mapping)):
        try:
            return tuple(x)
        except TypeError:
            pass
    raise error(f"{name} must be a sequence, got {type(x).__name__}")


def vector(values, take, name, error=DimensionError):
    """take(v) for every v in values, as a tuple; values that is no sequence
    raises error. A v take refuses raises its error again, same type,
    prefixed with name[j] (1-based), which is built only then. When take
    would return every v as it is (see `_KEPT`: `number`, `_crisp_parse`
    and the grey `cell` rules), values is returned so."""
    values = sequence(values, name, error)
    kept = _KEPT.get(take)
    if (kept is not None and set(map(type, values)) == {kept}
            and (kept is not float or all(map(math.isfinite, values)))):
        return values
    cells = []
    try:
        for v in values:
            cells.append(take(v))
    except (MalformedInputError, ValidationError) as exc:
        raise type(exc)(f"{name}[{len(cells) + 1}]: {exc}") from exc
    return tuple(cells)


def matrix(m, take, name, square=False):
    """m as row tuples, each read by `vector`. A matrix that is no sequence
    of rows, is empty, is not square when square is set, or is ragged
    raises DimensionError, in that order, before any entry is taken."""
    rows = [sequence(row, f"{name}[{i}]") for i, row in enumerate(sequence(m, name), 1)]
    if not rows or not rows[0]:
        raise DimensionError(f"{name} is empty")
    if square and any(len(row) != len(rows) for row in rows):
        raise DimensionError(f"{name} must be square")
    if len({len(row) for row in rows}) > 1:
        raise DimensionError(f"{name} is ragged: row lengths {sorted({len(r) for r in rows})}")
    return tuple(vector(row, take, f"{name}[{i}]") for i, row in enumerate(rows, 1))


class Record:
    """Base of the immutable records. A record class lists every field in
    `__slots__`, those its constructor derives last, and its constructor's
    parameters in `__match_args__`. Its `__init__` checks its arguments,
    then sets the fields, in `__slots__` order, through `Record.__init__`.

    Fields are read-only: assigning or deleting one raises AttributeError.
    Two records are equal, and hash alike, when they are of one class and
    their fields are equal. repr names every field, and pickling and
    copying rebuild a record through its constructor, so its checks run.
    """

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self.__match_args__)


class Ign(Record):
    """Closed interval [lo, hi], lo <= hi, both finite."""

    __slots__ = __match_args__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo, hi = finite(lo, MalformedInputError), finite(hi, MalformedInputError)
        if lo > hi:
            raise MalformedInputError(f"interval [{lo}, {hi}] has lo > hi")
        super().__init__(lo, hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo


class Ggn(Record):
    """Reduced general grey number: kernel plus nonnegative greyness.

    The kernel is a representative crisp value, the greyness a normalized
    uncertainty mass. Under inference the kernel ignores greyness entirely;
    the greyness is dragged along as a kernel-weighted average of
    uncertainty contributions.
    """

    __slots__ = __match_args__ = ("kernel", "greyness")

    def __init__(self, kernel, greyness):
        kernel = finite(kernel, MalformedInputError)
        greyness = finite(greyness, MalformedInputError)
        if greyness < 0.0:
            raise MalformedInputError(f"greyness must be >= 0, got {greyness}")
        super().__init__(kernel, greyness)


_new = object.__new__
_set_lo, _set_hi = Ign.lo.__set__, Ign.hi.__set__
_set_kernel, _set_greyness = Ggn.kernel.__set__, Ggn.greyness.__set__


class GreyUnion(Record):
    """A general grey number: known only to lie in a union of closed
    intervals [lo, hi] within the value domain [-1, 1].

    Intervals are (lo, hi) pairs, the list and each pair read by
    `sequence`, then each pair by `Ign`; they are sorted ascending by lo
    and pairwise disjoint. Degenerate points are width-zero intervals.
    """

    __slots__ = __match_args__ = ("intervals",)

    def __init__(self, intervals):
        pairs = []
        for pair in sequence(intervals, "a grey union of (lo, hi) pairs", MalformedInputError):
            pair = sequence(pair, "each of a grey union's (lo, hi) pairs", MalformedInputError)
            if len(pair) != 2:
                raise MalformedInputError("a grey union is a sequence of (lo, hi) pairs")
            pairs.append(pair)
        ivs = tuple((iv.lo, iv.hi) for iv in (Ign(lo, hi) for lo, hi in pairs))
        if not ivs:
            raise MalformedInputError("grey union must contain at least one interval")
        for lo, hi in ivs:
            if lo < -1.0 or hi > 1.0:
                raise MalformedInputError(
                    f"interval [{lo}, {hi}] escapes the value domain [-1, 1]"
                )
        for (lo_a, hi_a), (lo_b, hi_b) in zip(ivs, ivs[1:]):
            if hi_a >= lo_b:
                raise MalformedInputError(
                    "union intervals must be disjoint and sorted ascending"
                )
        super().__init__(ivs)


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


class _Read(tuple):
    """A weight row or a state list read under its family's rule already,
    which `Model` or `Trajectory` keeps as a plain tuple."""

    __slots__ = ()


class Family(Record):
    """One family's cell rule. cell and weight raise without a location;
    their callers add it through `vector`."""

    __slots__ = __match_args__ = (
        "fields",  # a cell's float fields, in plane order
        "encode",  # cell -> model-file JSON value
        "cell", "weight",  # any value -> cell of this family (within [-1, 1]), or an error
        "row",  # (model-file row, name) -> `_Read` cells, or cells read one by one
        "split", "box",  # cells -> float planes, one per field; planes -> cells, each checked
        "prepare",  # (*weight planes) -> what advance reads, built once per run
        "advance",  # (prepared weights, *state planes, lam) -> next planes
        "distance",  # Euclidean distance of two states of equal length
    )

    def __init__(self, fields, encode, cell, weight, row, split, box, prepare, advance, distance):
        super().__init__(fields, encode, cell, weight, row, split, box, prepare, advance, distance)


def _crisp_parse(raw):
    return finite(raw, MalformedInputError)


def _crisp_weight(v):
    v = number(v)
    if abs(v) > 1.0:
        raise ValidationError(f"weight {v} outside [-1, 1]")
    return v


def _crisp_row(row, name):
    row = vector(row, _crisp_parse, name, MalformedInputError)
    return _Read(row) if max(map(abs, row), default=0.0) <= 1.0 else row


def _crisp_dist(a, b) -> float:
    s = 0.0
    for x, y in zip(a, b):
        d = x - y
        s += d * d
    return math.sqrt(s)


def _interval_parse(raw):
    if not isinstance(raw, dict):
        return Ign(raw, raw)
    if len(raw) != 1 or "interval" not in raw:
        raise MalformedInputError("fgcm cells take an 'interval' object")
    pair = raw["interval"]
    if not (isinstance(pair, list) and len(pair) == 2):
        raise MalformedInputError("'interval' must be [lo, hi]")
    return Ign(*pair)


def _interval_cell(c):
    if not isinstance(c, Ign):
        raise ValidationError("fgcm cells must be intervals")
    return c


def _interval_weight(c):
    c = _interval_cell(c)
    if c.lo < -1.0 or c.hi > 1.0:
        raise ValidationError("interval escapes [-1, 1]")
    return c


def _interval_row(row, name):
    cells = []
    append = cells.append
    for raw in row:
        if type(raw) is dict and len(raw) == 1:
            pair = raw.get("interval")
            if type(pair) is not list or len(pair) != 2:
                break
            lo, hi = pair
        elif type(raw) is float:
            lo = hi = raw
        else:
            break
        if not (type(lo) is type(hi) is float and -1.0 <= lo <= hi <= 1.0):
            break
        cell = _new(Ign)
        _set_lo(cell, lo)
        _set_hi(cell, hi)
        append(cell)
    else:
        return _Read(cells)
    return vector(row, _interval_parse, name, MalformedInputError)


def _interval_split(cells):
    return [c.lo for c in cells], [c.hi for c in cells]


def _interval_dist(a, b) -> float:
    s = 0.0
    for x, y in zip(a, b):
        dl = x.lo - y.lo
        dh = x.hi - y.hi
        s += dl * dl + dh * dh
    return math.sqrt(s)


def _grey_parse(raw):
    if not isinstance(raw, dict):
        return Ggn(raw, 0.0)
    if len(raw) == 2 and "kernel" in raw and "greyness" in raw:
        return Ggn(raw["kernel"], raw["greyness"])
    if len(raw) == 1 and "union" in raw:
        if not isinstance(raw["union"], list):
            raise MalformedInputError("'union' must be a list of [lo, hi]")
        return ggn_from_union(GreyUnion(raw["union"]))
    raise MalformedInputError("fggcm cells take 'kernel'/'greyness' or 'union' objects")


def _grey_cell(c):
    if not isinstance(c, Ggn):
        raise ValidationError("fggcm cells must be kernel/greyness pairs")
    return c


def _grey_weight(c):
    c = _grey_cell(c)
    if abs(c.kernel) > 1.0:
        raise ValidationError(f"kernel {c.kernel} outside [-1, 1]")
    return c


def _grey_row(row, name):
    inf = math.inf
    cells = []
    append = cells.append
    for raw in row:
        if type(raw) is dict and len(raw) == 2:
            kernel, greyness = raw.get("kernel"), raw.get("greyness")  # None if missing
        elif type(raw) is float:
            kernel, greyness = raw, 0.0
        else:
            break
        if not (type(kernel) is type(greyness) is float
                and -1.0 <= kernel <= 1.0 and 0.0 <= greyness < inf):
            break
        cell = _new(Ggn)
        _set_kernel(cell, kernel)
        _set_greyness(cell, greyness)
        append(cell)
    else:
        return _Read(cells)
    return vector(row, _grey_parse, name, MalformedInputError)


def _grey_split(cells):
    return [c.kernel for c in cells], [c.greyness for c in cells]


def _grey_box(planes):
    inf = math.inf
    cells = []
    for kernel, greyness in zip(*planes):
        if not (-inf < kernel < inf and 0.0 <= greyness < inf):
            return tuple(map(Ggn, *planes))
        cell = _new(Ggn)
        _set_kernel(cell, kernel)
        _set_greyness(cell, greyness)
        cells.append(cell)
    return tuple(cells)


def _grey_dist(a, b) -> float:
    s = 0.0
    for x, y in zip(a, b):
        dk = x.kernel - y.kernel
        dg = x.greyness - y.greyness
        s += dk * dk + dg * dg
    return math.sqrt(s)


FAMILY = {
    "fcm": Family(
        ("value",), float, number, _crisp_weight, _crisp_row,
        lambda cells: (cells,), itemgetter(0), blocks, crisp_next, _crisp_dist,
    ),
    "fgcm": Family(
        ("lo", "hi"), lambda c: {"interval": [c.lo, c.hi]},
        _interval_cell, _interval_weight, _interval_row, _interval_split,
        lambda planes: tuple(map(Ign, *planes)), blocks, interval_next, _interval_dist,
    ),
    "fggcm": Family(
        ("kernel", "greyness"), lambda c: {"kernel": c.kernel, "greyness": c.greyness},
        _grey_cell, _grey_weight, _grey_row,
        _grey_split, _grey_box, grey_blocks, kernel_grey_next, _grey_dist,
    ),
}

FAMILIES = tuple(FAMILY)

# The rules `vector` skips for values all of one exact type (and finite,
# for float), since the rule would return each such value as it is.
_KEPT = {number: float, _crisp_parse: float, _interval_cell: Ign, _grey_cell: Ggn}


def family_of(name, error) -> Family:
    """The `Family` named name. Any other value raises error; it is tested
    against `FAMILIES`, not hashed, so an unhashable one is refused too."""
    if name in FAMILIES:
        return FAMILY[name]
    raise error(f"unknown family {name!r}")
