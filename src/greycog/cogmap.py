"""Cognitive map models and the three inference engines.

All engines share the same synchronous scheme: every node recomputes from
the full previous state through its weight row and the logistic activation.
There is no self-memory addend; feedback happens only through explicit
diagonal weights. The three families differ only in the number type
flowing through the update:

  fcm    crisp floats
  fgcm   intervals, endpoint arithmetic
  fggcm  kernel/greyness pairs, separated updates

The arithmetic of each family is one float-only row kernel in `_core`.
The grey engines split weights and state into float planes (lo/hi or
kernel/greyness), iterate those, and build `Ign`/`Ggn` cells only for the
states they record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._core import dot_lr, interval_dot_lr, kernel_grey_row, sigmoid
from .errors import (
    DimensionError,
    InvalidParameterError,
    ValidationError,
)
from .grey_num import Ggn
from .interval_num import Ign

__all__ = [
    "FAMILIES",
    "Model",
    "Trajectory",
    "fcm_step",
    "fgcm_step",
    "fggcm_step",
    "simulate",
]

FAMILIES = ("fcm", "fgcm", "fggcm")


def _validate_cell(family, value, where):
    if family == "fcm":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValidationError(f"{where}: fcm cells must be numbers")
        v = float(value)
        if not math.isfinite(v):
            raise ValidationError(f"{where}: non-finite value")
        return v
    if family == "fgcm":
        if not isinstance(value, Ign):
            raise ValidationError(f"{where}: fgcm cells must be intervals")
        return value
    if not isinstance(value, Ggn):
        raise ValidationError(f"{where}: fggcm cells must be kernel/greyness pairs")
    return value


def _check_weight_range(family, cell, where):
    if family == "fcm":
        if abs(cell) > 1.0:
            raise ValidationError(f"{where}: weight {cell} outside [-1, 1]")
    elif family == "fgcm":
        if cell.lo < -1.0 or cell.hi > 1.0:
            raise ValidationError(f"{where}: interval escapes [-1, 1]")
    else:
        if abs(cell.kernel) > 1.0:
            raise ValidationError(f"{where}: kernel {cell.kernel} outside [-1, 1]")


@dataclass(frozen=True)
class Model:
    """A cognitive map: family tag, square weight matrix, initial state,
    and sigmoid steepness. Immutable and validated on construction."""

    family: str
    n: int
    node_names: tuple[str, ...]
    weights: tuple
    initial: tuple
    lam: float

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(f"unknown family {self.family!r}")
        if not (isinstance(self.lam, (int, float)) and not isinstance(self.lam, bool)
                and self.lam > 0.0 and math.isfinite(self.lam)):
            raise ValidationError(f"lambda must be a positive number, got {self.lam}")
        object.__setattr__(self, "lam", float(self.lam))
        names = tuple(str(s) for s in self.node_names)
        object.__setattr__(self, "node_names", names)
        if self.n != len(names):
            raise ValidationError(f"n={self.n} but {len(names)} node names")
        if self.n < 1:
            raise ValidationError("model needs at least one node")
        rows = []
        if len(self.weights) != self.n:
            raise ValidationError(f"weight matrix has {len(self.weights)} rows, expected {self.n}")
        for i, row in enumerate(self.weights):
            if len(row) != self.n:
                raise ValidationError(f"weight row {i + 1} has {len(row)} entries, expected {self.n}")
            cells = []
            for j, cell in enumerate(row):
                where = f"weight ({i + 1},{j + 1})"
                c = _validate_cell(self.family, cell, where)
                _check_weight_range(self.family, c, where)
                cells.append(c)
            rows.append(tuple(cells))
        object.__setattr__(self, "weights", tuple(rows))
        if len(self.initial) != self.n:
            raise ValidationError(f"initial state has {len(self.initial)} entries, expected {self.n}")
        init = tuple(
            _validate_cell(self.family, v, f"initial[{i + 1}]")
            for i, v in enumerate(self.initial)
        )
        object.__setattr__(self, "initial", init)


@dataclass(frozen=True)
class Trajectory:
    """Recorded state sequence of one simulation, initial state included."""

    family: str
    states: tuple
    lam: float
    model_id: str

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(tuple(s) for s in self.states))
        if self.family not in FAMILIES:
            raise ValidationError(f"unknown family {self.family!r}")
        if len(self.states) < 1:
            raise ValidationError("trajectory must contain at least the initial state")
        n = len(self.states[0])
        for s in self.states:
            if len(s) != n:
                raise ValidationError("ragged trajectory states")

    @property
    def steps(self) -> int:
        return len(self.states) - 1


def _check_step(w, a, lam):
    if not lam > 0.0:
        raise InvalidParameterError(f"lambda must be > 0, got {lam}")
    if any(len(row) != len(a) for row in w):
        raise DimensionError("weight row length does not match state length")


def _crisp_next(w, a, lam):
    return tuple(sigmoid(dot_lr(row, a), lam) for row in w)


def _crisp_planes(w, a, lam):
    """The crisp update over one float plane, in the grey engines' shape."""
    return (_crisp_next(w, a, lam),)


def _interval_next(w_lo, w_hi, x_lo, x_hi, lam):
    lo_out = []
    hi_out = []
    for wl, wh in zip(w_lo, w_hi):
        lo, hi = interval_dot_lr(wl, wh, x_lo, x_hi)
        lo_out.append(sigmoid(lo, lam))
        hi_out.append(sigmoid(hi, lam))
    return lo_out, hi_out


def _kernel_grey_next(w_k, w_g, x_k, x_g, lam):
    k_out = []
    g_out = []
    for wk, wg in zip(w_k, w_g):
        k, g = kernel_grey_row(wk, wg, x_k, x_g, lam)
        k_out.append(k)
        g_out.append(g)
    return k_out, g_out


# Grey families: cell type, the float fields it splits into, and the
# update over those float planes.
_PLANES = {
    "fgcm": (Ign, ("lo", "hi"), _interval_next),
    "fggcm": (Ggn, ("kernel", "greyness"), _kernel_grey_next),
}


def _unpack(fields, w, a):
    """Split weight rows and a state into per-field float planes."""
    w_planes = [[[getattr(c, f) for c in row] for row in w] for f in fields]
    x_planes = [[getattr(c, f) for c in a] for f in fields]
    return w_planes, x_planes


def _grey_step(family, w, a, lam):
    _check_step(w, a, lam)
    if w and not a:
        raise DimensionError("empty row")
    box, fields, advance = _PLANES[family]
    w_planes, x_planes = _unpack(fields, w, a)
    return tuple(map(box, *advance(*w_planes, *x_planes, lam)))


def fcm_step(w, a, lam: float):
    """One synchronous crisp update: out_i = sigmoid(sum_j w_ij a_j)."""
    _check_step(w, a, lam)
    return _crisp_next(w, a, lam)


def fgcm_step(w, a, lam: float):
    """One synchronous interval update through the interval dot product."""
    return _grey_step("fgcm", w, a, lam)


def fggcm_step(w, a, lam: float):
    """One synchronous kernel/greyness update, row by row."""
    return _grey_step("fggcm", w, a, lam)


def simulate(m: Model, steps: int, model_id: str | None = None) -> Trajectory:
    """Iterate a model for the given number of steps.

    Returns the full state history: steps + 1 states, the initial one
    first. Deterministic; identical inputs give bitwise identical output.
    Grey families iterate float planes and box each computed state into
    cells, so every computed cell passes its constructor's checks. A row
    sum that overflows raises MalformedInputError.

    Computing stops at the first exact repeat: the update is a pure
    function of the float planes, so once a computed state equals the one
    P steps back, the P-cycle of recorded states is copied up to the
    horizon and the trajectory is unchanged. Only computed states are
    matched; they are sigmoid outputs, finite and never -0.0, so float
    equality is bit equality there, while the initial state may hold -0.0.
    """
    if not isinstance(steps, int) or steps < 1:
        raise InvalidParameterError(f"steps must be an integer >= 1, got {steps}")
    if m.family == "fcm":
        box, advance = None, _crisp_planes
        w_planes, x_planes = (m.weights,), (m.initial,)
    else:
        box, fields, advance = _PLANES[m.family]
        w_planes, x_planes = _unpack(fields, m.weights, m.initial)
    states = [m.initial]
    seen = {}
    for t in range(1, steps + 1):
        x_planes = advance(*w_planes, *x_planes, m.lam)
        first = seen.setdefault(tuple(map(tuple, x_planes)), t)
        if first != t:
            period = t - first
            while len(states) <= steps:
                states.append(states[-period])
            break
        states.append(x_planes[0] if box is None else tuple(map(box, *x_planes)))
    return Trajectory(m.family, tuple(states), m.lam, model_id or m.family)
