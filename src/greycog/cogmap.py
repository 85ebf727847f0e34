"""Cognitive map models and the three inference engines.

All engines share the same synchronous scheme: every node recomputes from
the full previous state through its weight row and the logistic activation.
There is no self-memory addend; feedback happens only through explicit
diagonal weights. The three families differ only in the number type
flowing through the update:

  fcm    crisp floats
  fgcm   intervals, endpoint arithmetic
  fggcm  kernel/greyness pairs, separated updates

Each family's arithmetic is one float-only state update in `_core`; the
family table in `_family` splits cells into float planes and boxes them
back. `simulate` builds cells only for the states it records. `fcm_step`
is the crisp update on tuples; a grey model's is `simulate(m, 1).states[1]`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._core import crisp_next
from ._family import FAMILIES, FAMILY, located, positive
from .errors import (
    DimensionError,
    InvalidParameterError,
    ValidationError,
)

__all__ = [
    "FAMILIES",
    "Model",
    "Trajectory",
    "fcm_step",
    "simulate",
]


@dataclass(frozen=True)
class Model:
    """A cognitive map: family tag, node names, square weight matrix,
    initial state, and sigmoid steepness. Immutable and validated on
    construction; n is the node count."""

    family: str
    node_names: tuple[str, ...]
    weights: tuple
    initial: tuple
    lam: float

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(f"unknown family {self.family!r}")
        fam = FAMILY[self.family]
        # Cells come first: for a model file's crisp cells this is the
        # number conversion, a parse error that precedes any invariant.
        object.__setattr__(self, "weights", tuple(
            located(fam.cell, row, f"weights[{i + 1}][{{}}]")
            for i, row in enumerate(self.weights)))
        object.__setattr__(self, "initial", located(fam.cell, self.initial, "initial[{}]"))
        object.__setattr__(self, "lam", positive(self.lam, ValidationError))
        object.__setattr__(self, "node_names", tuple(str(s) for s in self.node_names))
        if not self.node_names:
            raise ValidationError("model needs at least one node")
        if len(self.weights) != self.n:
            raise ValidationError(f"weight matrix has {len(self.weights)} rows, expected {self.n}")
        for i, row in enumerate(self.weights):
            if len(row) != self.n:
                raise ValidationError(f"weight row {i + 1} has {len(row)} entries, expected {self.n}")
            located(fam.weight, row, f"weights[{i + 1}][{{}}]")
        if len(self.initial) != self.n:
            raise ValidationError(f"initial state has {len(self.initial)} entries, expected {self.n}")

    @property
    def n(self) -> int:
        return len(self.node_names)


@dataclass(frozen=True)
class Trajectory:
    """Recorded state sequence of one simulation, initial state included."""

    family: str
    states: tuple

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


def fcm_step(w, a, lam: float):
    """One synchronous crisp update: out_i = sigmoid(sum_j w_ij a_j)."""
    lam = positive(lam, InvalidParameterError)
    if any(len(row) != len(a) for row in w):
        raise DimensionError("weight row length does not match state length")
    return crisp_next(w, a, lam)[0]


def simulate(m: Model, steps: int) -> Trajectory:
    """Iterate a model for the given number of steps.

    Returns the full state history: steps + 1 states, the initial one
    first. Deterministic; identical inputs give bitwise identical output.
    The engine iterates float planes and boxes each computed state into
    cells, so every computed cell passes its constructor's checks. A row
    sum that overflows raises MalformedInputError.

    Computing stops at the first exact repeat: the update is a pure
    function of the float planes, so once a computed state equals the one
    P steps back, the P-cycle of recorded states is copied up to the
    horizon and the trajectory is unchanged. Only computed states are
    matched; they are sigmoid outputs, finite and never -0.0, so float
    equality is bit equality there, while the initial state may hold -0.0.
    """
    if isinstance(steps, bool) or not isinstance(steps, int) or steps < 1:
        raise InvalidParameterError(f"steps must be an integer >= 1, got {steps}")
    fam = FAMILY[m.family]
    split, advance, box = fam.split, fam.advance, fam.box
    w_planes = tuple(zip(*map(split, m.weights)))
    x_planes = split(m.initial)
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
        states.append(box(x_planes))
    return Trajectory(m.family, tuple(states))
