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
back. `simulate` prepares the weights once per run (the family's
`prepare`) and builds cells only for the states it records. `fcm_step`
is the crisp update on tuples; a grey model's is `simulate(m, 1).states[1]`.
"""

from __future__ import annotations

from ._core import blocks, crisp_next
from ._family import (FAMILIES, FAMILY, Record, _Read, at_least, family_of, matrix, number,
                      positive, sequence, vector)
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


def _name(s):
    """A node name, which must be a str; not converted."""
    if isinstance(s, str):
        return s
    raise ValidationError(f"a node name must be a str, got {type(s).__name__}")


class Model(Record):
    """A cognitive map: family tag, distinct node names, square weight
    matrix, initial state, and sigmoid steepness. Immutable and validated
    on construction; n is the node count. Each weight row is read once,
    under the family's `weight` rule, here unless it is `_family._Read`. A
    value that is no sequence (see `_family.sequence`; a str of node names
    is none) or a node name that is no str raises ValidationError."""

    __slots__ = __match_args__ = ("family", "node_names", "weights", "initial", "lam")

    def __init__(self, family, node_names, weights, initial, lam):
        fam = family_of(family, ValidationError)
        # Cells first: a cell of another family, or out of range, fails before any shape.
        weights = tuple(tuple(row) if type(row) is _Read
                        else vector(row, fam.weight, f"weights[{i}]", ValidationError)
                        for i, row in enumerate(sequence(weights, "weights", ValidationError), 1))
        initial = vector(initial, fam.cell, "initial", ValidationError)
        lam = positive(lam, ValidationError)
        node_names = vector(node_names, _name, "node_names", ValidationError)
        n = len(node_names)
        if not n:
            raise ValidationError("model needs at least one node")
        seen = set()
        for name in node_names:
            if name in seen:
                raise ValidationError(f"node name {name!r} is repeated")
            seen.add(name)
        if len(weights) != n:
            raise ValidationError(f"weight matrix has {len(weights)} rows, expected {n}")
        for i, row in enumerate(weights, 1):
            if len(row) != n:
                raise ValidationError(f"weight row {i} has {len(row)} entries, expected {n}")
        if len(initial) != n:
            raise ValidationError(f"initial state has {len(initial)} entries, expected {n}")
        super().__init__(family, node_names, weights, initial, lam)

    @property
    def n(self) -> int:
        return len(self.node_names)


class Trajectory(Record):
    """Recorded state sequence of one simulation, initial state included.
    Each state is read by `_family.vector` under the family's `cell` rule
    (the family looked up first), unless states is `simulate`'s
    `_family._Read` list. A value that is no sequence (a str is none), a
    cell of another family (a bool, NaN or inf crisp cell too), no state
    or a state of no cell, or ragged states raise ValidationError."""

    __slots__ = __match_args__ = ("family", "states")

    def __init__(self, family, states):
        cell = family_of(family, ValidationError).cell
        states = (tuple(states) if type(states) is _Read
                  else vector(states, lambda s: vector(s, cell, "state", ValidationError),
                              "states", ValidationError))
        if not states or not states[0]:
            raise ValidationError("trajectory must contain at least the initial state, "
                                  "of one cell or more")
        if len(set(map(len, states))) > 1:
            raise ValidationError("ragged trajectory states")
        super().__init__(family, states)

    @property
    def steps(self) -> int:
        return len(self.states) - 1


def fcm_step(w, a, lam: float):
    """One synchronous crisp update: out_i = sigmoid(sum_j w_ij a_j), w
    (square) and a read by `_family.matrix` and `vector` under `number`."""
    lam = positive(lam, InvalidParameterError)
    w = matrix(w, number, "w", square=True)
    a = vector(a, number, "a")
    if len(w[0]) != len(a):
        raise DimensionError("weight row length does not match state length")
    return crisp_next(blocks(w), a, lam)[0]


def simulate(m: Model, steps: int) -> Trajectory:
    """Iterate a model for the given number of steps.

    Returns the full state history: steps + 1 states, the initial one
    first. Deterministic; identical inputs give bitwise identical output.
    The engine iterates tuple float planes and boxes each computed state
    into cells, each tested per value as its constructor tests it, so the
    states go to `Trajectory` marked `_family._Read`, not read again. A
    row sum that overflows raises MalformedInputError.

    Computing stops at the first exact repeat: the update is a pure
    function of the float planes, so once a computed state equals the one
    P steps back, the P-cycle of recorded states is copied up to the
    horizon and the trajectory is unchanged. Only computed states are
    matched, keyed on the update's own tuple planes; they are sigmoid
    outputs, finite and never -0.0, so float equality is bit equality
    there, while the initial state may hold -0.0.
    """
    at_least(steps, 1, InvalidParameterError, "steps")
    fam = FAMILY[m.family]
    split, advance, box = fam.split, fam.advance, fam.box
    weights = fam.prepare(*zip(*map(split, m.weights)))
    x_planes = split(m.initial)
    states = [m.initial]
    seen = {}
    for t in range(1, steps + 1):
        x_planes = advance(weights, *x_planes, m.lam)
        first = seen.setdefault(x_planes, t)
        if first != t:
            period = t - first
            while len(states) <= steps:
                states.append(states[-period])
            break
        states.append(box(x_planes))
    return Trajectory(m.family, _Read(states))
