"""Trajectory metrics and classification.

A trajectory tail is a fixed point when successive states stop moving, a
limit cycle when states repeat with some period P >= 2, and chaotic
otherwise. Chaos is a residual verdict, not a positive test: there is no
operational chaos criterion here beyond "neither of the other two".
"""

from __future__ import annotations

from ._family import FAMILY, Record, at_least, family_of, positive, vector
from .cogmap import Trajectory
from .errors import (
    DimensionError,
    InsufficientDataError,
    InvalidParameterError,
    ValidationError,
)

__all__ = [
    "Classification",
    "classify",
    "state_distance",
]


def state_distance(family: str, a, b) -> float:
    """Family metric: Euclidean over every float field of the cells (the
    value; lo and hi; kernel and greyness). a, then b, is read by
    `_family.vector` under the family's `cell` rule, which raises
    DimensionError for a state that is no sequence and ValidationError
    for a cell of another family (a bool, NaN or inf crisp cell too), each
    error naming the argument (`b[2]: ...`); then a state of no cell, a
    first, and states of different lengths raise DimensionError."""
    fam = family_of(family, ValidationError)
    a, b = vector(a, fam.cell, "a"), vector(b, fam.cell, "b")
    if not (a and b):
        raise DimensionError(f"{'b' if a else 'a'} is a state of no cell")
    if len(a) != len(b):
        raise DimensionError(f"state lengths differ: {len(a)} vs {len(b)}")
    return fam.distance(a, b)


class Classification(Record):
    """Verdict for one trajectory.

    verdict is one of FixedPoint, LimitCycle, Chaotic. t_alpha is the
    first index from which the defining condition holds through the end of
    the recorded trajectory; period is set for limit cycles only;
    final_state is set for fixed points only.
    """

    __slots__ = __match_args__ = ("verdict", "t_alpha", "period", "final_state")

    def __init__(self, verdict: str, t_alpha: int | None, period: int | None,
                 final_state: tuple | None):
        super().__init__(verdict, t_alpha, period, final_state)


def classify(traj: Trajectory, epsilon: float = 1e-8, max_period: int = 50) -> Classification:
    """Classify a trajectory tail.

    Fixed point: there is a minimal t_alpha with
    distance(states[t+1], states[t]) <= epsilon for every t >= t_alpha up
    to the end. Limit cycle: no fixed point, but some smallest period
    P in [2, max_period] has distance(states[t+P], states[t]) <= epsilon
    from a minimal t_alpha through the end. Otherwise chaotic.

    A fixed point is a period-1 cycle, so lag 1 is tested first and wins;
    the period search starts at 2. Each lag's tail is scanned backwards
    from the end and stops at the first gap above epsilon, so only the
    tail is measured. `Trajectory` holds only finite cells of its family,
    so every gap is a number >= 0 (inf where a difference overflows), never
    NaN. An epsilon or max_period its rule refuses raises
    InvalidParameterError.
    """
    epsilon = positive(epsilon, InvalidParameterError, "epsilon")
    at_least(max_period, 2, InvalidParameterError, "max_period")
    states = traj.states
    if len(states) < max_period + 2:
        raise InsufficientDataError(
            f"need at least {max_period + 2} states to search periods up to "
            f"{max_period}, got {len(states)}"
        )
    # Trajectory states hold cells of its family, all of one length, so the
    # metric runs unchecked.
    dist = FAMILY[traj.family].distance
    end = len(states) - 1
    for lag in range(1, max_period + 1):
        if dist(states[end - lag], states[end]) > epsilon:
            continue
        t = end - lag - 1
        while t >= 0 and dist(states[t], states[t + lag]) <= epsilon:
            t -= 1
        if lag == 1:
            return Classification("FixedPoint", t + 1, None, states[-1])
        return Classification("LimitCycle", t + 1, lag, None)
    return Classification("Chaotic", None, None, None)
