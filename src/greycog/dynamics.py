"""Trajectory metrics and classification.

A trajectory tail is a fixed point when successive states stop moving, a
limit cycle when states repeat with some period P >= 2, and chaotic
otherwise. Chaos is a residual verdict, not a positive test: there is no
operational chaos criterion here beyond "neither of the other two".
"""

from __future__ import annotations

from dataclasses import dataclass

from ._family import FAMILY, positive
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
    value; lo and hi; kernel and greyness)."""
    fam = FAMILY.get(family)
    if fam is None:
        raise ValidationError(f"unknown family {family!r}")
    if len(a) != len(b):
        raise DimensionError(f"state lengths differ: {len(a)} vs {len(b)}")
    return fam.distance(a, b)


@dataclass(frozen=True)
class Classification:
    """Verdict for one trajectory.

    verdict is one of FixedPoint, LimitCycle, Chaotic. t_alpha is the
    first index from which the defining condition holds through the end of
    the recorded trajectory; period is set for limit cycles only;
    final_state is set for fixed points only.
    """

    verdict: str
    t_alpha: int | None
    period: int | None
    final_state: tuple | None
    epsilon: float
    max_period: int


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
    tail is measured. A NaN gap never stops the backward scan, and a NaN
    last gap never starts one. epsilon must be a finite number > 0, not a
    bool, else InvalidParameterError.
    """
    epsilon = positive(epsilon, InvalidParameterError, "epsilon")
    if not (isinstance(max_period, int) and max_period >= 2):
        raise InvalidParameterError(f"max_period must be an integer >= 2, got {max_period}")
    states = traj.states
    if len(states) < max_period + 2:
        raise InsufficientDataError(
            f"need at least {max_period + 2} states to search periods up to "
            f"{max_period}, got {len(states)}"
        )
    # Trajectory states all have one length, so the metric runs unchecked.
    dist = FAMILY[traj.family].distance
    end = len(states) - 1

    for lag in range(1, max_period + 1):
        if not dist(states[end - lag], states[end]) <= epsilon:
            continue
        t = end - lag - 1
        while t >= 0 and not dist(states[t], states[t + lag]) > epsilon:
            t -= 1
        if lag == 1:
            return Classification("FixedPoint", t + 1, None, states[-1], epsilon, max_period)
        return Classification("LimitCycle", t + 1, lag, None, epsilon, max_period)

    return Classification("Chaotic", None, None, None, epsilon, max_period)
