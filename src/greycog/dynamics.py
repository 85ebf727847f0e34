"""Trajectory metrics and classification.

A trajectory tail is a fixed point when successive states stop moving, a
limit cycle when states repeat with some period P >= 2, and chaotic
otherwise. Chaos is a residual verdict, not a positive test: there is no
operational chaos criterion here beyond "neither of the other two".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cogmap import Trajectory
from .errors import DimensionError, InsufficientDataError, InvalidParameterError

__all__ = [
    "Classification",
    "classify",
    "ggn_metric",
    "state_distance",
    "successive_distances",
]


def ggn_metric(a, b) -> float:
    """Euclidean distance over (kernel, greyness) pairs."""
    if len(a) != len(b):
        raise DimensionError(f"state lengths differ: {len(a)} vs {len(b)}")
    s = 0.0
    for x, y in zip(a, b):
        dk = x.kernel - y.kernel
        dg = x.greyness - y.greyness
        s += dk * dk + dg * dg
    return math.sqrt(s)


def _crisp_dist(a, b) -> float:
    s = 0.0
    for x, y in zip(a, b):
        d = x - y
        s += d * d
    return math.sqrt(s)


def _interval_dist(a, b) -> float:
    s = 0.0
    for x, y in zip(a, b):
        dl = x.lo - y.lo
        dh = x.hi - y.hi
        s += dl * dl + dh * dh
    return math.sqrt(s)


def state_distance(family: str, a, b) -> float:
    """Family metric: plain Euclidean for crisp states, Euclidean over
    (lo, hi) endpoint pairs for intervals, kernel/greyness metric for
    general grey states."""
    if len(a) != len(b):
        raise DimensionError(f"state lengths differ: {len(a)} vs {len(b)}")
    if family == "fcm":
        return _crisp_dist(a, b)
    if family == "fgcm":
        return _interval_dist(a, b)
    return ggn_metric(a, b)


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
    last gap never starts one.
    """
    if not epsilon > 0.0:
        raise InvalidParameterError(f"epsilon must be > 0, got {epsilon}")
    if not (isinstance(max_period, int) and max_period >= 2):
        raise InvalidParameterError(f"max_period must be an integer >= 2, got {max_period}")
    states = traj.states
    if len(states) < max_period + 2:
        raise InsufficientDataError(
            f"need at least {max_period + 2} states to search periods up to "
            f"{max_period}, got {len(states)}"
        )
    fam = traj.family
    end = len(states) - 1

    for lag in range(1, max_period + 1):
        if not state_distance(fam, states[end - lag], states[end]) <= epsilon:
            continue
        t = end - lag - 1
        while t >= 0 and not state_distance(fam, states[t], states[t + lag]) > epsilon:
            t -= 1
        if lag == 1:
            return Classification("FixedPoint", t + 1, None, states[-1], epsilon, max_period)
        return Classification("LimitCycle", t + 1, lag, None, epsilon, max_period)

    return Classification("Chaotic", None, None, None, epsilon, max_period)


def successive_distances(traj: Trajectory):
    """Distances between consecutive states under the family metric."""
    states = traj.states
    if len(states) < 2:
        raise InsufficientDataError("need at least two states")
    return [
        state_distance(traj.family, states[t], states[t + 1])
        for t in range(len(states) - 1)
    ]
