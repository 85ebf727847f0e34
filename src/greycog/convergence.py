"""Convergence checkers.

One Banach contraction bound, lambda * ||M||_F < 4 (unique fixed point),
gives a sufficient criterion for each engine family:

  crisp     M = W
  interval  M = W*, which takes the endpoint of largest magnitude
            (undefined for mixed-sign weights)
  kernel/greyness
            kernel part:   M = the kernel matrix K
            greyness part: ||condition matrix||_F vs 1, evaluated at a
            kernel state (converged when available)

All criteria are sufficient, not necessary: Inconclusive means "this test
says nothing", never "diverges".
"""

from __future__ import annotations

import math

from ._core import dot_lr, sigmoids
from ._family import FAMILY, Record, matrix, number, positive, vector
from .cogmap import Model, Trajectory
from .dynamics import Classification
from .errors import (
    DegenerateRowError,
    DimensionError,
    InvalidParameterError,
    MixedSignWeightError,
    ValidationError,
)

__all__ = [
    "FggcmReport",
    "UNIQUE",
    "AT_LEAST_ONE",
    "INCONCLUSIVE",
    "Verdict",
    "check_fcm",
    "check_fgcm",
    "check_fggcm",
    "frobenius_norm",
    "grey_condition_matrix",
    "w_star",
]

UNIQUE = "UniqueFixedPoint"
AT_LEAST_ONE = "AtLeastOneFixedPoint"
INCONCLUSIVE = "Inconclusive"

# Boundary detection band. The equality case ("at least one fixed point")
# is a measure-zero boundary; the band is kept tiny so it cannot swallow
# nearby strict verdicts.
_EQ_TOL = 1e-12


class Verdict(Record):
    """A criterion value against its threshold. outcome is set from the
    two: AT_LEAST_ONE within _EQ_TOL of the threshold, else UNIQUE below
    it and INCONCLUSIVE above."""

    __slots__ = ("criterion_value", "threshold", "outcome")
    __match_args__ = __slots__[:2]

    def __init__(self, criterion_value: float, threshold: float):
        outcome = (AT_LEAST_ONE if abs(criterion_value - threshold) <= _EQ_TOL
                   else UNIQUE if criterion_value < threshold else INCONCLUSIVE)
        super().__init__(criterion_value, threshold, outcome)


def frobenius_norm(m) -> float:
    """Square root of the sum of squared entries of m, read by
    `_family.matrix` under `number`. fsum rounds the sum of squares once,
    so the value does not depend on the order of the entries. A sum of
    squares beyond the float range, or below 2**-969 (subnormal squares
    lose bits), is summed again over the entries scaled by a power of two,
    so the result is inf only for a norm beyond the float range and 0.0
    only for a zero matrix."""
    return _frobenius(matrix(m, number, "matrix"))


def _frobenius(rows) -> float:
    """`frobenius_norm` of rows already read."""
    try:
        total = math.fsum(x * x for row in rows for x in row)
    except OverflowError:
        total = math.inf
    if 2.0 ** -969 <= total < math.inf:
        return math.sqrt(total)
    e = math.frexp(max(abs(x) for row in rows for x in row))[1]
    scaled = math.sqrt(math.fsum(math.ldexp(x, -e) ** 2 for row in rows for x in row))
    try:
        return math.ldexp(scaled, e)
    except OverflowError:
        return math.inf


def w_star(w):
    """Endpoint-magnitude matrix of an interval weight matrix.

    Nonpositive intervals contribute |lo|, nonnegative ones hi. An
    interval straddling zero has no single dominant endpoint, which makes
    the interval criterion inapplicable; that raises MixedSignWeightError
    with 1-based indices. w is read by `_family.matrix` with the fgcm cell
    rule, as a square matrix. Returns row tuples.
    """
    w = matrix(w, FAMILY["fgcm"].cell, "w", square=True)
    for i, row in enumerate(w, 1):
        for j, cell in enumerate(row, 1):
            if cell.lo < 0.0 < cell.hi:
                raise MixedSignWeightError(i, j)
    return tuple(tuple(abs(c.lo) if c.hi <= 0.0 else c.hi for c in row) for row in w)


def _banach(lam: float, rows) -> Verdict:
    """The one contraction criterion: lambda * ||M||_F against 4, M's rows read."""
    return Verdict(lam * _frobenius(rows), 4.0)


def check_fcm(w, lam: float) -> Verdict:
    """Crisp criterion: the Banach bound on a square W, read as by `frobenius_norm`."""
    lam = positive(lam, InvalidParameterError)
    return _banach(lam, matrix(w, number, "matrix", square=True))


def check_fgcm(w, lam: float) -> Verdict:
    """Interval criterion: the Banach bound on W*, as `w_star` reads w."""
    lam = positive(lam, InvalidParameterError)
    return _banach(lam, w_star(w))


def grey_condition_matrix(w, a_hat, a_grey, lam: float):
    """Greyness condition matrix at a given kernel/greyness state.

    Entry (i, j) is

        a'_i * |a_hat_j * k_ij| * theta(a_grey_j - g_ij) / sum_j |k_ij * a_hat_j|

    where k_ij / g_ij are weight kernel and greyness, a'_i is the logistic
    image of row i's kernel dot product, and theta is the unit step with
    theta(0) = 1. The gate keeps only columns whose state greyness still
    dominates the weight greyness; those are the terms through which state
    uncertainty propagates to the next step.

    With a_grey None every state greyness is inf, so every gate is open.
    That ungated matrix is the exact greyness transition matrix wherever
    every state greyness is >= its column's weight greyness; when its norm
    is below 1 at a kernel fixed point, the greyness converges and its
    fixed point solves g = M g.

    The state vectors are read first, by `_family.vector` under `number`,
    then w, by `_family.matrix` as a square matrix of fggcm cells; state
    vectors of unequal lengths, or not of w's, raise DimensionError, a row
    with no kernel activity DegenerateRowError (1-based). Returns row tuples.
    """
    lam = positive(lam, InvalidParameterError)
    a_hat = vector(a_hat, number, "a_hat")
    a_grey = (math.inf,) * len(a_hat) if a_grey is None else vector(a_grey, number, "a_grey")
    if len(a_grey) != len(a_hat):
        raise DimensionError(f"state vectors differ in length: {len(a_hat)} vs {len(a_grey)}")
    w = matrix(w, FAMILY["fggcm"].cell, "w", square=True)
    if len(w) != len(a_hat):
        raise DimensionError(f"state vectors have length {len(a_hat)}, the matrix {len(w)}")
    return _condition_rows(*zip(*map(FAMILY["fggcm"].split, w)), a_hat, a_grey, lam)


def _condition_rows(kernels, greys, a_hat, a_grey, lam):
    """`grey_condition_matrix` over arguments already read: the weight rows
    as the kernel and greyness planes of `FAMILY["fggcm"].split`, then the state."""
    out = []
    for i, (k_row, g_row) in enumerate(zip(kernels, greys), 1):
        shares = [abs(k * a) for k, a in zip(k_row, a_hat)]
        denom = 0.0
        for share in shares:
            denom += share
        if denom <= 0.0:
            raise DegenerateRowError(i)
        a_prime = sigmoids((dot_lr(k_row, a_hat),), lam)[0]
        out.append(tuple(a_prime * share / denom if g - wg >= 0.0 else 0.0
                         for share, wg, g in zip(shares, g_row, a_grey)))
    return tuple(out)


class FggcmReport(Record):
    """Joint convergence report for a kernel/greyness map run. overall is
    set from the two verdicts: UNIQUE when both are, else INCONCLUSIVE
    when either is, else AT_LEAST_ONE."""

    __slots__ = ("kernel_verdict", "greyness_verdict", "evaluation_state",
                 "kernel_converged", "overall")
    __match_args__ = __slots__[:4]

    def __init__(self, kernel_verdict: Verdict, greyness_verdict: Verdict,
                 evaluation_state: tuple, kernel_converged: bool):
        outcomes = {kernel_verdict.outcome, greyness_verdict.outcome}
        overall = (UNIQUE if outcomes == {UNIQUE}
                   else INCONCLUSIVE if INCONCLUSIVE in outcomes else AT_LEAST_ONE)
        super().__init__(kernel_verdict, greyness_verdict, evaluation_state,
                         kernel_converged, overall)

    @property
    def greyness_value(self) -> float:
        """The greyness condition-matrix norm, greyness_verdict.criterion_value."""
        return self.greyness_verdict.criterion_value


def check_fggcm(m: Model, traj: Trajectory, cls: Classification) -> FggcmReport:
    """Full report for a kernel/greyness model.

    The model's weights are split once into kernel and greyness planes:
    the kernel criterion is the crisp criterion on the kernel plane; both
    build the greyness condition matrix at the final recorded state:
    the converged state when cls is a fixed point, otherwise a
    non-authoritative evaluation point, flagged by kernel_converged=False.
    That state is read by `_family.vector` with the fggcm cell rule, so a
    cell that is no `Ggn` raises ValidationError naming state[j].
    """
    if m.family != "fggcm":
        raise ValidationError(f"expected an fggcm model, got {m.family}")
    if traj.family != "fggcm":
        raise ValidationError(f"expected an fggcm trajectory, got {traj.family}")
    kernels, greys = zip(*map(FAMILY["fggcm"].split, m.weights))
    kernel_verdict = _banach(m.lam, kernels)
    state = vector(traj.states[-1], FAMILY["fggcm"].cell, "state", ValidationError)
    if len(state) != m.n:
        raise DimensionError(f"state vectors have length {len(state)}, the matrix {m.n}")
    cond = _condition_rows(kernels, greys, *FAMILY["fggcm"].split(state), m.lam)
    return FggcmReport(
        kernel_verdict=kernel_verdict,
        greyness_verdict=Verdict(_frobenius(cond), 1.0),
        evaluation_state=state,
        kernel_converged=cls.verdict == "FixedPoint",
    )
