"""Convergence checkers.

Three sufficient criteria, one per engine family:

  crisp     lambda * ||W||_F < 4          unique fixed point
  interval  lambda * ||W*||_F < 4         unique fixed point, where W* takes
            the endpoint of largest magnitude (undefined for mixed-sign
            weights)
  kernel/greyness
            kernel part:   lambda * ||what||_F vs 4 (same as crisp)
            greyness part: ||condition matrix||_F vs 1, evaluated at a
            kernel state (converged when available)

All criteria are sufficient, not necessary: Inconclusive means "this test
says nothing", never "diverges".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._core import dot_lr, sigmoid
from ._family import positive
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


@dataclass(frozen=True)
class Verdict:
    criterion_value: float
    threshold: float
    outcome: str


def _verdict(value: float, threshold: float) -> Verdict:
    if abs(value - threshold) <= _EQ_TOL:
        outcome = AT_LEAST_ONE
    elif value < threshold:
        outcome = UNIQUE
    else:
        outcome = INCONCLUSIVE
    return Verdict(float(value), float(threshold), outcome)


def frobenius_norm(m) -> float:
    """Square root of the sum of squared entries of a 2-D nested sequence.

    fsum rounds the sum of squares once, so the value does not depend on
    the order of the entries. An empty, ragged or non-2-D input raises
    DimensionError, an entry that is no number ValidationError.
    """
    try:
        rows = [tuple(row) for row in m]
    except TypeError:
        raise DimensionError("matrix must be a sequence of rows") from None
    widths = {len(row) for row in rows}
    if len(widths) > 1:
        raise DimensionError(f"ragged matrix: row lengths {sorted(widths)}")
    if not rows or not rows[0]:
        raise DimensionError("empty matrix")
    try:
        return math.sqrt(math.fsum(x * x for row in rows for x in row))
    except TypeError:
        raise ValidationError("matrix entries must be numbers") from None


def w_star(w):
    """Endpoint-magnitude matrix of an interval weight matrix.

    Nonpositive intervals contribute |lo|, nonnegative ones hi. An
    interval straddling zero has no single dominant endpoint, which makes
    the interval criterion inapplicable; that raises MixedSignWeightError
    with 1-based indices, a non-`Ign` cell ValidationError, a matrix that
    is no sequence of rows DimensionError. Returns row tuples.
    """
    out = []
    try:
        for i, row in enumerate(w):
            out_row = []
            for j, cell in enumerate(row):
                if cell.lo < 0.0 < cell.hi:
                    raise MixedSignWeightError(i + 1, j + 1)
                out_row.append(abs(cell.lo) if cell.hi <= 0.0 else cell.hi)
            out.append(tuple(out_row))
    except AttributeError:
        raise ValidationError("w_star needs interval (Ign) cells") from None
    except TypeError:
        raise DimensionError("matrix must be a sequence of rows") from None
    return tuple(out)


def check_fcm(w, lam: float) -> Verdict:
    """Crisp criterion: lambda * ||W||_F against 4."""
    lam = positive(lam, InvalidParameterError)
    return _verdict(lam * frobenius_norm(w), 4.0)


def check_fgcm(w, lam: float) -> Verdict:
    """Interval criterion: lambda * ||W*||_F against 4."""
    lam = positive(lam, InvalidParameterError)
    return _verdict(lam * frobenius_norm(w_star(w)), 4.0)


def grey_condition_matrix(w, a_hat, a_grey, lam: float):
    """Greyness condition matrix at a given kernel/greyness state.

    Entry (i, j) is

        a'_i * |a_hat_j * k_ij| * theta(a_grey_j - g_ij) / sum_j |k_ij * a_hat_j|

    where k_ij / g_ij are weight kernel and greyness, a'_i is the logistic
    image of row i's kernel dot product, and theta is the unit step with
    theta(0) = 1. The gate keeps only columns whose state greyness still
    dominates the weight greyness; those are the terms through which state
    uncertainty propagates to the next step.

    With a_grey None every gate is open. That ungated matrix is the exact
    greyness transition matrix wherever every state greyness is >= its
    column's weight greyness; when its norm is below 1 at a kernel fixed
    point, the greyness converges and its fixed point solves g = M g.

    A matrix or state vector that is no sequence, or a row of the wrong
    length, raises DimensionError, a row with no kernel activity
    DegenerateRowError (1-based index), a non-`Ggn` weight or a non-number
    state entry ValidationError. Returns row tuples.
    """
    lam = positive(lam, InvalidParameterError)
    try:
        n = len(w)
        if len(a_hat) != n or (a_grey is not None and len(a_grey) != n):
            raise DimensionError("state vectors must match matrix dimension")
    except TypeError:
        raise DimensionError("the matrix and state vectors must be sequences") from None
    out = []
    try:
        for i, row in enumerate(w):
            if len(row) != n:
                raise DimensionError("matrix must be square")
            kernels = [cell.kernel for cell in row]
            shares = [abs(k * a) for k, a in zip(kernels, a_hat)]
            denom = 0.0
            for share in shares:
                denom += share
            if denom <= 0.0:
                raise DegenerateRowError(i + 1)
            a_prime = sigmoid(dot_lr(kernels, a_hat), lam)
            if a_grey is None:
                out.append(tuple(a_prime * share / denom for share in shares))
            else:
                out.append(tuple(
                    a_prime * share / denom if g - cell.greyness >= 0.0 else 0.0
                    for share, cell, g in zip(shares, row, a_grey)
                ))
    except (AttributeError, TypeError):
        raise ValidationError("condition matrix needs Ggn weights, numeric states") from None
    return tuple(out)


@dataclass(frozen=True)
class FggcmReport:
    """Joint convergence report for a kernel/greyness map run."""

    kernel_verdict: Verdict
    greyness_verdict: Verdict
    evaluation_state: tuple
    kernel_converged: bool
    overall: str

    @property
    def greyness_value(self) -> float:
        """The greyness condition-matrix norm, greyness_verdict.criterion_value."""
        return self.greyness_verdict.criterion_value


def _combine(kernel: Verdict, greyness: Verdict) -> str:
    if kernel.outcome == UNIQUE and greyness.outcome == UNIQUE:
        return UNIQUE
    if INCONCLUSIVE in (kernel.outcome, greyness.outcome):
        return INCONCLUSIVE
    return AT_LEAST_ONE


def check_fggcm(m: Model, traj: Trajectory, cls: Classification) -> FggcmReport:
    """Full report for a kernel/greyness model.

    The kernel criterion is the crisp criterion on the kernel matrix. The
    greyness condition matrix is evaluated at the final recorded state:
    the converged state when cls is a fixed point, otherwise a
    non-authoritative evaluation point, flagged by kernel_converged=False.
    """
    if m.family != "fggcm":
        raise ValidationError(f"expected an fggcm model, got {m.family}")
    if traj.family != "fggcm":
        raise ValidationError(f"expected an fggcm trajectory, got {traj.family}")
    kernel_matrix = [[cell.kernel for cell in row] for row in m.weights]
    kernel_verdict = _verdict(m.lam * frobenius_norm(kernel_matrix), 4.0)
    state = traj.states[-1]
    a_hat = [g.kernel for g in state]
    a_grey = [g.greyness for g in state]
    cond = grey_condition_matrix(m.weights, a_hat, a_grey, m.lam)
    greyness_verdict = _verdict(frobenius_norm(cond), 1.0)
    return FggcmReport(
        kernel_verdict=kernel_verdict,
        greyness_verdict=greyness_verdict,
        evaluation_state=state,
        kernel_converged=cls.verdict == "FixedPoint",
        overall=_combine(kernel_verdict, greyness_verdict),
    )
