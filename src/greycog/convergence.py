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
from typing import NamedTuple

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
    "Corollary3Result",
    "FggcmReport",
    "UNIQUE",
    "AT_LEAST_ONE",
    "INCONCLUSIVE",
    "Verdict",
    "check_fcm",
    "check_fgcm",
    "check_fggcm",
    "corollary3_check",
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
    DimensionError.
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
    return math.sqrt(math.fsum(x * x for row in rows for x in row))


def w_star(w):
    """Endpoint-magnitude matrix of an interval weight matrix.

    Nonpositive intervals contribute |lo|, nonnegative ones hi. An
    interval straddling zero has no single dominant endpoint, which makes
    the interval criterion inapplicable; that raises MixedSignWeightError
    with 1-based indices. Returns a tuple of row tuples.
    """
    out = []
    for i, row in enumerate(w):
        out_row = []
        for j, cell in enumerate(row):
            if cell.lo < 0.0 < cell.hi:
                raise MixedSignWeightError(i + 1, j + 1)
            out_row.append(abs(cell.lo) if cell.hi <= 0.0 else cell.hi)
        out.append(tuple(out_row))
    return tuple(out)


def check_fcm(w, lam: float) -> Verdict:
    """Crisp criterion: lambda * ||W||_F against 4."""
    lam = positive(lam, InvalidParameterError)
    return _verdict(lam * frobenius_norm(w), 4.0)


def check_fgcm(w, lam: float) -> Verdict:
    """Interval criterion: lambda * ||W*||_F against 4."""
    lam = positive(lam, InvalidParameterError)
    return _verdict(lam * frobenius_norm(w_star(w)), 4.0)


def _activity_shares(row, a, i, n):
    """Row i's activity shares |k_ij * a_j| and their left-to-right sum.

    A row of the wrong length raises DimensionError; a row with no kernel
    activity raises DegenerateRowError with its 1-based index.
    """
    if len(row) != n:
        raise DimensionError("matrix must be square")
    shares = [abs(cell.kernel * a[j]) for j, cell in enumerate(row)]
    denom = 0.0
    for share in shares:
        denom += share
    if denom <= 0.0:
        raise DegenerateRowError(i + 1)
    return shares, denom


def grey_condition_matrix(w, a_hat, a_grey, lam: float):
    """Gated greyness condition matrix at a given kernel/greyness state.

    Entry (i, j) is

        a'_i * |a_hat_j * k_ij| * theta(a_grey_j - g_ij) / sum_j |k_ij * a_hat_j|

    where k_ij / g_ij are weight kernel and greyness, a'_i is the logistic
    image of row i's kernel dot product, and theta is the unit step with
    theta(0) = 1. The gate keeps only columns whose state greyness still
    dominates the weight greyness; those are the terms through which state
    uncertainty propagates to the next step. Returns a tuple of row tuples.
    """
    lam = positive(lam, InvalidParameterError)
    n = len(w)
    if len(a_hat) != n or len(a_grey) != n:
        raise DimensionError("state vectors must match matrix dimension")
    out = []
    for i, row in enumerate(w):
        shares, denom = _activity_shares(row, a_hat, i, n)
        a_prime = sigmoid(dot_lr([c.kernel for c in row], a_hat), lam)
        out.append(tuple(
            a_prime * shares[j] / denom if a_grey[j] - cell.greyness >= 0.0 else 0.0
            for j, cell in enumerate(row)
        ))
    return tuple(out)


class Corollary3Result(NamedTuple):
    """Ungated condition matrix (a tuple of row tuples), its norm, and
    whether the ungated form is valid (state greyness dominates weight
    greyness everywhere)."""

    matrix: tuple
    norm: float
    applicable: bool


def corollary3_check(w, a_t, a_t1, grey_t) -> Corollary3Result:
    """Ungated condition matrix built from two consecutive kernel states.

    Entry (i, j) is a_t1_i * |k_ij * a_t_j| / sum_j |k_ij * a_t_j|. The
    result is the exact greyness transition matrix whenever every state
    greyness dominates the corresponding weight greyness; the applicable
    flag reports that condition at the supplied greyness vector. When the
    matrix norm is below 1 at a kernel fixed point, the greyness converges
    and its fixed point solves g = M g.
    """
    n = len(w)
    if len(a_t) != n or len(a_t1) != n or len(grey_t) != n:
        raise DimensionError("state vectors must match matrix dimension")
    rows = []
    applicable = True
    for i, row in enumerate(w):
        shares, denom = _activity_shares(row, a_t, i, n)
        rows.append(tuple(a_t1[i] * share / denom for share in shares))
        if any(grey_t[j] < cell.greyness for j, cell in enumerate(row)):
            applicable = False
    matrix = tuple(rows)
    return Corollary3Result(matrix, frobenius_norm(matrix), applicable)


@dataclass(frozen=True)
class FggcmReport:
    """Joint convergence report for a kernel/greyness map run."""

    kernel_verdict: Verdict
    greyness_value: float
    greyness_verdict: Verdict
    evaluation_state: tuple
    kernel_converged: bool
    overall: str


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
    greyness_value = frobenius_norm(cond)
    greyness_verdict = _verdict(greyness_value, 1.0)
    return FggcmReport(
        kernel_verdict=kernel_verdict,
        greyness_value=greyness_value,
        greyness_verdict=greyness_verdict,
        evaluation_state=state,
        kernel_converged=cls.verdict == "FixedPoint",
        overall=_combine(kernel_verdict, greyness_verdict),
    )
