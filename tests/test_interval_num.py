"""Interval numbers and the interval engine's arithmetic."""

import math

import pytest

from greycog import Ign, MalformedInputError, Model, simulate
from greycog._core import interval_dot_lr


def activate(cell, lam):
    """The interval engine's activation of one cell: a one-step run of the
    one-node map whose weight is [1, 1], so the row sum is the cell."""
    m = Model("fgcm", 1, ("a",), ((Ign(1.0, 1.0),),), (cell,), lam)
    return simulate(m, 1).states[1][0]


def test_interval_orders_endpoints_strictly():
    with pytest.raises(MalformedInputError):
        Ign(0.5, 0.4)


def test_interval_rejects_non_finite():
    with pytest.raises(MalformedInputError):
        Ign(0.0, math.inf)


def test_width():
    assert Ign(-0.91, -0.89).width == pytest.approx(0.02)


def test_add():
    # Unit weights: the interval dot is the endpoint sum of the intervals.
    lo, hi = interval_dot_lr([1.0, 1.0], [1.0, 1.0], [-0.91, 0.99], [-0.89, 1.00])
    assert lo == pytest.approx(0.08)
    assert hi == pytest.approx(0.11)


def test_mul_negative_by_positive():
    lo, hi = interval_dot_lr([-0.91], [-0.89], [0.99], [1.00])
    assert lo == pytest.approx(-0.91)
    assert hi == pytest.approx(-0.8811)


def test_mul_straddling_zero():
    lo, hi = interval_dot_lr([-0.1], [0.1], [0.99], [1.00])
    assert lo == pytest.approx(-0.1)
    assert hi == pytest.approx(0.1)


def test_dot_row():
    lo, hi = interval_dot_lr([1.0, -1.0], [1.0, -1.0], [0.2, 0.1], [0.4, 0.3])
    assert lo == pytest.approx(-0.1)
    assert hi == pytest.approx(0.3)


def test_sigmoid_preserves_order_and_bounds():
    out = activate(Ign(-2.0, 3.0), 1.5)
    assert 0.0 < out.lo < out.hi < 1.0
    assert out.lo == pytest.approx(1.0 / (1.0 + math.exp(3.0)), abs=1e-15)
    assert out.hi == pytest.approx(1.0 / (1.0 + math.exp(-4.5)), abs=1e-15)


def test_sigmoid_width_never_grows_beyond_quarter_slope():
    x = Ign(-0.3, 0.7)
    lam = 2.0
    out = activate(x, lam)
    assert out.width <= lam / 4.0 * x.width + 1e-15


def test_degenerate_interval_behaves_like_scalar():
    x = Ign(0.37, 0.37)
    out = activate(x, 1.0)
    assert out.lo == out.hi
