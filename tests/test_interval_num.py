"""Interval numbers and the interval engine's arithmetic."""

import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

import reference
from greycog import Ign, MalformedInputError, _core
from greycog._core import interval_dot_lr
from conftest import activate


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


# A state interval that is negative or straddles zero, as a model file's
# initial state may be, against each weight sign pattern.
@pytest.mark.parametrize("w, x, expected", [
    ((-0.5, 0.25), (-0.4, 0.8), (-0.4, 0.2)),
    ((-0.5, 0.25), (-0.5, -0.25), (-0.125, 0.25)),
    ((0.25, 0.5), (-0.5, 0.25), (-0.25, 0.125)),
    ((0.25, 0.5), (-0.5, -0.25), (-0.25, -0.0625)),
    ((-0.5, -0.25), (-0.5, 0.25), (-0.125, 0.25)),
    ((-0.5, -0.25), (-0.5, -0.25), (0.0625, 0.25)),
    ((-0.5, -0.5), (-0.25, 0.75), (-0.375, 0.125)),
])
def test_mul_negative_or_straddling_state_is_exact(w, x, expected):
    # Power-of-two weights scale exactly, so every product and sum is exact.
    assert interval_dot_lr([w[0]], [w[1]], [x[0]], [x[1]]) == expected


# Magnitudes: the zeros, subnormals and the normal floor beside ordinary
# values; states reach the largest finite doubles.
TINY = [0.0, 5e-324, 2.2250738585072014e-308]
weight_mag = st.one_of(st.sampled_from(TINY + [1.0]), st.floats(0.0, 1.0))
state_mag = st.one_of(st.sampled_from(TINY + [1e308]), st.floats(0.0, 1.0),
                      st.floats(0.0, allow_infinity=False))


def ordered(magnitude):
    """An interval as (lo, hi) in each sign pattern: both ends >= 0, both
    <= 0, straddling zero, or one point of either sign. Negating a zero
    magnitude gives -0.0."""
    patterns = {
        "nonnegative": lambda a, b: (a, b),
        "nonpositive": lambda a, b: (-b, -a),
        "straddling": lambda a, b: (-a, b),
        "point": lambda a, b: (b, b),
        "negative point": lambda a, b: (-b, -b),
    }
    return st.tuples(st.sampled_from(sorted(patterns)), magnitude, magnitude).map(
        lambda t: patterns[t[0]](*sorted(t[1:])))


def bits(pair):
    return tuple(struct.pack("<d", v) for v in pair)


@settings(max_examples=400)
@given(st.lists(st.tuples(ordered(weight_mag), ordered(state_mag)), min_size=1, max_size=6))
def test_endpoint_selection_is_the_four_product_min_max_bit_for_bit(terms):
    planes = ([w[0] for w, _ in terms], [w[1] for w, _ in terms],
              [x[0] for _, x in terms], [x[1] for _, x in terms])
    assert bits(interval_dot_lr(*planes)) == bits(reference.interval_dot(*zip(*terms)))


# A state interval with 0 <= lo <= hi, as every state after step 0 is:
# either end may be +0.0 or -0.0, and some are points.
nonneg_end = st.one_of(st.sampled_from([0.0, -0.0]), state_mag)
nonneg_state = st.one_of(nonneg_end.map(lambda x: (x, x)),
                         st.tuples(nonneg_end, nonneg_end).map(lambda t: tuple(sorted(t))))


@settings(max_examples=400)
@given(st.lists(st.tuples(ordered(weight_mag), nonneg_state), min_size=1, max_size=6))
def test_one_product_per_end_is_the_four_product_min_max_bit_for_bit(terms):
    # The update's row sum, read with the activation made the identity.
    planes = ([w[0] for w, _ in terms], [w[1] for w, _ in terms],
              [x[0] for _, x in terms], [x[1] for _, x in terms])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_core, "sigmoids", lambda xs, lam: list(xs))
        (lo,), (hi,) = _core.interval_next(_core.blocks([planes[0]], [planes[1]]), *planes[2:],
                                           1.0)
    assert bits((lo, hi)) == bits(reference.interval_dot(*zip(*terms)))


@settings(max_examples=300)
@given(st.tuples(st.integers(1, 9), st.integers(1, 4)).flatmap(lambda shape: st.tuples(
    st.lists(st.lists(ordered(weight_mag), min_size=shape[1], max_size=shape[1]),
             min_size=shape[0], max_size=shape[0]),
    st.lists(st.one_of(nonneg_state, ordered(state_mag)), min_size=shape[1], max_size=shape[1]))))
def test_each_step_sums_each_row_as_the_four_product_search(case):
    # The update's row sums, read with the activation made the identity; a
    # state with a negative lo must take the general selection, and only
    # such a state. Up to nine rows: several row blocks and every remainder.
    w, x = case
    w_lo, w_hi = [[c[0] for c in row] for row in w], [[c[1] for c in row] for row in w]
    x_lo, x_hi = [c[0] for c in x], [c[1] for c in x]
    general = []

    def spy(*planes):
        general.append(True)
        return interval_dot_lr(*planes)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_core, "sigmoids", lambda xs, lam: list(xs))
        mp.setattr(_core, "interval_dot_lr", spy)
        lo, hi = _core.interval_next(_core.blocks(w_lo, w_hi), x_lo, x_hi, 1.0)
    assert bool(general) == (min(x_lo) < 0.0)
    assert len(lo) == len(hi) == len(w)
    for i in range(len(w)):
        assert bits((lo[i], hi[i])) == bits(reference.interval_dot(w[i], x))


def interleaved_map(w_lo, w_hi):
    """The crisp 2n x 2n matrix B of an interval map, for states
    interleaved (lo_1, hi_1, lo_2, hi_2, ...): low row i holds l_ij in
    column lo_j if l_ij >= 0, else in hi_j; high row i holds h_ij in
    column hi_j if h_ij >= 0, else in lo_j; the other column holds +0.0."""
    rows = []
    for lo_row, hi_row in zip(w_lo, w_hi):
        low = [0.0] * (2 * len(lo_row))
        high = low[:]
        for j, (l, h) in enumerate(zip(lo_row, hi_row)):
            low[2 * j if l >= 0.0 else 2 * j + 1] = l
            high[2 * j + 1 if h >= 0.0 else 2 * j] = h
        rows += low, high
    return rows


# Ends of a state after step 0 (lo >= 0, -0.0 included), up to magnitudes
# at which nine rows of weights in [-1, 1] cannot overflow a row sum.
bounded_end = st.one_of(st.sampled_from(TINY + [-0.0]), st.floats(0.0, 1.0),
                        st.floats(0.0, 1e300))


@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.lists(st.lists(ordered(weight_mag), min_size=n, max_size=n), min_size=n, max_size=n),
    st.lists(st.tuples(bounded_end, bounded_end).map(sorted), min_size=n, max_size=n))),
    st.floats(0.01, 40.0))
def test_the_interval_map_is_the_crisp_map_on_its_interleaved_matrix(case, lam):
    # At a state whose every lo is >= 0, the interval update is the crisp
    # update on B bit for bit: the nonzero terms keep their order, and the
    # zero terms add +-0.0 to sums that start at +0.0. The crisp map
    # activates each end alone, so its low end is the smaller of the two
    # and its high end the larger.
    w, x = case
    w_lo, w_hi = [[c[0] for c in row] for row in w], [[c[1] for c in row] for row in w]
    x_lo, x_hi = [c[0] for c in x], [c[1] for c in x]
    lo, hi = _core.interval_next(_core.blocks(w_lo, w_hi), x_lo, x_hi, lam)
    (both,) = _core.crisp_next(_core.blocks(interleaved_map(w_lo, w_hi)),
                               [v for pair in x for v in pair], lam)
    assert ((bits(tuple(map(min, both[0::2], both[1::2]))),
             bits(tuple(map(max, both[0::2], both[1::2])))) == (bits(lo), bits(hi)))


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
