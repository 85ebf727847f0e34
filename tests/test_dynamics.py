"""Trajectory metrics and verdicts."""

import math

import pytest
from hypothesis import given, settings, strategies as st

import greycog as gc
import reference
from conftest import (
    EXPECTED_CLASS,
    FGCM_FP_05_HI,
    FGCM_FP_05_LO,
    FGGCM_FINAL_G,
    FGGCM_FINAL_K,
    crisp_trajectory,
)


def successive_distances(traj):
    """Distances between consecutive states under the family metric."""
    s = traj.states
    return [gc.state_distance(traj.family, a, b) for a, b in zip(s, s[1:])]


def test_ggn_metric_is_euclidean_over_both_tracks():
    a = (gc.Ggn(0.0, 0.0),)
    b = (gc.Ggn(0.3, 0.4),)
    assert gc.state_distance("fggcm", a, b) == pytest.approx(0.5, abs=1e-15)


def test_state_distance_dispatches_by_family():
    assert gc.state_distance("fcm", (0.0, 0.0), (3.0, 4.0)) == pytest.approx(5.0)
    a = (gc.Ign(0.0, 0.0),)
    b = (gc.Ign(0.3, 0.4),)
    assert gc.state_distance("fgcm", a, b) == pytest.approx(0.5)


def test_state_distance_rejects_an_unknown_family():
    with pytest.raises(gc.ValidationError, match="unknown family 'x'"):
        gc.state_distance("x", (1.0,), (1.0,))
    # An unhashable name is refused, not hashed.
    with pytest.raises(gc.ValidationError, match=r"unknown family \['fcm'\]"):
        gc.state_distance(["fcm"], (1.0,), (1.0,))


def test_state_distance_rejects_states_of_different_lengths():
    with pytest.raises(gc.DimensionError, match="1 vs 2"):
        gc.state_distance("fcm", (1.0,), (1.0, 1.0))


@pytest.mark.parametrize("family, x", [("fcm", 0.5), ("fgcm", gc.Ign(0.0, 0.5)),
                                       ("fggcm", gc.Ggn(0.5, 0.0))], ids=gc.FAMILIES)
def test_state_distance_rejects_a_state_of_no_cell(family, x):
    # As Trajectory refuses one: a is named first, and only once both
    # states are read.
    for a, b, where in (((), (), "a"), ((), (x,), "a"), ((x,), (), "b")):
        with pytest.raises(gc.DimensionError, match=f"^{where} is a state of no cell$"):
            gc.state_distance(family, a, b)
    with pytest.raises(gc.ValidationError, match=r"^b\[1\]: "):
        gc.state_distance(family, (), (None,))


# States whose cells are not of the named family, which used to raise a
# bare AttributeError or TypeError from inside the metric; a Trajectory
# refuses them when it is built, state_distance when it reads a state.
WRONG_FAMILY_CALLS = {
    "classify fgcm over floats": (lambda: gc.classify(gc.Trajectory("fgcm", ((0.5,),) * 60)),
                                  r"states\[1\]: state\[1\]: fgcm cells"),
    "classify fcm over strings": (lambda: gc.classify(gc.Trajectory("fcm", (("a",),) * 60)),
                                  r"states\[1\]: state\[1\]: expected a number"),
    "state_distance fggcm over floats": (lambda: gc.state_distance("fggcm", (0.5,), (0.5,)),
                                         r"^a\[1\]: fggcm cells"),
}


@pytest.mark.parametrize("call", sorted(WRONG_FAMILY_CALLS))
def test_a_state_of_another_family_raises_a_validation_error(call):
    call, match = WRONG_FAMILY_CALLS[call]
    with pytest.raises(gc.ValidationError, match=match):
        call()


@pytest.mark.parametrize("a, b, where", [
    ((True, 0.0), (0.0, 0.0), r"a\[1\]"), ((0.0, 0.0), (0.0, math.nan), r"b\[2\]"),
    ((math.inf, 0.0), (0.0, 0.0), r"a\[1\]"), ((0.0, math.nan), (0.0, 0.0), r"a\[2\]"),
], ids=["bool", "nan", "inf", "nan in a"])
def test_state_distance_reads_its_states_by_the_number_rule(a, b, where):
    # A refused cell is named by its argument, a or b, and its place.
    with pytest.raises(gc.ValidationError, match=rf"^{where}: "):
        gc.state_distance("fcm", a, b)


# Containers the one sequence rule refuses: bytes-like values read as
# ints, a str as characters, a set in hash order and a dict by its keys.
REFUSED_STATES = {"bytes": b"ab", "bytearray": bytearray(b"ab"), "str": "ab",
                  "set": {0.5, 0.25}, "dict": {0.5: 1, 0.25: 2}}


@pytest.mark.parametrize("a, b", [(5, 5), ((0.5,), 5), (None, (0.5,))] + [
    pytest.param(*((x, (0.5, 0.5)) if where == "a" else ((0.5, 0.5), x)), id=f"{kind} {where}")
    for kind, x in REFUSED_STATES.items() for where in ("a", "b")])
def test_a_state_that_is_no_sequence_raises_a_dimension_error(a, b):
    where = "b" if isinstance(a, tuple) else "a"  # the first argument refused
    with pytest.raises(gc.DimensionError, match=f"^{where} must be a sequence"):
        gc.state_distance("fcm", a, b)


def test_successive_distances_length(web_fcm_05):
    traj = gc.simulate(web_fcm_05, 20)
    d = successive_distances(traj)
    assert len(d) == 20
    assert all(x >= 0.0 for x in d)


def test_classify_requires_enough_states():
    traj = crisp_trajectory([(0.5,)] * 10)
    with pytest.raises(gc.InsufficientDataError):
        gc.classify(traj, max_period=50)


@pytest.mark.parametrize("epsilon", [True, math.inf, 10**400, "1e-8"])
def test_classify_rejects_an_epsilon_that_is_not_a_positive_finite_number(epsilon):
    traj = crisp_trajectory([(0.5,)] * 60)
    with pytest.raises(gc.InvalidParameterError):
        gc.classify(traj, epsilon=epsilon)


@pytest.mark.parametrize("max_period", [1, 2.5, "50"])
def test_classify_rejects_a_max_period_that_is_no_integer_of_at_least_two(max_period):
    traj = crisp_trajectory([(0.5,)] * 60)
    with pytest.raises(gc.InvalidParameterError, match="max_period"):
        gc.classify(traj, max_period=max_period)


def test_classify_constant_tail_is_fixed_point():
    states = [(0.9,), (0.3,)] + [(0.5,)] * 60
    cls = gc.classify(crisp_trajectory(states))
    assert cls.verdict == "FixedPoint"
    assert cls.t_alpha == 2
    assert cls.final_state == (0.5,)


def test_classify_immediate_fix_gives_t_alpha_zero():
    cls = gc.classify(crisp_trajectory([(0.5,)] * 60))
    assert cls.verdict == "FixedPoint"
    assert cls.t_alpha == 0


def test_classify_period_two_alternation():
    states = [(0.1,), (0.9,)] * 30
    cls = gc.classify(crisp_trajectory(states))
    assert cls.verdict == "LimitCycle"
    assert cls.period == 2


def test_classify_prefers_fixed_point_over_period_hit():
    # A constant tail also repeats with period 2; fixed point must win.
    cls = gc.classify(crisp_trajectory([(0.4,)] * 60))
    assert cls.verdict == "FixedPoint"


def test_classify_reports_smallest_period():
    states = [(0.1,), (0.5,), (0.9,)] * 20
    cls = gc.classify(crisp_trajectory(states))
    assert cls.verdict == "LimitCycle"
    assert cls.period == 3


def test_classify_period_cap_controls_the_search():
    states = [(0.1,), (0.5,), (0.9,)] * 20
    cls = gc.classify(crisp_trajectory(states), max_period=2)
    assert cls.verdict == "Chaotic"


def test_classify_noise_is_chaotic():
    # A deterministic scramble with no short recurrence.
    x, states = 0.123, []
    for _ in range(80):
        x = (3.9999 * x * (1.0 - x))
        states.append((x,))
    cls = gc.classify(crisp_trajectory(states))
    assert cls.verdict == "Chaotic"
    assert cls.t_alpha is None and cls.period is None


def test_tightening_epsilon_never_upgrades_to_fixed_point():
    states = [(0.1,), (0.9,)] * 30
    loose = gc.classify(crisp_trajectory(states), epsilon=1e-3)
    tight = gc.classify(crisp_trajectory(states), epsilon=1e-9)
    assert loose.verdict == tight.verdict == "LimitCycle"


@pytest.mark.parametrize("variant", sorted(EXPECTED_CLASS))
@pytest.mark.parametrize("lam", (0.5, 1.0, 2.0, 4.0))
def test_web_regimes(variant, lam):
    traj = gc.simulate(gc.build(variant, lam), 100)
    cls = gc.classify(traj)
    verdict, t_alpha, period = EXPECTED_CLASS[variant][lam]
    assert cls.verdict == verdict
    assert cls.t_alpha == t_alpha
    assert cls.period == period


def test_web_interval_fixed_point_values():
    traj = gc.simulate(gc.build("web_fgcm", 0.5), 100)
    final = traj.states[-1]
    for cell, lo, hi in zip(final, FGCM_FP_05_LO, FGCM_FP_05_HI):
        assert cell.lo == pytest.approx(lo, abs=1e-7)
        assert cell.hi == pytest.approx(hi, abs=1e-7)


@pytest.mark.parametrize("lam", (0.5, 1.0))
def test_web_ggn_fixed_point_values(lam):
    traj = gc.simulate(gc.build("web_fggcm", lam), 100)
    final = traj.states[-1]
    for cell, k, g in zip(final, FGGCM_FINAL_K[lam], FGGCM_FINAL_G[lam]):
        assert cell.kernel == pytest.approx(k, abs=1e-7)
        assert cell.greyness == pytest.approx(g, abs=1e-7)


def test_web_ggn_tail_contracts(web_fggcm_05):
    traj = gc.simulate(web_fggcm_05, 100)
    d = successive_distances(traj)
    # Past the transient the step sizes shrink monotonically until the
    # state locks bitwise, after which they stay at exactly zero.
    for t in range(30, len(d) - 1):
        if d[t] == 0.0:
            assert d[t + 1] == 0.0
        else:
            assert d[t + 1] < d[t]


# Near-equal values sit beside random ones. A Trajectory refuses a NaN
# cell, so no gap is NaN.
cell_value = st.one_of(st.sampled_from([0.0, 0.5, 0.5 + 1e-9, 1.0]),
                       st.floats(min_value=0.0, max_value=1.0, width=64))


@st.composite
def crisp_runs(draw):
    dim = draw(st.integers(1, 2))
    cell = st.lists(cell_value, min_size=dim, max_size=dim).map(tuple)
    prefix = draw(st.lists(cell, max_size=20))
    kind = draw(st.sampled_from(["constant", "cycle", "noise"]))
    if kind == "noise":
        return prefix + draw(st.lists(cell, min_size=1, max_size=40))
    k = 1 if kind == "constant" else draw(st.integers(2, 6))
    base = draw(st.lists(cell, min_size=k, max_size=k))
    return prefix + [base[i % k] for i in range(draw(st.integers(1, 40)))]


@settings(max_examples=400, deadline=None)
@given(crisp_runs(), st.sampled_from([1e-12, 1e-8, 1e-3, 0.3]), st.integers(2, 12))
def test_classify_matches_the_full_gap_reference(states, eps, max_period):
    # The reference measures each gap with its own distance, so a fault in
    # the family metric shows too.
    traj = crisp_trajectory(states)
    want = reference.classify(states, eps, max_period)
    if want is None:
        with pytest.raises(gc.InsufficientDataError):
            gc.classify(traj, eps, max_period)
        return
    got = gc.classify(traj, eps, max_period)
    assert repr((got.verdict, got.t_alpha, got.period, got.final_state)) == repr(want)
