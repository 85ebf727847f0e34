"""Contraction tests on norms, gates, and the report combiner."""

import math
import random

import pytest

import greycog as gc
from greycog import convergence
from conftest import (
    NORM_KERNEL,
    NORM_KERNEL_MC,
    NORM_W,
    NORM_WSTAR,
    ORACLE_MFULL,
    ORACLE_MTILDE,
    PRINTED_IGN,
    WEB_W,
)


def test_frobenius_norm_crisp_web():
    assert gc.frobenius_norm(WEB_W) == pytest.approx(NORM_W, abs=1e-12)


def test_frobenius_norm_rejects_empty():
    for m in ((), ((),), [[], []]):
        with pytest.raises(gc.DimensionError):
            gc.frobenius_norm(m)


@pytest.mark.parametrize("m", [[[1.0, 2.0], [3.0]], [[1.0], [2.0, 3.0]], [[1.0], []],
                               [3.0, 4.0]])
def test_frobenius_norm_rejects_ragged_or_flat(m):
    with pytest.raises(gc.DimensionError):
        gc.frobenius_norm(m)


def test_frobenius_norm_is_order_independent():
    # Summed left to right, 1e16 + 1 + 1 rounds to 1e16 but 1 + 1 + 1e16
    # is exact; fsum rounds the exact sum once, whatever the order.
    exact = math.sqrt(1e16 + 2.0)
    assert gc.frobenius_norm([[1e8, 1.0, 1.0]]) == exact
    assert gc.frobenius_norm([[1.0], [1.0], [1e8]]) == exact


def test_frobenius_norm_is_inf_only_beyond_the_float_range():
    # Squares beyond the float range are summed again over entries scaled
    # by a power of two; a finite norm comes back exact.
    assert gc.frobenius_norm([[1e200]]) == 1e200
    assert gc.frobenius_norm([[-1e200], [1e-300]]) == 1e200
    # The correctly rounded sqrt(2) * 1e154 (math.sqrt(2.0) * 1e154 rounds twice).
    assert gc.frobenius_norm([[1e154, 1e154]]) == 1.414213562373095e154
    assert gc.frobenius_norm([[3.0 * 2.0 ** 1000, 4.0 * 2.0 ** 1000]]) == 5.0 * 2.0 ** 1000
    assert gc.frobenius_norm([[1.5e308, 1.5e308]]) == math.inf
    v = gc.check_fcm([[1e154, 1e154], [0.0, 0.0]], 1.0)
    assert v.outcome == gc.INCONCLUSIVE and v.criterion_value == 1.414213562373095e154


def test_frobenius_norm_is_zero_only_for_a_zero_matrix():
    # Squares below the normal float range lose bits or vanish, so a sum
    # that small is taken again over entries scaled by a power of two.
    assert gc.frobenius_norm([[1e-200]]) == 1e-200
    assert gc.frobenius_norm([[3e-162, 4e-162]]) == 5e-162
    assert gc.frobenius_norm([[5e-324]]) == 5e-324
    assert gc.frobenius_norm([[1e-160, 1e-160]]) == math.hypot(1e-160, 1e-160)
    assert gc.frobenius_norm([[0.0, -0.0], [0.0, 0.0]]) == 0.0


def test_w_star_takes_largest_endpoint_magnitude():
    w = ((gc.Ign(-0.91, -0.89), gc.Ign(0.2, 0.4)),
         (gc.Ign(0.0, 0.0), gc.Ign(-0.5, -0.1)))
    ws = gc.w_star(w)
    assert ws == ((0.91, 0.4), (0.0, 0.5))


def test_w_star_rejects_sign_straddling_weight():
    w = ((gc.Ign(-0.2, 0.3),),)
    with pytest.raises(gc.MixedSignWeightError) as exc:
        gc.w_star(w)
    assert exc.value.i == 1 and exc.value.j == 1


def test_w_star_web_norm():
    w = tuple(tuple(gc.Ign(lo, hi) for lo, hi in row) for row in PRINTED_IGN)
    assert gc.frobenius_norm(gc.w_star(w)) == pytest.approx(NORM_WSTAR, abs=1e-12)


def test_kernel_norms():
    m = gc.build("web_fggcm", 1.0)
    k = tuple(tuple(c.kernel for c in row) for row in m.weights)
    assert gc.frobenius_norm(k) == pytest.approx(NORM_KERNEL, abs=1e-12)
    m2 = gc.build("web_case2_fggcm", 1.0)
    k2 = tuple(tuple(c.kernel for c in row) for row in m2.weights)
    assert gc.frobenius_norm(k2) == pytest.approx(NORM_KERNEL_MC, abs=1e-12)


def test_crisp_verdict_unique_below_threshold():
    v = gc.check_fcm(WEB_W, 0.5)
    assert v.criterion_value == pytest.approx(0.5 * NORM_W, abs=1e-12)
    assert v.threshold == 4.0
    assert v.outcome == gc.UNIQUE


def test_crisp_verdict_inconclusive_above_threshold():
    assert gc.check_fcm(WEB_W, 1.0).outcome == gc.INCONCLUSIVE


def test_verdict_boundary_counts_as_at_least_one():
    w = ((1.0,),)
    assert gc.check_fcm(w, 4.0).outcome == gc.AT_LEAST_ONE


def test_verdict_just_inside_boundary_band():
    w = ((1.0,),)
    assert gc.check_fcm(w, 4.0 + 1e-13).outcome == gc.AT_LEAST_ONE
    assert gc.check_fcm(w, 4.1).outcome == gc.INCONCLUSIVE


def test_interval_verdict_uses_endpoint_magnitudes():
    w = ((gc.Ign(-0.91, -0.89),),)
    v = gc.check_fgcm(w, 2.0)
    assert v.criterion_value == pytest.approx(2.0 * 0.91, abs=1e-15)
    assert v.outcome == gc.UNIQUE


def test_single_node_condition_matrix():
    w = ((gc.Ggn(0.5, 0.1),),)
    m = gc.grey_condition_matrix(w, (1.0,), (0.2,), 1.0)
    a1 = 1.0 / (1.0 + math.exp(-0.5))
    # Gate open (state greyness 0.2 >= weight greyness 0.1), share is 1.
    assert m[0][0] == pytest.approx(a1, abs=1e-15)


def test_condition_matrix_gate_closes_on_sharper_state():
    w = ((gc.Ggn(0.5, 0.1),),)
    m = gc.grey_condition_matrix(w, (1.0,), (0.05,), 1.0)
    assert m[0][0] == 0.0


def test_condition_matrix_gate_ties_stay_open():
    w = ((gc.Ggn(0.5, 0.1),),)
    m = gc.grey_condition_matrix(w, (1.0,), (0.1,), 1.0)
    assert m[0][0] > 0.0


def test_condition_matrix_degenerate_row():
    w = ((gc.Ggn(0.0, 0.0), gc.Ggn(1.0, 0.0)),
         (gc.Ggn(0.0, 0.0), gc.Ggn(0.0, 0.0)))
    with pytest.raises(gc.DegenerateRowError) as exc:
        gc.grey_condition_matrix(w, (1.0, 0.0), (0.0, 0.0), 1.0)
    assert exc.value.i == 1  # first row dies: its only live weight meets a zero state


def test_condition_matrix_rejects_mismatched_dimensions():
    w = ((gc.Ggn(0.5, 0.1), gc.Ggn(0.5, 0.1)), (gc.Ggn(0.5, 0.1),))
    with pytest.raises(gc.DimensionError, match="state vectors"):
        gc.grey_condition_matrix(w, (1.0,), (0.1, 0.1), 1.0)
    with pytest.raises(gc.DimensionError, match="square"):
        gc.grey_condition_matrix(w, (1.0, 1.0), (0.1, 0.1), 1.0)
    square = ((gc.Ggn(0.5, 0.1), gc.Ggn(0.5, 0.1)),) * 2
    for a_grey in ((0.1, 0.1, 0.1), None):
        with pytest.raises(gc.DimensionError,
                           match=r"^state vectors have length 3, the matrix 2$"):
            gc.grey_condition_matrix(square, (1.0, 1.0, 1.0), a_grey, 1.0)


# Inputs of the wrong number family, which used to raise a bare
# AttributeError or TypeError from inside the loops, and state entries that
# are no finite number: a NaN greyness used to close its column's gate
# silently (the norm at these states fell from 0.5512 to 0.5095), a NaN
# kernel escaped as the engine's MalformedInputError, and a bool passed as 1.
WEB_FGGCM = gc.build("web_fggcm", 1.0).weights
WRONG_FAMILY_CALLS = {
    "w_star of crisp weights": lambda: gc.w_star(WEB_W),
    "condition matrix of crisp weights": lambda: gc.grey_condition_matrix(
        WEB_W, (0.5,) * 7, (0.1,) * 7, 1.0),
    "condition matrix at a string kernel": lambda: gc.grey_condition_matrix(
        WEB_FGGCM, (0.5,) * 6 + ("0.5",), (0.1,) * 7, 1.0),
    "condition matrix at a string greyness": lambda: gc.grey_condition_matrix(
        WEB_FGGCM, (0.5,) * 7, (0.1,) * 6 + ("0.1",), 1.0),
    "condition matrix at a NaN kernel": lambda: gc.grey_condition_matrix(
        WEB_FGGCM, (0.5, 0.5, math.nan) + (0.5,) * 4, (0.01,) * 7, 1.0),
    "condition matrix at a NaN kernel, ungated": lambda: gc.grey_condition_matrix(
        WEB_FGGCM, (0.5, 0.5, math.nan) + (0.5,) * 4, None, 1.0),
    "condition matrix at a NaN greyness": lambda: gc.grey_condition_matrix(
        WEB_FGGCM, (0.5,) * 7, (0.01, 0.01, math.nan) + (0.01,) * 4, 1.0),
    "condition matrix at a bool kernel": lambda: gc.grey_condition_matrix(
        WEB_FGGCM, (0.5,) * 6 + (True,), (0.01,) * 7, 1.0),
    "condition matrix at a bool greyness": lambda: gc.grey_condition_matrix(
        WEB_FGGCM, (0.5,) * 7, (0.01,) * 6 + (False,), 1.0),
    "check_fcm of interval weights": lambda: gc.check_fcm(
        gc.build("web_fgcm", 1.0).weights, 1.0),
    # Every matrix entry passes the number rule: a NaN used to give a NaN
    # norm and an Inconclusive verdict, a bool counted as 1, and an integer
    # too large for a float leaked an OverflowError.
    "norm of a NaN entry": lambda: gc.frobenius_norm([[math.nan]]),
    "norm of an infinite entry": lambda: gc.frobenius_norm([[1.0, math.inf]]),
    "norm of a bool entry": lambda: gc.frobenius_norm([[True]]),
    "norm of an integer too large for a float": lambda: gc.frobenius_norm([[10**400]]),
    "norm of a str entry": lambda: gc.frobenius_norm([["x"]]),
    "check_fcm of a NaN weight": lambda: gc.check_fcm([[math.nan]], 1.0),
    # fcm_step reads its arguments the same way; a str weight used to leak
    # a TypeError and a bool weight counted as 1.
    "fcm_step of a str weight": lambda: gc.fcm_step([["a"]], [0.5], 1.0),
    "fcm_step of a bool weight": lambda: gc.fcm_step([[True]], [0.5], 1.0),
    "fcm_step at a NaN state": lambda: gc.fcm_step([[0.5]], [math.nan], 1.0),
}


@pytest.mark.parametrize("call", sorted(WRONG_FAMILY_CALLS))
def test_a_criterion_given_the_wrong_cells_raises_a_validation_error(call):
    with pytest.raises(gc.ValidationError):
        WRONG_FAMILY_CALLS[call]()


# Arguments that are no sequence at all, which used to raise a bare
# TypeError from iterating or taking the length, and matrices of no
# usable shape, which used to come back as they were.
NON_SEQUENCE_CALLS = {
    "w_star of a number": lambda: gc.w_star(5),
    "condition matrix at a number state": lambda: gc.grey_condition_matrix(
        WEB_FGGCM, 5, None, 1.0),
    "condition matrix of a number": lambda: gc.grey_condition_matrix(5, (0.5,), None, 1.0),
    "w_star of a ragged matrix": lambda: gc.w_star(
        ((gc.Ign(0.1, 0.2),), (gc.Ign(0.1, 0.2), gc.Ign(0.1, 0.2)))),
    "w_star of an empty matrix": lambda: gc.w_star([]),
    "condition matrix of an empty matrix": lambda: gc.grey_condition_matrix([], [], None, 1.0),
    "fcm_step of a number": lambda: gc.fcm_step(5, [0.5], 1.0),
    "fcm_step at a number state": lambda: gc.fcm_step([[0.5]], 5, 1.0),
    # A bytes-like value is refused, not read as a sequence of ints.
    "norm of a bytes row": lambda: gc.frobenius_norm([b"ab"]),
    "fcm_step of a bytes row": lambda: gc.fcm_step([b"\x01"], [0.5], 1.0),
    "fcm_step at a bytearray state": lambda: gc.fcm_step([[0.5]], bytearray(b"\x01"), 1.0),
    "condition matrix at a memoryview state": lambda: gc.grey_condition_matrix(
        ((gc.Ggn(0.5, 0.1),),), memoryview(b"\x01"), None, 1.0),
    # A set or a mapping is refused, not read in hash order or by its keys.
    "fcm_step at a dict state": lambda: gc.fcm_step([[0.5, 0.5]] * 2, {0.2: 1, 0.1: 2}, 1.0),
    "fcm_step at a set state": lambda: gc.fcm_step([[0.5, 0.5]] * 2, {0.2, 0.1}, 1.0),
    "norm of a frozenset row": lambda: gc.frobenius_norm([frozenset({0.5, 0.25})]),
    # A str is refused, not read as its characters.
    "norm of a str": lambda: gc.frobenius_norm("x"),
    "norm of a str row": lambda: gc.frobenius_norm(["ab"]),
    "fcm_step at a str state": lambda: gc.fcm_step([[0.5]], "ab", 1.0),
}


@pytest.mark.parametrize("call", sorted(NON_SEQUENCE_CALLS))
def test_a_criterion_given_no_sequence_raises_a_dimension_error(call):
    with pytest.raises(gc.DimensionError):
        NON_SEQUENCE_CALLS[call]()


# A criterion certifies a map and a step advances one, so each reads a
# square matrix: a 1x2 matrix used to get UniqueFixedPoint, and fcm_step
# took a 3-node state through a 2x3 matrix into 2 nodes. frobenius_norm
# stays general (see test_frobenius_norm_is_order_independent).
NON_SQUARE_CALLS = {
    "check_fcm of a wide matrix": lambda: gc.check_fcm([[0.1, 0.2]], 1.0),
    "check_fcm of a tall matrix": lambda: gc.check_fcm([[0.1], [0.2]], 1.0),
    "check_fgcm of a wide matrix": lambda: gc.check_fgcm(
        [[gc.Ign(0.1, 0.2), gc.Ign(0.1, 0.3)]], 1.0),
    "w_star of a tall matrix": lambda: gc.w_star([[gc.Ign(0.1, 0.2)], [gc.Ign(0.1, 0.3)]]),
    "fcm_step of a wide matrix": lambda: gc.fcm_step(((0.1, 0.2, 0.3),) * 2, (0.5,) * 3, 1.0),
}


@pytest.mark.parametrize("call", sorted(NON_SQUARE_CALLS))
def test_a_map_reader_given_a_non_square_matrix_raises_a_dimension_error(call):
    with pytest.raises(gc.DimensionError, match="must be square"):
        NON_SQUARE_CALLS[call]()


def test_a_refused_matrix_entry_is_named_by_its_place():
    w = ((0.1, 0.2, 0.3), (0.1, 0.2, math.nan), (0.1, 0.2, 0.3))
    with pytest.raises(gc.ValidationError, match=r"matrix\[2\]\[3\]: non-finite"):
        gc.frobenius_norm(w)
    with pytest.raises(gc.ValidationError, match=r"w\[2\]\[3\]: non-finite"):
        gc.fcm_step(w, (0.5,) * 3, 1.0)
    cells = tuple(tuple(gc.Ign(v, v) for v in row) for row in WEB_W)
    cells = cells[:1] + ((cells[1][0], 0.5) + cells[1][2:],) + cells[2:]
    with pytest.raises(gc.ValidationError, match=r"w\[2\]\[2\]: fgcm cells"):
        gc.w_star(cells)
    with pytest.raises(gc.ValidationError, match=r"w\[1\]\[1\]: fggcm cells"):
        gc.grey_condition_matrix(cells, (0.5,) * 7, None, 1.0)


def ungated_applies(w, greys):
    """The ungated matrix is exact when no weight greyness exceeds its
    column's state greyness."""
    return all(g >= cell.greyness for row in w for g, cell in zip(greys, row))


def test_single_node_ungated_matrix():
    w = ((gc.Ggn(0.5, 0.1),),)
    a1 = 1.0 / (1.0 + math.exp(-0.5))
    m = gc.grey_condition_matrix(w, (1.0,), None, 1.0)
    assert m[0][0] == pytest.approx(a1, abs=1e-12)
    assert gc.frobenius_norm(m) == pytest.approx(a1, abs=1e-12)
    # State greyness 0 below weight greyness: the gate closes, and the
    # ungated form does not apply.
    assert gc.grey_condition_matrix(w, (1.0,), (0.0,), 1.0)[0][0] == 0.0
    assert ungated_applies(w, (0.0,)) is False


def test_ungated_matrix_applicability_flag():
    w = ((gc.Ggn(0.5, 0.1),),)
    assert ungated_applies(w, (0.3,)) is True
    # Where it applies, every gate is open and the two forms agree.
    assert (gc.grey_condition_matrix(w, (1.0,), (0.3,), 1.0)
            == gc.grey_condition_matrix(w, (1.0,), None, 1.0))


@pytest.mark.parametrize("lam", (0.5, 1.0, 2.0, 4.0))
def test_web_condition_norms(lam):
    m = gc.build("web_fggcm", lam)
    traj = gc.simulate(m, 100)
    cls = gc.classify(traj)
    state = cls.final_state if cls.verdict == "FixedPoint" else traj.states[-1]
    kernels = tuple(c.kernel for c in state)
    greys = tuple(c.greyness for c in state)
    mt = gc.grey_condition_matrix(m.weights, kernels, greys, lam)
    assert gc.frobenius_norm(mt) == pytest.approx(ORACLE_MTILDE[lam], abs=1e-12)
    full = gc.grey_condition_matrix(m.weights, kernels, None, lam)
    assert gc.frobenius_norm(full) == pytest.approx(ORACLE_MFULL[lam], abs=1e-12)
    # Weight greyness in the map outranks some state greyness.
    assert ungated_applies(m.weights, greys) is False


def test_full_report_structure(web_fggcm_05):
    traj = gc.simulate(web_fggcm_05, 100)
    cls = gc.classify(traj)
    rep = gc.check_fggcm(web_fggcm_05, traj, cls)
    assert rep.kernel_verdict.outcome == gc.UNIQUE
    assert rep.greyness_value == pytest.approx(ORACLE_MTILDE[0.5], abs=1e-12)
    assert rep.greyness_value == rep.greyness_verdict.criterion_value
    with pytest.raises(AttributeError):
        rep.greyness_value = 0.0  # read-only: it cannot disagree with the verdict
    assert rep.greyness_verdict.outcome == gc.UNIQUE
    assert rep.greyness_verdict.threshold == 1.0
    assert rep.kernel_converged is True
    assert rep.overall == gc.UNIQUE


def test_report_at_the_kernel_boundary_is_at_least_one_fixed_point():
    # lambda * ||K||_F = 4 * 1 sits on the threshold; the 1x1 greyness
    # matrix a'_1 < 1 stays unique.
    m = gc.Model("fggcm", ("a",), ((gc.Ggn(1.0, 0.0),),), (gc.Ggn(0.5, 0.0),), 4.0)
    traj = gc.simulate(m, 100)
    rep = gc.check_fggcm(m, traj, gc.classify(traj))
    assert rep.kernel_verdict.outcome == gc.AT_LEAST_ONE
    assert rep.greyness_verdict.outcome == gc.UNIQUE
    assert rep.overall == gc.AT_LEAST_ONE


def test_report_rejects_a_model_or_trajectory_of_another_family(web_fggcm_05):
    traj = gc.simulate(web_fggcm_05, 60)
    cls = gc.classify(traj)
    crisp = gc.build("web_fcm", 0.5)
    with pytest.raises(gc.ValidationError, match="fggcm model"):
        gc.check_fggcm(crisp, traj, cls)
    with pytest.raises(gc.ValidationError, match="fggcm trajectory"):
        gc.check_fggcm(web_fggcm_05, gc.simulate(crisp, 60), cls)
    # An fggcm-labelled trajectory of crisp cells: the state is read by the fggcm cell rule.
    with pytest.raises(gc.ValidationError, match=r"state\[1\]: fggcm cells"):
        gc.check_fggcm(web_fggcm_05, gc.Trajectory("fggcm", ((0.5,) * 7,)), cls)


def test_report_combiner_degrades_with_components():
    m = gc.build("web_fggcm", 1.0)
    traj = gc.simulate(m, 100)
    rep = gc.check_fggcm(m, traj, gc.classify(traj))
    # Kernel criterion 6.117 > 4 at unit steepness, greyness norm still < 1.
    assert rep.kernel_verdict.outcome == gc.INCONCLUSIVE
    assert rep.greyness_verdict.outcome == gc.UNIQUE
    assert rep.overall == gc.INCONCLUSIVE


@pytest.mark.parametrize("value, outcome", [
    (3.9, gc.UNIQUE), (4.0, gc.AT_LEAST_ONE), (4.0 - 1e-13, gc.AT_LEAST_ONE),
    (5.0, gc.INCONCLUSIVE), (math.nan, gc.INCONCLUSIVE),
])
def test_a_verdict_sets_its_outcome_from_value_and_threshold(value, outcome):
    v = gc.Verdict(value, 4.0)
    assert v.outcome == outcome
    assert f"outcome={outcome!r}" in repr(v)
    with pytest.raises(TypeError):
        gc.Verdict(5.0, 4.0, gc.UNIQUE)  # a hand-built verdict cannot claim one
    with pytest.raises(AttributeError):
        v.outcome = gc.UNIQUE
    assert v.outcome == outcome


@pytest.mark.parametrize("kernel, greyness, overall", [
    (1.0, 0.5, gc.UNIQUE), (4.0, 0.5, gc.AT_LEAST_ONE), (1.0, 1.0, gc.AT_LEAST_ONE),
    (4.0, 1.0, gc.AT_LEAST_ONE), (5.0, 0.5, gc.INCONCLUSIVE), (1.0, 2.0, gc.INCONCLUSIVE),
    (5.0, 1.0, gc.INCONCLUSIVE), (4.0, 2.0, gc.INCONCLUSIVE), (5.0, 2.0, gc.INCONCLUSIVE),
])
def test_a_report_sets_overall_from_its_two_verdicts(kernel, greyness, overall):
    rep = gc.FggcmReport(gc.Verdict(kernel, 4.0), gc.Verdict(greyness, 1.0), (), True)
    assert rep.overall == overall
    assert f"overall={overall!r}" in repr(rep)
    with pytest.raises(AttributeError):
        rep.overall = gc.UNIQUE
    assert rep.overall == overall


def test_every_contraction_check_applies_the_one_banach_bound(monkeypatch, web_fggcm_05):
    calls = []

    def recording(lam, m):
        calls.append(lam)
        return banach(lam, m)

    banach = convergence._banach
    monkeypatch.setattr(convergence, "_banach", recording)
    traj = gc.simulate(web_fggcm_05, 60)
    gc.check_fcm(WEB_W, 0.5)
    gc.check_fgcm(gc.build("web_fgcm", 0.5).weights, 0.5)
    gc.check_fggcm(web_fggcm_05, traj, gc.classify(traj))
    assert calls == [0.5, 0.5, 0.5]


def test_the_interval_check_tests_lambda_before_the_matrix():
    with pytest.raises(gc.InvalidParameterError):
        gc.check_fgcm(5, -1.0)
    with pytest.raises(gc.InvalidParameterError):
        gc.check_fgcm(((gc.Ign(-0.1, 0.1),),), 0.0)


def random_cell_matrix(n, cell):
    return tuple(tuple(cell() for _ in range(n)) for _ in range(n))


@pytest.mark.parametrize("seed", range(40))
def test_the_interval_check_is_the_norm_of_w_star_bit_for_bit(seed):
    # check_fgcm sums the W* it builds without reading it again; the value
    # must be the public functions' composition exactly.
    rng = random.Random(seed)
    n = rng.randint(1, 12)

    def cell():
        x, h = rng.uniform(-1.0, 1.0), rng.uniform(0.0, 0.2)
        return gc.Ign(*sorted((x, min(max(x + math.copysign(h, x), -1.0), 1.0))))

    w = random_cell_matrix(n, cell)
    lam = rng.choice([0.05, 0.5, 1.0, 3.0])
    assert gc.check_fgcm(w, lam).criterion_value == lam * gc.frobenius_norm(gc.w_star(w))


@pytest.mark.parametrize("seed", range(40))
def test_the_kernel_report_is_the_public_norms_bit_for_bit(seed):
    # check_fggcm neither reads the Model's kernels again nor the condition
    # matrix it builds; both values must equal the public functions'.
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    w = random_cell_matrix(n, lambda: gc.Ggn(rng.uniform(-1.0, 1.0), rng.uniform(0.0, 0.1)))
    initial = [gc.Ggn(rng.uniform(-1.0, 1.0), rng.uniform(0.0, 0.2)) for _ in range(n)]
    m = gc.Model("fggcm", [f"n{i}" for i in range(n)], w, initial, rng.choice([0.3, 1.0, 2.5]))
    traj = gc.simulate(m, 60)
    rep = gc.check_fggcm(m, traj, gc.classify(traj))
    kernels = [[c.kernel for c in row] for row in w]
    state = traj.states[-1]
    cond = gc.grey_condition_matrix(w, [g.kernel for g in state], [g.greyness for g in state],
                                    m.lam)
    assert rep.kernel_verdict.criterion_value == m.lam * gc.frobenius_norm(kernels)
    assert rep.greyness_verdict.criterion_value == gc.frobenius_norm(cond)


def test_the_report_refuses_a_final_state_of_another_length(web_fggcm_05):
    traj = gc.simulate(web_fggcm_05, 60)
    cls = gc.classify(traj)
    for state in (traj.states[-1][:-1], traj.states[-1] + (gc.Ggn(0.5, 0.0),)):
        with pytest.raises(gc.DimensionError, match=f"state vectors have length {len(state)}, "
                                                    "the matrix 7"):
            gc.check_fggcm(web_fggcm_05, gc.Trajectory("fggcm", (state,)), cls)
