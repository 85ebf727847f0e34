"""Model validation and the three update engines."""

import json
import math
import random

import pytest

import greycog as gc
from greycog import _core, cogmap
from greycog._family import FAMILY
from conftest import (
    FCM_FIRST_05,
    FGCM_FIRST_05_HI,
    FGCM_FIRST_05_LO,
    FGGCM_FIRST_05_G,
    FGGCM_FIRST_05_K,
    LAMBDAS,
    collections_inside,
    dense_fggcm_doc,
    family_with,
)
import golden


def test_unit_crisp_step():
    # One node, unit weight: next activation is the sigmoid of the current.
    out = gc.fcm_step(((1.0,),), (1.0,), 1.0)
    assert out[0] == pytest.approx(0.7310585786300049, abs=1e-15)


def test_crisp_step_has_no_self_memory():
    # Zero weights mean the previous state is forgotten entirely.
    w = ((0.0, 0.0), (0.0, 0.0))
    out = gc.fcm_step(w, (0.9, 0.1), 2.0)
    assert out == (0.5, 0.5)


def test_crisp_step_uses_rows_as_incoming_edges():
    # w[i][j] feeds node i from node j, not the transpose.
    w = ((0.0, 1.0), (0.0, 0.0))
    out = gc.fcm_step(w, (0.0, 1.0), 1.0)
    assert out[0] == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), abs=1e-15)
    assert out[1] == 0.5


def test_step_rejects_nonpositive_steepness():
    with pytest.raises(gc.InvalidParameterError):
        gc.fcm_step(((0.5,),), (0.5,), -1.0)


# Each entry point that takes a steepness, called on a one-node input it accepts.
LAMBDA_ENTRY_POINTS = {
    "fcm_step": lambda lam: gc.fcm_step(((0.5,),), (0.5,), lam),
    "check_fcm": lambda lam: gc.check_fcm(((0.5,),), lam),
    "check_fgcm": lambda lam: gc.check_fgcm(((gc.Ign(0.1, 0.2),),), lam),
    "grey_condition_matrix": lambda lam: gc.grey_condition_matrix(
        ((gc.Ggn(0.5, 0.1),),), (0.5,), (0.1,), lam),
    "build": lambda lam: gc.build("web_fcm", lam),
}
BAD_LAMBDAS = pytest.mark.parametrize(
    "lam", [math.inf, math.nan, True, 10**400, 0, -1],
    ids=["inf", "nan", "True", "10**400", "0", "-1"])


@BAD_LAMBDAS
@pytest.mark.parametrize("entry", LAMBDA_ENTRY_POINTS)
def test_every_lambda_entry_point_rejects_a_bad_lambda(entry, lam):
    with pytest.raises(gc.InvalidParameterError, match="lambda"):
        LAMBDA_ENTRY_POINTS[entry](lam)


@BAD_LAMBDAS
def test_model_rejects_a_bad_lambda(lam):
    with pytest.raises(gc.ValidationError, match="lambda"):
        gc.Model("fcm", ("a",), ((0.5,),), (0.5,), lam)


def test_step_rejects_row_length_mismatch():
    with pytest.raises(gc.DimensionError, match="state length"):
        gc.fcm_step(((0.5, 0.1), (0.2, 0.3)), (0.5,), 1.0)


def test_web_first_iterate_crisp(web_fcm_05):
    out = gc.fcm_step(web_fcm_05.weights, web_fcm_05.initial, 0.5)
    for got, want in zip(out, FCM_FIRST_05):
        assert got == pytest.approx(want, abs=1e-7)


def test_web_first_iterate_interval():
    m = gc.build("web_fgcm", 0.5)
    out = gc.simulate(m, 1).states[1]
    for cell, lo, hi in zip(out, FGCM_FIRST_05_LO, FGCM_FIRST_05_HI):
        assert cell.lo == pytest.approx(lo, abs=1e-7)
        assert cell.hi == pytest.approx(hi, abs=1e-7)


def test_web_first_iterate_ggn(web_fggcm_05):
    out = gc.simulate(web_fggcm_05, 1).states[1]
    for cell, k, g in zip(out, FGGCM_FIRST_05_K, FGGCM_FIRST_05_G):
        assert cell.kernel == pytest.approx(k, abs=1e-7)
        assert cell.greyness == pytest.approx(g, abs=1e-7)


def test_simulate_returns_initial_plus_steps(web_fcm_05):
    traj = gc.simulate(web_fcm_05, 10)
    assert len(traj.states) == 11
    assert traj.states[0] == web_fcm_05.initial
    assert traj.steps == 10
    assert traj.family == "fcm"


def test_simulate_rejects_zero_steps(web_fcm_05):
    with pytest.raises(gc.InvalidParameterError):
        gc.simulate(web_fcm_05, 0)


# Every update activates its row sums through `_core.sigmoids`, one value
# per row: once in fcm and fggcm, once per endpoint in fgcm.
SIGMOIDS_PER_ROW = {"fcm": 1, "fgcm": 2, "fggcm": 1}


def count_activations(monkeypatch):
    """A list that grows by one entry per value `_core.sigmoids` activates."""
    sigmoids = _core.sigmoids
    calls = []

    def counting(xs, lam):
        xs = list(xs)
        calls.extend([None] * len(xs))
        return sigmoids(xs, lam)

    monkeypatch.setattr(_core, "sigmoids", counting)
    return calls


@pytest.mark.parametrize("variant", ["web_fcm", "web_fgcm", "web_fggcm"])
def test_simulate_stops_computing_at_the_first_exact_repeat(variant, monkeypatch):
    # At lambda 0.5 the web map is a contraction in every family, so the
    # float iteration lands on an exact fixed point long before T=1000.
    m = gc.build(variant, 0.5)
    calls = count_activations(monkeypatch)
    traj = gc.simulate(m, 1000)
    per_row = SIGMOIDS_PER_ROW[m.family]
    assert len(calls) % per_row == 0
    rows = calls[::per_row]
    updates = len(rows) // m.n
    assert len(rows) == updates * m.n
    assert updates < 100
    assert len(traj.states) == 1001
    assert traj.states[updates:] == (traj.states[updates - 1],) * (1001 - updates)


# A cell of each family from a value in [-0.5, 0.5]; fgcm states stay
# non-negative, so every update takes the blocked row sums.
CELL = {"fcm": float, "fgcm": lambda v: gc.Ign(v, v + 0.25), "fggcm": lambda v: gc.Ggn(v, 0.25)}


@pytest.mark.parametrize("family", gc.FAMILIES)
@pytest.mark.parametrize("n", range(1, 10))
def test_each_update_activates_and_returns_exactly_the_real_rows(family, n, monkeypatch):
    # The kernels sum rows in blocks and fill the last block with zero
    # rows, which must be neither activated nor returned.
    fam = FAMILY[family]
    rng = random.Random(n)
    cell = CELL[family]
    weights = [[cell(rng.uniform(-0.5, 0.5)) for _ in range(n)] for _ in range(n)]
    state = [cell(rng.uniform(0.0, 0.5)) for _ in range(n)]
    calls = count_activations(monkeypatch)
    planes = fam.advance(fam.prepare(*zip(*map(fam.split, weights))), *fam.split(state), 1.0)
    assert len(calls) == SIGMOIDS_PER_ROW[family] * n
    assert [len(p) for p in planes] == [n] * len(fam.fields)


@pytest.mark.parametrize("steps", [1, 3, 200])
def test_the_weights_are_prepared_once_per_run_and_per_fcm_step(steps, monkeypatch):
    # The weights do not change during a run: `simulate` calls its
    # family's `prepare` once, whatever the horizon, and `fcm_step` builds
    # the blocks once per call.
    calls = []

    def counting(prepare):
        def wrapped(*planes):
            calls.append(None)
            return prepare(*planes)
        return wrapped

    for family in gc.FAMILIES:
        fam = FAMILY[family]
        monkeypatch.setitem(FAMILY, family, family_with(fam, prepare=counting(fam.prepare)))
        calls.clear()
        gc.simulate(gc.build(f"web_{family}", 5.0), steps)
        assert len(calls) == 1, family
    monkeypatch.setattr(cogmap, "blocks", counting(_core.blocks))
    m = gc.build("web_fcm", 5.0)
    calls.clear()
    for _ in range(steps):
        gc.fcm_step(m.weights, m.initial, m.lam)
    assert len(calls) == steps


def test_interval_run_rejects_an_overflowing_dot_product():
    # The sigmoid would map the infinite sum to a valid-looking [1, 1].
    big = gc.Ign(1e308, 1e308)
    one = gc.Ign(1.0, 1.0)
    m = gc.Model("fgcm", ("a", "b"), ((one, one), (one, one)), (big, big), 1.0)
    with pytest.raises(gc.MalformedInputError):
        gc.simulate(m, 1)

    # The crisp and kernel engines follow the same rule. Row 1 overflows;
    # clipped, it would read 1.0 (and greyness 0). Row 2 cancels to 0.
    kg = gc.Ggn
    for family, w, a in (
        ("fcm", ((1.0, 1.0), (-1.0, 1.0)), (1e308, 1e308)),
        ("fggcm", ((kg(1.0, 0.0), kg(1.0, 0.0)), (kg(-1.0, 0.0), kg(1.0, 0.0))),
         (kg(1e308, 0.0), kg(1e308, 0.0))),
    ):
        m = gc.Model(family, ("a", "b"), w, a, 1.0)
        with pytest.raises(gc.MalformedInputError):
            gc.simulate(m, 1)
    with pytest.raises(gc.MalformedInputError):
        gc.fcm_step(((1.0, 1.0), (-1.0, 1.0)), (1e308, 1e308), 1.0)


@pytest.mark.parametrize("entry", ["load_model", "parse_model", "simulate"])
def test_no_collection_starts_inside_a_dense_build(tmp_path, entry):
    # A dense n = 100 fggcm document is about 10,000 JSON dicts, its model
    # as many cells, and a 100-step run adds n cells a state: tens of young
    # collections' worth, but none of it is a reference cycle, so the
    # collector is paused for these calls.
    doc = dense_fggcm_doc(4)
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(doc))
    call, *args = {"load_model": (gc.load_model, path),
                   "parse_model": (gc.parse_model, doc),
                   "simulate": (gc.simulate, gc.parse_model(doc), 100)}[entry]
    _, started = collections_inside(call, *args)
    assert started == []


def test_kernel_run_rejects_an_overflowing_greyness_mass():
    # The kernel sums cancel to 0 and the weighted mass stays finite, but
    # the |kernel product| mass overflows: over it, the greyness would
    # read 0.0 where the rule gives 0.25.
    w = ((gc.Ggn(1, 0.5), gc.Ggn(-1, 0.5)),) * 2
    m = gc.Model("fggcm", ("a", "b"), w, (gc.Ggn(1e308, 0.5),) * 2, 1.0)
    with pytest.raises(gc.MalformedInputError, match="greyness mass sum must be finite"):
        gc.simulate(m, 1)


@pytest.mark.parametrize("weight,initial", [(gc.Ggn(1.0, 1e308), gc.Ggn(1.0, 0.0)),
                                            (gc.Ggn(-1.0, 1e308), gc.Ggn(500.0, 0.0))],
                         ids=["inf", "nan"])
def test_kernel_run_rejects_an_overflowing_weighted_greyness_mass(weight, initial):
    # The kernel sums and the |kernel product| mass stay finite, but the
    # weighted mass overflows: over it, the greyness would read inf, or nan
    # where the kernel's activation underflows to 0.0.
    m = gc.Model("fggcm", ("a", "b"), ((weight, weight),) * 2, (initial, initial), 1.0)
    with pytest.raises(gc.MalformedInputError,
                       match="^greyness mass sum must be finite, got inf$"):
        gc.simulate(m, 1)


def test_an_interval_run_keeps_each_end_in_order_where_the_float_logistic_crosses_them():
    # The two-branch logistic is not monotone in floats: at step 81 this
    # map's row sums are -0.1782899797899277 <= -0.17828997978992767, and it
    # maps them to 0.2908107098342506 > 0.29081070983425056. Each low end is
    # the smaller of its node's two activated ends and each high end the
    # larger, so step 82 holds the two, in order.
    w = -0.6130791396628591
    m = gc.Model("fgcm", ("c0",), ((gc.Ign(w, w),),), (gc.Ign(0.0, 1.0),), 5.0)
    states = gc.simulate(m, 200).states
    assert len(states) == 201
    assert all(c.lo <= c.hi for s in states for c in s)
    assert states[82] == (gc.Ign(0.29081070983425056, 0.2908107098342506),)


def test_the_crisp_runs_from_both_interval_ends_stay_inside_the_interval_run():
    # Each end's crisp image is one of the node's two activated ends, which
    # the interval step orders, so where they cross (step 82 of this map)
    # the run still holds both. A member strictly inside an interval can
    # still escape, since the float logistic is not monotone.
    w = -0.6130791396628591
    m = gc.Model("fgcm", ("c0",), ((gc.Ign(w, w),),), (gc.Ign(0.0, 1.0),), 5.0)
    interval = gc.simulate(m, 200).states
    for end in (0.0, 1.0):
        crisp = gc.simulate(gc.Model("fcm", ("c0",), ((w,),), (end,), 5.0), 200).states
        assert len(crisp) == len(interval) == 201
        assert all(i.lo <= c <= i.hi for (c,), (i,) in zip(crisp, interval))


def test_model_rejects_out_of_range_crisp_weight():
    with pytest.raises(gc.ValidationError):
        gc.Model("fcm", ("a",), ((1.5,),), (0.0,), 1.0)


def test_model_rejects_wrong_family_cells():
    with pytest.raises(gc.ValidationError):
        gc.Model("fcm", ("a",), ((gc.Ign(0.0, 0.1),),), (0.0,), 1.0)


def test_model_rejects_bad_shape():
    with pytest.raises(gc.ValidationError):
        gc.Model("fcm", ("a", "b"), ((0.0, 0.0),), (0.0, 0.0), 1.0)


def test_model_rejects_unknown_family():
    with pytest.raises(gc.ValidationError):
        gc.Model("fuzzy", ("a",), ((0.0,),), (0.0,), 1.0)


def test_model_rejects_name_count_mismatch():
    with pytest.raises(gc.ValidationError):
        gc.Model("fcm", ("a",), ((0.0, 0.0), (0.0, 0.0)), (0.0, 0.0), 1.0)


@pytest.mark.parametrize("names, weights, initial, match", [
    (("a", "b"), ((0.0, 0.0), (0.0,)), (0.0, 0.0), "weight row 2 has 1 entries"),
    (("a", "b"), ((0.0, 0.0), (0.0, 0.0)), (0.0,), "initial state has 1 entries"),
    ((), (), (), "at least one node"),
], ids=["row length", "initial length", "no nodes"])
def test_model_rejects_a_shape_that_does_not_match_its_nodes(names, weights, initial, match):
    with pytest.raises(gc.ValidationError, match=match):
        gc.Model("fcm", names, weights, initial, 1.0)


@pytest.mark.parametrize("names, weights, initial, match", [
    (("a",), (5,), (0.0,), r"weights\[1\] must be a sequence, got int"),
    (("a",), ((0.5,),), 5, "initial must be a sequence, got int"),
    (("a",), 5, (0.0,), "weights must be a sequence, got int"),
    (5, ((0.5,),), (0.0,), "node_names must be a sequence, got int"),
    (("a", "b"), ((0.5, 0.5), (0.5, 0.5)), b"ab", "initial must be a sequence, got bytes"),
    (("a", "b"), ((0.5, 0.5), bytearray(b"ab")), (0.0, 0.0),
     r"weights\[2\] must be a sequence, got bytearray"),
    (("a",), ((0.5,),), memoryview(b"a"), "initial must be a sequence, got memoryview"),
    ("ab", ((0.5, 0.5), (0.5, 0.5)), (0.1, 0.2), "node_names must be a sequence, got str"),
    (("a", "b"), ((0.5, 0.5), (0.5, 0.5)), {0.2, 0.1}, "initial must be a sequence, got set"),
    (("a", "b"), ((0.5, 0.5), frozenset({0.5, 0.25})), (0.1, 0.2),
     r"weights\[2\] must be a sequence, got frozenset"),
    (("a", "b"), ((0.5, 0.5), (0.5, 0.5)), {0.2: 1, 0.1: 2},
     "initial must be a sequence, got dict"),
    (("a", "b"), ((0.5, 0.5), (math.nan, 0.5)), (0.1, 0.2),
     r"^weights\[2\]\[1\]: non-finite number nan$"),
    (("a", "b"), ((0.5, 0.5), (-math.inf, 0.5)), (0.1, 0.2),
     r"^weights\[2\]\[1\]: non-finite number -inf$"),
    (("a", "b"), ((0.5, 0.5), (0.5, 0.5)), (0.1, math.nan), r"^initial\[2\]: non-finite number nan$"),
    (("a", "b"), ((0.5, 0.5), (0.5, 0.5)), (0.1, math.inf), r"^initial\[2\]: non-finite number inf$"),
], ids=["row number", "initial number", "weights number", "names number", "initial bytes",
        "row bytearray", "initial memoryview", "names str", "initial set", "row frozenset",
        "initial dict", "row nan", "row -inf", "initial nan", "initial inf"])
def test_model_reads_rows_and_states_as_the_criteria_do(names, weights, initial, match):
    # The one sequence rule of `_family`, raising ValidationError: a
    # bytes-like value is refused, not read as ints, and so is a set or a
    # mapping, whose order is not the caller's, and a str, which would read
    # as one name per character. Each crisp cell then passes the number
    # rule, so a NaN or an infinity is refused named by its place, as
    # check_fcm and fcm_step refuse it.
    with pytest.raises(gc.ValidationError, match=match):
        gc.Model("fcm", names, weights, initial, 1.0)


@pytest.mark.parametrize("names, place, kind", [
    ((1, None), 1, "int"),
    (("a", None), 2, "NoneType"),
    ((1, "1"), 1, "int"),
    (("a", b"b"), 2, "bytes"),
], ids=["int", "None", "int beside its str", "bytes"])
def test_model_refuses_a_node_name_that_is_no_str(names, place, kind):
    # A name is kept as given, not turned into its str(): (1, None) would
    # name its nodes "1" and "None", and (1, "1") would read as one name
    # given twice.
    n = len(names)
    with pytest.raises(gc.ValidationError,
                       match=rf"^node_names\[{place}\]: a node name must be a str, got {kind}$"):
        gc.Model("fcm", names, ((0.5,) * n,) * n, (0.0,) * n, 1.0)


def test_model_keeps_its_node_names_as_given():
    class Name(str):
        pass

    names = ("a", Name("b"))
    m = gc.Model("fcm", list(names), ((0.5, 0.5),) * 2, (0.0, 0.0), 1.0)
    assert m.node_names == names and type(m.node_names[1]) is Name


@pytest.mark.parametrize("x", ["0.5", True, None], ids=["str", "True", "None"])
def test_model_rejects_a_crisp_cell_that_is_no_number(x):
    with pytest.raises(gc.ValidationError, match="expected a number"):
        gc.Model("fcm", ("a",), ((0.0,),), (x,), 1.0)


@pytest.mark.parametrize("family, match", [("fgcm", "intervals"), ("fggcm", "kernel/greyness")])
def test_model_rejects_a_float_cell_in_a_grey_family(family, match):
    with pytest.raises(gc.ValidationError, match=rf"weights\[1\]\[1\]: .*{match}"):
        gc.Model(family, ("a",), ((0.5,),), (0.5,), 1.0)


@pytest.mark.parametrize("family, states, match", [
    ("fuzzy", ((0.5,),), "unknown family"),
    ("fcm", (), "at least the initial state"),
    ("fcm", ((0.5,), (0.5, 0.5)), "ragged"),
    ("fcm", [1.0, 2.0], r"states\[1\]: state must be a sequence, got float"),
    ("fcm", None, "states must be a sequence, got NoneType"),
    ("fcm", "ab", "states must be a sequence, got str"),
    ("fcm", [b"ab"], r"states\[1\]: state must be a sequence, got bytes"),
    ("fcm", [(0.5,), {"a": 1}], r"states\[2\]: state must be a sequence, got dict"),
    ("fcm", [{0.5, 0.25}], r"states\[1\]: state must be a sequence, got set"),
], ids=["unknown family", "no states", "ragged", "numbers", "None", "str", "bytes state",
        "dict state", "set state"])
def test_trajectory_rejects_a_bad_family_or_state_list(family, states, match):
    # States are read by the one sequence rule, as a Model's rows are: a
    # state list or a state that is no sequence raises ValidationError,
    # and a str, bytes, set or mapping is refused, not read item by item.
    with pytest.raises(gc.ValidationError, match=match):
        gc.Trajectory(family, states)


@pytest.mark.parametrize("x, match", [
    (True, "expected a number, got bool"), (math.nan, "non-finite number nan"),
    (math.inf, "non-finite number inf"), ("0.5", "expected a number, got str"),
], ids=["bool", "nan", "inf", "str"])
def test_a_hand_built_crisp_trajectory_refuses_a_cell_the_number_rule_refuses(x, match):
    # The fcm cell rule is the number rule, as for a Model's cells; the
    # error names the state, then the cell.
    with pytest.raises(gc.ValidationError, match=rf"^states\[2\]: state\[2\]: {match}$"):
        gc.Trajectory("fcm", ((0.5, 0.5), (0.5, x)))


def test_a_hand_built_crisp_trajectory_makes_its_int_cells_floats():
    traj = gc.Trajectory("fcm", [[1, 0], (0.5, -0.0)])
    assert traj.states == ((1.0, 0.0), (0.5, -0.0))
    assert [list(map(type, s)) for s in traj.states] == [[float, float]] * 2


GOOD_CELL = {"fcm": 0.5, "fgcm": gc.Ign(0.25, 0.5), "fggcm": gc.Ggn(0.5, 0.25)}


@pytest.mark.parametrize("family, cell, match", [
    ("fgcm", 0.5, "fgcm cells must be intervals"),
    ("fgcm", GOOD_CELL["fggcm"], "fgcm cells must be intervals"),
    ("fggcm", 0.5, "fggcm cells must be kernel/greyness pairs"),
    ("fggcm", GOOD_CELL["fgcm"], "fggcm cells must be kernel/greyness pairs"),
    ("fcm", GOOD_CELL["fgcm"], "expected a number, got Ign"),
], ids=["fgcm float", "fgcm Ggn", "fggcm float", "fggcm Ign", "fcm Ign"])
def test_a_trajectory_refuses_a_cell_of_another_family(family, cell, match):
    good = (GOOD_CELL[family],)
    assert gc.Trajectory(family, (good, good)).states == (good, good)
    with pytest.raises(gc.ValidationError, match=rf"^states\[2\]: state\[1\]: {match}$"):
        gc.Trajectory(family, (good, (cell,)))


def test_a_trajectory_state_holds_at_least_one_cell():
    # No Model has zero nodes, so no run records an empty state.
    with pytest.raises(gc.ValidationError, match="of one cell or more"):
        gc.Trajectory("fcm", ((),) * 60)


def test_a_trajectory_looks_its_family_up_before_its_states():
    with pytest.raises(gc.ValidationError, match="unknown family 'fuzzy'"):
        gc.Trajectory("fuzzy", 5)


@pytest.mark.parametrize("family", gc.FAMILIES)
def test_simulate_hands_its_states_to_trajectory_unread(monkeypatch, family):
    # simulate marks its state list read, so Trajectory makes no vector
    # call for it; a hand-built copy of the same list is read state by state.
    model = gc.build(f"web_{family}", 2.0)
    vector, calls = cogmap.vector, []

    def counting(*args, **kwargs):
        calls.append(args[2])
        return vector(*args, **kwargs)

    monkeypatch.setattr(cogmap, "vector", counting)
    traj = gc.simulate(model, 60)
    assert calls == []
    assert gc.Trajectory(family, list(traj.states)) == traj
    assert calls == ["states"] + ["state"] * 61


def test_model_rejects_bool_lambda(web_fcm_05):
    # bool is an int subclass; True must not pass as steepness 1.0.
    with pytest.raises(gc.ValidationError):
        gc.Model("fcm", ("a",), ((0.0,),), (0.0,), True)
    with pytest.raises(gc.ValidationError):
        gc.Model(web_fcm_05.family, web_fcm_05.node_names, web_fcm_05.weights,
                 web_fcm_05.initial, True)


def test_simulate_rejects_bool_steps(web_fcm_05):
    with pytest.raises(gc.InvalidParameterError):
        gc.simulate(web_fcm_05, True)


# Each constructor that turns a number into a float, with the error it
# raises for inf; an integer no float can hold must raise the same.
OVERFLOW_SITES = {
    "Ign": (lambda x: gc.Ign(x, x), gc.MalformedInputError),
    "Ggn": (lambda x: gc.Ggn(x, 0.0), gc.MalformedInputError),
    "Ggn greyness": (lambda x: gc.Ggn(0.0, x), gc.MalformedInputError),
    "GreyUnion": (lambda x: gc.GreyUnion(((x, 1.0),)), gc.MalformedInputError),
    "GreyUnion hi": (lambda x: gc.GreyUnion(((-1.0, x),)), gc.MalformedInputError),
    "Model fcm cell": (lambda x: gc.Model("fcm", ("a",), ((0.0,),), (x,), 1.0),
                       gc.ValidationError),
    "Model lambda": (lambda x: gc.Model("fcm", ("a",), ((0.0,),), (0.0,), x),
                     gc.ValidationError),
}


@pytest.mark.parametrize("x", [10 ** 400, -(10 ** 400)], ids=["+1e400", "-1e400"])
@pytest.mark.parametrize("site", sorted(OVERFLOW_SITES))
def test_integer_too_large_for_a_float_raises_the_site_error(site, x):
    build, error = OVERFLOW_SITES[site]
    with pytest.raises(error):
        build(math.inf)
    with pytest.raises(error):
        build(x)


# The cell constructors apply the number rule themselves: a value that is
# no int or float, or is a bool, is refused, not converted.
CELL_SITES = [site for site in sorted(OVERFLOW_SITES) if not site.startswith("Model")]


@pytest.mark.parametrize("x", ["0.5", True, None, "abc"], ids=["'0.5'", "True", "None", "abc"])
@pytest.mark.parametrize("site", CELL_SITES)
def test_a_cell_constructor_refuses_a_value_that_is_no_number(site, x):
    build, error = OVERFLOW_SITES[site]
    with pytest.raises(error, match="expected a number"):
        build(x)


@pytest.mark.parametrize("intervals", [(0.5,), ((0.1,),), ((0.1, 0.2, 0.3),), None],
                         ids=["bare number", "one endpoint", "three endpoints", "None"])
def test_grey_union_refuses_an_interval_that_is_no_pair(intervals):
    with pytest.raises(gc.MalformedInputError, match="pairs"):
        gc.GreyUnion(intervals)


# How `_family.sequence` reads a container: a set or frozenset iterates in
# hash order, a dict over its keys and bytes over ints, so each is refused;
# a list, tuple or iterator is read in the order given.
CONTAINERS = {
    "list": list, "tuple": tuple, "iterator": iter, "set": set, "frozenset": frozenset,
    "dict": dict.fromkeys, "bytes": lambda items: bytes(range(len(items))),
}
REFUSED = {"set", "frozenset", "dict", "bytes"}


@pytest.mark.parametrize("kind", sorted(CONTAINERS))
@pytest.mark.parametrize("where", ["list", "pair"])
def test_grey_union_reads_its_list_and_each_pair_as_a_sequence(where, kind):
    pairs = [(-0.5, -0.4), (0.1, 0.2)]
    make = CONTAINERS[kind]
    intervals = make(pairs) if where == "list" else [pairs[0], make(pairs[1])]
    if kind in REFUSED:
        with pytest.raises(gc.MalformedInputError, match=f"pairs must be a sequence, got {kind}"):
            gc.GreyUnion(intervals)
    else:
        assert gc.GreyUnion(intervals) == gc.GreyUnion(tuple(pairs))


def test_cell_constructors_take_ints_and_float_subclasses():
    class Real(float):
        pass

    cells = (gc.Ign(Real(0.5), 1), gc.Ggn(0, Real(0.25)), gc.GreyUnion(((Real(-0.5), 1),)))
    assert cells == (gc.Ign(0.5, 1.0), gc.Ggn(0.0, 0.25), gc.GreyUnion(((-0.5, 1.0),)))
    fields = (*(getattr(cells[0], f) for f in FAMILY["fgcm"].fields),
              *(getattr(cells[1], f) for f in FAMILY["fggcm"].fields),
              *cells[2].intervals[0])
    assert all(type(v) is float for v in fields)


def test_degenerate_interval_run_matches_crisp_bitwise(web_fcm_05):
    """Width-zero intervals must reproduce the crisp engine exactly."""
    w = tuple(tuple(gc.Ign(v, v) for v in row) for row in web_fcm_05.weights)
    a = tuple(gc.Ign(v, v) for v in web_fcm_05.initial)
    m = gc.Model("fgcm", web_fcm_05.node_names, w, a, 0.5)
    crisp = gc.simulate(web_fcm_05, 40)
    grey = gc.simulate(m, 40)
    for cs, gs in zip(crisp.states, grey.states):
        for cv, cell in zip(cs, gs):
            assert cell.lo == cv and cell.hi == cv


def test_zero_greyness_ggn_run_matches_crisp_bitwise(web_fcm_05):
    """Greyness-free kernels must reproduce the crisp engine exactly."""
    w = tuple(tuple(gc.Ggn(v, 0.0) for v in row) for row in web_fcm_05.weights)
    a = tuple(gc.Ggn(v, 0.0) for v in web_fcm_05.initial)
    m = gc.Model("fggcm", web_fcm_05.node_names, w, a, 0.5)
    crisp = gc.simulate(web_fcm_05, 40)
    grey = gc.simulate(m, 40)
    for cs, gs in zip(crisp.states, grey.states):
        for cv, cell in zip(cs, gs):
            assert cell.kernel == cv
            assert cell.greyness == 0.0


def test_ggn_kernel_track_ignores_greyness_track(web_fggcm_05):
    """Kernels evolve independently of every greyness value."""
    stripped = gc.Model(
        "fggcm",
        web_fggcm_05.node_names,
        tuple(tuple(gc.Ggn(c.kernel, 0.0) for c in row) for row in web_fggcm_05.weights),
        tuple(gc.Ggn(c.kernel, 0.0) for c in web_fggcm_05.initial),
        0.5,
    )
    full = gc.simulate(web_fggcm_05, 60)
    bare = gc.simulate(stripped, 60)
    for fs, bs in zip(full.states, bare.states):
        for fc, bc in zip(fs, bs):
            assert fc.kernel == bc.kernel


def seeded_map(family, seed, n=20, lam=1.5):
    """Dense map whose weights and initial cells take both signs, so every
    branch of the interval min/max and the greyness max runs."""
    rng = random.Random(seed)

    def cell():
        if family == "fgcm":
            a, b = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
            return gc.Ign(min(a, b), max(a, b))
        return gc.Ggn(rng.uniform(-1.0, 1.0), rng.uniform(0.0, 0.3))

    weights = tuple(tuple(cell() for _ in range(n)) for _ in range(n))
    initial = tuple(cell() for _ in range(n))
    names = tuple(f"c{i}" for i in range(n))
    return gc.Model(family, names, weights, initial, lam)


@pytest.mark.parametrize("variant,lam", [(v, lam) for v in sorted(gc.VARIANTS)
                                         for lam in LAMBDAS])
def test_corpus_trajectories_are_pinned_bitwise(variant, lam):
    traj = gc.simulate(gc.build(variant, lam), 200)
    golden.check({f"corpus_runs/{variant}/{lam}": golden.trajectory_digest(traj)})


@pytest.mark.parametrize("family,seed", [("fgcm", 11), ("fggcm", 12)])
def test_seeded_dense_trajectories_are_pinned_bitwise(family, seed):
    traj = gc.simulate(seeded_map(family, seed), 100)
    golden.check({f"seeded_runs/{family}/{seed}": golden.trajectory_digest(traj)})
