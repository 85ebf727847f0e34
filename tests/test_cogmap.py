"""Model validation and the three update engines."""

import dataclasses
import math

import pytest

import greycog as gc
from conftest import (
    FCM_FIRST_05,
    FGCM_FIRST_05_HI,
    FGCM_FIRST_05_LO,
    FGGCM_FIRST_05_G,
    FGGCM_FIRST_05_K,
)


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


def test_step_rejects_row_length_mismatch():
    with pytest.raises(gc.DimensionError):
        gc.fcm_step(((0.5, 0.1),), (0.5,), 1.0)


def test_web_first_iterate_crisp(web_fcm_05):
    out = gc.fcm_step(web_fcm_05.weights, web_fcm_05.initial, 0.5)
    for got, want in zip(out, FCM_FIRST_05):
        assert got == pytest.approx(want, abs=1e-7)


def test_web_first_iterate_interval():
    m = gc.build("web_fgcm", 0.5)
    out = gc.fgcm_step(m.weights, m.initial, 0.5)
    for cell, lo, hi in zip(out, FGCM_FIRST_05_LO, FGCM_FIRST_05_HI):
        assert cell.lo == pytest.approx(lo, abs=1e-7)
        assert cell.hi == pytest.approx(hi, abs=1e-7)


def test_web_first_iterate_ggn(web_fggcm_05):
    out = gc.fggcm_step(web_fggcm_05.weights, web_fggcm_05.initial, 0.5)
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


def test_model_rejects_out_of_range_crisp_weight():
    with pytest.raises(gc.ValidationError):
        gc.Model("fcm", 1, ("a",), ((1.5,),), (0.0,), 1.0)


def test_model_rejects_wrong_family_cells():
    with pytest.raises(gc.ValidationError):
        gc.Model("fcm", 1, ("a",), ((gc.Ign(0.0, 0.1),),), (0.0,), 1.0)


def test_model_rejects_bad_shape():
    with pytest.raises(gc.ValidationError):
        gc.Model("fcm", 2, ("a", "b"), ((0.0, 0.0),), (0.0, 0.0), 1.0)


def test_model_rejects_unknown_family():
    with pytest.raises(gc.ValidationError):
        gc.Model("fuzzy", 1, ("a",), ((0.0,),), (0.0,), 1.0)


def test_model_rejects_name_count_mismatch():
    with pytest.raises(gc.ValidationError):
        gc.Model("fcm", 2, ("a",), ((0.0, 0.0), (0.0, 0.0)), (0.0, 0.0), 1.0)


def test_model_rejects_bool_lambda(web_fcm_05):
    # bool is an int subclass; True must not pass as steepness 1.0.
    with pytest.raises(gc.ValidationError):
        gc.Model("fcm", 1, ("a",), ((0.0,),), (0.0,), True)
    with pytest.raises(gc.ValidationError):
        dataclasses.replace(web_fcm_05, lam=True)


def test_degenerate_interval_run_matches_crisp_bitwise(web_fcm_05):
    """Width-zero intervals must reproduce the crisp engine exactly."""
    w = tuple(tuple(gc.Ign(v, v) for v in row) for row in web_fcm_05.weights)
    a = tuple(gc.Ign(v, v) for v in web_fcm_05.initial)
    m = gc.Model("fgcm", 7, web_fcm_05.node_names, w, a, 0.5)
    crisp = gc.simulate(web_fcm_05, 40)
    grey = gc.simulate(m, 40)
    for cs, gs in zip(crisp.states, grey.states):
        for cv, cell in zip(cs, gs):
            assert cell.lo == cv and cell.hi == cv


def test_zero_greyness_ggn_run_matches_crisp_bitwise(web_fcm_05):
    """Greyness-free kernels must reproduce the crisp engine exactly."""
    w = tuple(tuple(gc.Ggn(v, 0.0) for v in row) for row in web_fcm_05.weights)
    a = tuple(gc.Ggn(v, 0.0) for v in web_fcm_05.initial)
    m = gc.Model("fggcm", 7, web_fcm_05.node_names, w, a, 0.5)
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
        7,
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
