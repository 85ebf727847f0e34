"""Bundled benchmark variants against their published matrices."""

import hashlib
import json
import math

import pytest

import greycog as gc
from greycog.corpus import WEB_INITIAL_CRISP, WEB_INITIAL_GGN, WEB_INITIAL_INTERVAL, WEB_WEIGHTS
from conftest import PRINTED_GGN, PRINTED_IGN, PRINTED_WSTAR, WEB_W


def test_crisp_matrix_matches_publication():
    assert WEB_WEIGHTS == WEB_W


def test_initial_states():
    assert WEB_INITIAL_CRISP == (1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0)
    for cell in WEB_INITIAL_INTERVAL[:6]:
        assert (cell.lo, cell.hi) == (0.99, 1.0)
    assert (WEB_INITIAL_INTERVAL[6].lo, WEB_INITIAL_INTERVAL[6].hi) == (0.0, 0.0)
    for cell in WEB_INITIAL_GGN[:6]:
        assert (cell.kernel, cell.greyness) == (0.995, 0.010)
    assert (WEB_INITIAL_GGN[6].kernel, WEB_INITIAL_GGN[6].greyness) == (0.0, 0.0)


def test_injected_interval_matrix_matches_publication():
    w = gc.inject_greyness(WEB_WEIGHTS, 0.01)
    for i in range(7):
        for j in range(7):
            lo, hi = PRINTED_IGN[i][j]
            assert w[i][j].lo == pytest.approx(lo, abs=1e-12)
            assert w[i][j].hi == pytest.approx(hi, abs=1e-12)


def test_endpoint_magnitudes_match_publication():
    ws = gc.w_star(gc.inject_greyness(WEB_WEIGHTS, 0.01))
    for i in range(7):
        for j in range(7):
            assert ws[i][j] == pytest.approx(PRINTED_WSTAR[i][j], abs=1e-12)


def test_ggn_matrix_matches_publication():
    m = gc.build("web_fggcm", 1.0)
    for i in range(7):
        for j in range(7):
            k, g = PRINTED_GGN[i][j]
            assert m.weights[i][j].kernel == pytest.approx(k, abs=1e-12)
            assert m.weights[i][j].greyness == pytest.approx(g, abs=1e-12)


def test_injection_keeps_zero_weights_crisp():
    w = gc.inject_greyness(((0.0, 0.5), (-1.0, 0.005)), 0.01)
    assert (w[0][0].lo, w[0][0].hi) == (0.0, 0.0)
    assert (w[0][1].lo, w[0][1].hi) == (0.49, 0.51)
    # Clipped at the domain floor.
    assert (w[1][0].lo, w[1][0].hi) == (-1.0, -0.99)
    # Sub-threshold magnitudes stay crisp so no weight flips sign.
    assert (w[1][1].lo, w[1][1].hi) == (0.005, 0.005)


@pytest.mark.parametrize("g", (math.inf, math.nan, True, 10**400, 0, -1),
                         ids=("inf", "nan", "True", "10**400", "0", "-1"))
def test_injection_rejects_a_greyness_that_is_not_a_positive_finite_number(g):
    # inf and 10**400 used to leave every weight degenerate without an
    # error, and True was taken as 1.0.
    with pytest.raises(gc.InvalidParameterError, match="greyness"):
        gc.inject_greyness(WEB_WEIGHTS, g)


@pytest.mark.parametrize("w, error", [
    (5, gc.DimensionError),
    ([[0.5], [0.5, 0.5]], gc.DimensionError),
    ([["0.5"]], gc.ValidationError),
    ([[True]], gc.ValidationError),
    ([[0.5, math.nan]], gc.ValidationError),
], ids=["number", "ragged", "str", "bool", "nan"])
def test_injection_reads_its_matrix_under_the_number_rule(w, error):
    # A number or a str entry used to leak a TypeError, a ragged matrix
    # came back ragged, and True widened to [0.99, 1.0].
    with pytest.raises(error):
        gc.inject_greyness(w, 0.01)


def test_ggn_variant_reduces_injected_intervals():
    m = gc.build("web_fggcm", 1.0)
    ign = gc.inject_greyness(WEB_WEIGHTS, 0.01)
    for i in range(7):
        for j in range(7):
            want = gc.ggn_from_union(gc.GreyUnion(((ign[i][j].lo, ign[i][j].hi),)))
            assert m.weights[i][j] == want


def test_case1_variants_override_only_the_first_cell():
    base_ign = gc.inject_greyness(WEB_WEIGHTS, 0.01)
    m_ign = gc.build("web_case1_fgcm", 1.0)
    assert m_ign.weights[0][0] == gc.Ign(-0.1, 0.1)
    assert m_ign.weights[1:] == tuple(base_ign[1:])
    assert m_ign.weights[0][1:] == tuple(base_ign[0][1:])

    base_ggn = gc.build("web_fggcm", 1.0)
    m_ggn = gc.build("web_case1_fggcm", 1.0)
    assert m_ggn.weights[0][0] == gc.Ggn(0.0, 0.1)
    assert m_ggn.weights[1:] == base_ggn.weights[1:]
    assert m_ggn.weights[0][1:] == base_ggn.weights[0][1:]


def test_case2_overrides_four_cells():
    from greycog.corpus import CASE2_UNIONS

    base = gc.build("web_fggcm", 1.0)
    mc = gc.build("web_case2_fggcm", 1.0)
    overridden = set(CASE2_UNIONS)
    for i in range(7):
        for j in range(7):
            if (i, j) in overridden:
                assert mc.weights[i][j] == gc.ggn_from_union(CASE2_UNIONS[(i, j)])
            else:
                assert mc.weights[i][j] == base.weights[i][j]


def test_build_rejects_unknown_variant():
    with pytest.raises(gc.MalformedInputError) as exc:
        gc.build("web_fgc", 1.0)
    assert "web_fgcm" in str(exc.value)


@pytest.mark.parametrize("variant", [["web_fcm"], {}], ids=["list", "dict"])
def test_a_value_that_is_no_variant_id_is_refused(variant):
    # An unhashable value is refused, not looked up in the variant table.
    for call in (lambda: gc.build(variant, 1.0), lambda: gc.export_variant(variant)):
        with pytest.raises(gc.MalformedInputError, match="unknown corpus variant"):
            call()


def test_every_variant_builds_and_validates():
    for vid in gc.VARIANTS:
        m = gc.build(vid, 1.0)
        assert m.n == 7
        assert len(m.weights) == 7


def test_export_round_trips_through_the_parser():
    for vid in gc.VARIANTS:
        assert gc.parse_model(gc.export_variant(vid)) == gc.build(vid, 1.0)


def test_export_preserves_union_cells():
    doc = gc.export_variant("web_case2_fggcm")
    cell = doc["weights"][0][0]
    assert isinstance(cell, dict) and "union" in cell


# sha256 of json.dumps(export_variant(v)): the exported bytes, pinned.
EXPORT_SHA256 = {
    "web_case1_fgcm": "bfd160ea3094a7e7dccddfb87040bdfa4135476bca5364ec4e0710d5d768921a",
    "web_case1_fggcm": "30f7b65ea3880fcd8ad204a2e8e4c412be9b4a37dc98457f3b2711adfea23344",
    "web_case2_fggcm": "7e617465780a085aa0345a9f9f909edef9a6b0b609072478f0e88d43f341141b",
    "web_fcm": "27ed48b2e13f312ecfd7bb910929549892b975502235afc708b29a39e1673114",
    "web_fgcm": "f73e1ae6a62cd493e05a39b2e8e9bea62a5663dd172eb78d839d31d8e3ce3a5b",
    "web_fggcm": "933bc53734c4bf3298adbeac0cbe09207eff1b59a9231f214edae76876994210",
}


@pytest.mark.parametrize("variant", sorted(EXPORT_SHA256))
def test_exported_documents_are_pinned(variant):
    text = json.dumps(gc.export_variant(variant))
    assert hashlib.sha256(text.encode()).hexdigest() == EXPORT_SHA256[variant]
