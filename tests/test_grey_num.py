"""Kernel/greyness numbers and the kernel/greyness row kernel."""

import math

import pytest

from greycog import Ggn, GreyUnion, MalformedInputError, ggn_from_union
from greycog._core import kernel_grey_row
from conftest import CASE2_REDUCED

from greycog.corpus import CASE2_UNIONS


def row_update(w_row, a, lam):
    """The engine's update of one node, from cells to a cell."""
    return Ggn(*kernel_grey_row([w.kernel for w in w_row], [w.greyness for w in w_row],
                                [x.kernel for x in a], [x.greyness for x in a], lam))


def test_union_single_interval_reduces_to_midpoint_and_half_width():
    g = ggn_from_union(GreyUnion(((0.2, 0.6),)))
    assert g.kernel == pytest.approx(0.4, abs=1e-15)
    assert g.greyness == pytest.approx(0.2, abs=1e-15)


def test_union_degenerate_interval_is_crisp():
    g = ggn_from_union(GreyUnion(((0.3, 0.3),)))
    assert g.kernel == 0.3
    assert g.greyness == 0.0


@pytest.mark.parametrize("cell", sorted(CASE2_UNIONS))
def test_case2_unions_reduce_to_frozen_values(cell):
    g = ggn_from_union(CASE2_UNIONS[cell])
    want_k, want_g = CASE2_REDUCED[cell]
    assert g.kernel == pytest.approx(want_k, abs=1e-12)
    assert g.greyness == pytest.approx(want_g, abs=1e-12)


def test_union_rejects_overlapping_intervals():
    with pytest.raises(MalformedInputError):
        GreyUnion(((-0.5, 0.1), (0.0, 0.4)))


def test_union_rejects_unsorted_intervals():
    with pytest.raises(MalformedInputError):
        GreyUnion(((0.2, 0.4), (-0.5, 0.0)))


def test_union_rejects_inverted_interval():
    with pytest.raises(MalformedInputError):
        GreyUnion(((0.4, 0.2),))


def test_union_rejects_out_of_domain_endpoint():
    with pytest.raises(MalformedInputError):
        GreyUnion(((0.5, 1.2),))


def test_union_rejects_empty():
    with pytest.raises(MalformedInputError):
        GreyUnion(())


def test_ggn_greyness_must_be_nonnegative():
    with pytest.raises(MalformedInputError):
        Ggn(0.0, -0.01)


def test_row_update_single_term():
    out = row_update((Ggn(0.5, 0.1),), (Ggn(1.0, 0.0),), 1.0)
    k = 1.0 / (1.0 + math.exp(-0.5))
    assert out.kernel == pytest.approx(k, abs=1e-15)
    # Single term: the activity-weighted average collapses to max(0.1, 0.0).
    assert out.greyness == pytest.approx(k * 0.1, abs=1e-15)


def test_row_update_cancelling_terms_keep_greyness():
    # Kernels cancel to zero but the magnitudes still carry greyness.
    w = (Ggn(1.0, 0.01), Ggn(-1.0, 0.01))
    a = (Ggn(0.5, 0.02), Ggn(0.5, 0.02))
    out = row_update(w, a, 1.0)
    assert out.kernel == 0.5
    assert out.greyness == pytest.approx(0.01, abs=1e-15)


def test_row_update_zero_denominator_gives_zero_greyness():
    # All products vanish, so no activity to average over.
    w = (Ggn(0.0, 0.3), Ggn(0.7, 0.1))
    a = (Ggn(0.9, 0.2), Ggn(0.0, 0.5))
    out = row_update(w, a, 1.0)
    assert out.kernel == 0.5
    assert out.greyness == 0.0


def test_row_update_greyness_ignores_kernel_sign():
    pos = row_update((Ggn(0.6, 0.05),), (Ggn(0.8, 0.02),), 1.0)
    neg = row_update((Ggn(-0.6, 0.05),), (Ggn(0.8, 0.02),), 1.0)
    assert pos.greyness / pos.kernel == pytest.approx(neg.greyness / neg.kernel, abs=1e-15)
