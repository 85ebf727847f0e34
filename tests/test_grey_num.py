"""Kernel/greyness numbers and the kernel/greyness update."""

import copy
import math
import pickle

import pytest

from greycog import Ggn, GreyUnion, Ign, MalformedInputError, ggn_from_union
from conftest import CASE2_REDUCED, row_update

from greycog.corpus import CASE2_UNIONS


def test_cells_equal_only_within_their_class():
    assert Ign(0, 1) != Ggn(0, 1)
    assert Ggn(0, 1) != Ign(0, 1)
    assert Ggn(0.5, 0.01) != (0.5, 0.01)
    assert Ggn(0.5, 0.01) != Ggn(0.5, 0.02)
    assert Ign(0, 1) == Ign(0.0, 1.0)
    assert hash(Ign(0, 1)) == hash(Ign(0.0, 1.0))
    assert hash(Ggn(0.5, 0.01)) == hash(Ggn(0.5, 0.01))
    assert len({Ign(0, 1), Ign(0.0, 1.0), Ggn(0, 1), Ggn(0.0, 1.0)}) == 2


CELLS = [
    (Ign(-0.25, 0.75), ("lo", "hi"), "Ign(lo=-0.25, hi=0.75)"),
    (Ggn(0.5, 0.01), ("kernel", "greyness"), "Ggn(kernel=0.5, greyness=0.01)"),
]


@pytest.mark.parametrize("cell, fields, text", CELLS)
def test_cell_fields_are_read_only(cell, fields, text):
    for name in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(cell, name, 0.0)
        with pytest.raises(AttributeError):
            delattr(cell, name)
    assert repr(cell) == text


@pytest.mark.parametrize("cell, fields, text", CELLS)
def test_cells_survive_pickle_and_copy(cell, fields, text):
    copies = [pickle.loads(pickle.dumps(cell, proto))
              for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in copies + [copy.copy(cell), copy.deepcopy(cell)]:
        assert type(twin) is type(cell)
        assert twin == cell
        assert repr(twin) == text


def test_cells_are_records_built_through_their_checks():
    assert Ign.__slots__ == ("lo", "hi")
    assert Ggn.__slots__ == ("kernel", "greyness")
    # Pickling and copying rebuild a cell through its constructor.
    rebuild, args = Ggn(0.5, 0.01).__reduce__()
    assert rebuild(args[0], 0.25) == Ggn(0.5, 0.25)
    with pytest.raises(MalformedInputError):
        rebuild(args[0], -1.0)
    rebuild, args = Ign(0.0, 0.5).__reduce__()
    with pytest.raises(MalformedInputError):
        rebuild(1.0, args[1])


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


def test_union_reads_its_intervals_in_order():
    # Each pair is read through Ign, so the first bad pair raises: an
    # inverted interval before a non-finite end, and either before the
    # domain check of an earlier interval.
    with pytest.raises(MalformedInputError, match=r"\[0.4, 0.2\] has lo > hi"):
        GreyUnion(((0.4, 0.2), (0.5, math.inf)))
    with pytest.raises(MalformedInputError, match="non-finite number inf"):
        GreyUnion(((0.1, 0.2), (0.5, math.inf), (0.4, 0.2)))
    with pytest.raises(MalformedInputError, match="lo > hi"):
        GreyUnion(((0.5, 1.5), (0.4, 0.2)))


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
