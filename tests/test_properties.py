"""Property tests for the numeric invariants the engines rely on.

The containment properties use zero slack. Products and `+=` round
monotonically, so a member's row sum, taken with the engine's
left-to-right accumulation, lies inside the interval row sum exactly. The
two-branch float logistic is not monotone (README's fgcm paragraph,
ROADMAP item 14): an interval step holds the activated images of both of
its ends, but a member strictly inside can escape by an ulp where the
logistic inverts two neighbouring sums. So
`test_interval_sigmoid_contains_every_member_value` and
`test_interval_trajectory_encloses_member_trajectories`, which draw
interior members, can fail on a rare draw.
"""

import json
import math
import struct

import pytest
from hypothesis import assume, given, settings, strategies as st

import greycog as gc
import reference
from greycog._core import blocks, crisp_next, interval_dot_lr, kernel_grey_next, sigmoids
from greycog._family import FAMILY, number, vector
from conftest import activate, cell_fields, row_update

prepare = FAMILY["fggcm"].prepare

unit = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, width=64)
frac = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=64)
lam_s = st.floats(min_value=0.1, max_value=8.0, allow_nan=False, width=64)
grey_s = st.floats(min_value=0.0, max_value=0.5, allow_nan=False, width=64)
steep_s = st.floats(min_value=0.1, max_value=10.0, allow_nan=False, width=64)
member_s = st.one_of(st.sampled_from([0.0, 1.0]), frac)


def interval_s():
    return st.tuples(unit, unit).map(lambda p: gc.Ign(min(*p), max(*p)))


def ggn_s():
    return st.tuples(unit, grey_s).map(lambda p: gc.Ggn(p[0], p[1]))


def vec(strategy, n):
    return st.lists(strategy, min_size=n, max_size=n).map(tuple)


def mat(strategy, n):
    return vec(vec(strategy, n), n)


def bits(x):
    return struct.pack("<d", x)


def run(family, w, a, lam, steps):
    n = len(a)
    m = gc.Model(family, tuple(f"c{i}" for i in range(n)), w, a, lam)
    return gc.simulate(m, steps).states


def member(cell, f):
    return min(max(cell.lo + f * (cell.hi - cell.lo), cell.lo), cell.hi)


@given(st.lists(st.tuples(interval_s(), interval_s(), frac, frac),
                min_size=1, max_size=5))
def test_interval_dot_contains_every_member_dot(pairs):
    w = tuple(p[0] for p in pairs)
    a = tuple(p[1] for p in pairs)
    lo, hi = interval_dot_lr([c.lo for c in w], [c.hi for c in w],
                             [c.lo for c in a], [c.hi for c in a])
    # Member picks, then the same accumulation order as the engine.
    ws = [c.lo + f * (c.hi - c.lo) for c, f in zip(w, (p[2] for p in pairs))]
    As = [c.lo + f * (c.hi - c.lo) for c, f in zip(a, (p[3] for p in pairs))]
    ws = [min(max(x, c.lo), c.hi) for x, c in zip(ws, w)]
    As = [min(max(x, c.lo), c.hi) for x, c in zip(As, a)]
    d = reference.dot_lr(ws, As)
    assert lo <= d <= hi


@given(interval_s(), frac, lam_s)
def test_interval_sigmoid_contains_every_member_value(cell, f, lam):
    out = activate(cell, lam)
    t = min(max(cell.lo + f * (cell.hi - cell.lo), cell.lo), cell.hi)
    assert out.lo <= sigmoids([t], lam)[0] <= out.hi


@given(interval_s(), lam_s)
def test_interval_sigmoid_width_contraction(cell, lam):
    out = activate(cell, lam)
    assert out.width <= lam / 4.0 * cell.width + 1e-12


@given(st.integers(1, 5), st.data(), lam_s)
def test_row_update_kernel_is_the_crisp_update(n, data, lam):
    w = data.draw(vec(ggn_s(), n))
    a = data.draw(vec(ggn_s(), n))
    out = row_update(w, a, lam)
    (crisp,) = reference.crisp_step(([c.kernel for c in w],), [c.kernel for c in a], lam)
    assert out.kernel == crisp


@given(st.integers(1, 5), st.data(), lam_s)
def test_row_update_greyness_bounded_by_largest_component(n, data, lam):
    w = data.draw(vec(ggn_s(), n))
    a = data.draw(vec(ggn_s(), n))
    out = row_update(w, a, lam)
    cap = max(max(wc.greyness, ac.greyness) for wc, ac in zip(w, a))
    assert 0.0 <= out.greyness <= cap + 1e-12


@given(st.integers(1, 5), st.data(), lam_s)
def test_row_update_greyness_independent_of_kernel_track_greyness(n, data, lam):
    w = data.draw(vec(ggn_s(), n))
    a = data.draw(vec(ggn_s(), n))
    out = row_update(w, a, lam)
    # Replace every greyness with zero: kernel must not move.
    w0 = tuple(gc.Ggn(c.kernel, 0.0) for c in w)
    a0 = tuple(gc.Ggn(c.kernel, 0.0) for c in a)
    bare = row_update(w0, a0, lam)
    assert bare.kernel == out.kernel
    assert bare.greyness == 0.0


@given(st.integers(1, 6), st.data(), lam_s)
def test_gated_condition_matrix_masks_the_ungated_one(n, data, lam):
    """Each gated entry is 0.0 or bit-equal to the ungated (a_grey=None)
    entry, and the two matrices are equal when every state greyness
    dominates its column's weight greyness."""
    w = data.draw(mat(ggn_s(), n))
    a_hat = data.draw(vec(frac, n))
    try:
        ungated = gc.grey_condition_matrix(w, a_hat, None, lam)
    except gc.DegenerateRowError:
        assume(False)
    a_grey = data.draw(vec(grey_s, n))
    for g_row, u_row in zip(gc.grey_condition_matrix(w, a_hat, a_grey, lam), ungated):
        for g, u in zip(g_row, u_row):
            assert g == 0.0 or bits(g) == bits(u)
    dominant = tuple(max(row[j].greyness for row in w) + data.draw(grey_s)
                     for j in range(n))
    gated = gc.grey_condition_matrix(w, a_hat, dominant, lam)
    assert [bits(x) for row in gated for x in row] == [bits(x) for row in ungated for x in row]


# Signed zeros in every plane, and greyness drawn often from a few values
# so that weight and state greyness tie (0.0 against -0.0 too).
zero_or_unit = st.one_of(st.sampled_from([0.0, -0.0]), unit)
tied_grey = st.one_of(st.sampled_from([0.0, -0.0, 0.25]), grey_s)


@given(st.integers(1, 9), st.integers(1, 5), st.data(), lam_s)
def test_kernel_grey_update_equals_the_row_by_row_reference(rows, cols, data, lam):
    # Up to nine rows: several row blocks and every remainder. The crisp
    # update of the kernel planes is the reference's crisp step.
    planes = (data.draw(vec(vec(zero_or_unit, cols), rows)),
              data.draw(vec(vec(tied_grey, cols), rows)),
              data.draw(vec(zero_or_unit, cols)),
              data.draw(vec(tied_grey, cols)))
    got = kernel_grey_next(prepare(*planes[:2]), *planes[2:], lam)
    w = [tuple(zip(k_row, g_row)) for k_row, g_row in zip(*planes[:2])]
    want = tuple(zip(*reference.grey_step(w, tuple(zip(*planes[2:])), lam)))
    assert [list(map(bits, p)) for p in got] == [list(map(bits, p)) for p in want]
    (crisp,) = crisp_next(blocks(planes[0]), planes[2], lam)
    assert list(map(bits, crisp)) == list(map(bits, reference.crisp_step(planes[0], planes[2],
                                                                           lam)))


def rate_slack(n):
    """The rounding of n shares and of their sums: kernels and greyness
    stay in [0, 1] here, so n + 1 ulps of 1.0 cover it."""
    return (n + 1) * math.ulp(1.0)


@given(st.integers(1, 9), st.data(), lam_s)
def test_the_greyness_update_contracts_by_its_largest_new_kernel(n, data, lam):
    """With the kernel state fixed, the greyness update moves two greyness
    planes apart by at most max(k') times their distance, in the inf-norm:
    each new greyness is a'_i times a share-weighted average of
    max(G_ij, g_j), and max(G, .) is 1-Lipschitz."""
    weights = prepare(data.draw(mat(unit, n)), data.draw(mat(grey_s, n)))
    k = data.draw(vec(frac, n))
    g, h = data.draw(vec(tied_grey, n)), data.draw(vec(tied_grey, n))
    k_g, g_next = kernel_grey_next(weights, k, g, lam)
    k_h, h_next = kernel_grey_next(weights, k, h, lam)
    assert k_g == k_h
    apart = max(abs(x - y) for x, y in zip(g, h))
    assert max(abs(x - y) for x, y in zip(g_next, h_next)) <= max(k_g) * apart + rate_slack(n)


@given(st.integers(1, 9), st.data(), lam_s)
def test_each_condition_matrix_row_sums_to_at_most_its_new_kernel(n, data, lam):
    """Row i of the gated condition matrix is a'_i times shares that sum to
    at most 1, so its inf-norm is at most q_g = max_i a'_i. Its a'_i are
    the engine's new kernels bit for bit: an open entry (g_j - G_ij >= 0)
    is k'_i * |K_ij * k_j| / d_i, d_i the row's shares summed left to
    right from +0.0 (both taken as `reference.shares` takes them where d_i
    is below 2**-969), and every closed one is 0.0."""
    w = data.draw(mat(ggn_s(), n))
    k = data.draw(vec(frac, n))
    g = data.draw(vec(grey_s, n))
    try:
        rows = gc.grey_condition_matrix(w, k, g, lam)
    except gc.DegenerateRowError:
        assume(False)
    K, G = zip(*map(FAMILY["fggcm"].split, w))
    kernels, _ = kernel_grey_next(prepare(K, G), k, g, lam)
    for row, k_next, K_i, G_i in zip(rows, kernels, K, G):
        total = 0.0
        for x in row:
            total += x
        assert total <= k_next + rate_slack(n)
        products, d = reference.shares(K_i, k)
        assert list(map(bits, row)) == [
            bits(k_next * p / d if g_j - G_ij >= 0.0 else 0.0)
            for p, G_ij, g_j in zip(products, G_i, g)]


# Condition matrices with a row of subnormal kernel products, each as
# (w, a_hat, a_grey, lam, matrix). The first two are draws on which the
# row-sum property above failed while such products lost bits; in the
# third, a_hat[1] scaled by 2**600 or 2**1200 would overflow, so only the
# smaller factor of a product may be scaled; in the last two every product
# underflows to 0, which is no row of zero kernel mass.
SUBNORMAL_SHARES = [
    (((gc.Ggn(0, 0), gc.Ggn(1, 0)), (gc.Ggn(0, 0), gc.Ggn(0.125, 0))),
     (0.0, 2.225073858507203e-309), (0.0, 0.0), 1.0, ((0.0, 0.5), (0.0, 0.5))),
    (((gc.Ggn(2.2250738585e-313, 0.0),),), (0.203125,), (0.0,), 1.0, ((0.5,),)),
    (((gc.Ggn(0.0, 0.0), gc.Ggn(1e-310, 0.0)), (gc.Ggn(1.0, 0.0), gc.Ggn(0.0, 0.0))),
     (1e300, 1e-5), None, 1.0, ((0.0, 0.5), (1.0, 0.0))),
    (((gc.Ggn(1e-200, 0.0),),), (1e-200,), None, 1.0, ((0.5,),)),
    (((gc.Ggn(1e-300, 0.0),),), (1e-300,), None, 1.0, ((0.5,),)),
]


@pytest.mark.parametrize("w, a_hat, a_grey, lam, matrix", SUBNORMAL_SHARES)
def test_a_condition_matrix_row_of_subnormal_shares_keeps_its_bits(w, a_hat, a_grey, lam,
                                                                    matrix):
    # Summed as they were, row 2 of the first came to 0.5000000000000089
    # against a' = 0.5, and row 1 of the last to 0.4999999975296718.
    assert gc.grey_condition_matrix(w, a_hat, a_grey, lam) == matrix


def test_a_greyness_update_over_subnormal_products_contracts_by_its_new_kernel():
    # Summed as they were, the two greyness planes came out
    # 0.12500000000019737 apart, against max(k') * 0.25 = 0.125.
    weights = prepare([[2.225073858507e-311]], [[0.0]])
    k_g, g_next = kernel_grey_next(weights, [0.28125], [0.25], 1.0)
    k_h, h_next = kernel_grey_next(weights, [0.28125], [0.0], 1.0)
    assert k_g == k_h == (0.5,)
    assert (g_next, h_next) == ((0.125,), (0.0,))


@pytest.mark.parametrize("kernel, greyness", [
    (1e-150, 0.25), (1e-200, 0.25), (1e-300, 0.25), (1e-160, 2.0 ** 1000)])
def test_a_greyness_update_over_underflowed_products_is_their_weighted_average(kernel,
                                                                                greyness):
    # At 1e-200 and 1e-300 the one kernel product underflows to 0, which
    # read as a row of no mass gave a greyness of 0.0. At 1e-160 the
    # product scaled by 2**1200 would overflow once weighted by 2**1000.
    weights = prepare([[kernel]], [[0.5]])
    assert kernel_grey_next(weights, [kernel], [greyness], 1.0) == ((0.5,),
                                                                     (max(0.5, greyness) / 2,))


# Any finite float, often one of the edge values: signed zeros, the
# smallest subnormals and normal, the largest magnitudes used.
edge_s = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
                          -1e-310, 1e308, -1e308, 1.7976931348623157e308])
finite_s = st.one_of(edge_s, st.floats(allow_nan=False, allow_infinity=False, width=64))
# Several steepnesses, some so large that lam * x overflows to +-inf.
steep_any_s = st.one_of(st.sampled_from([0.01, 0.5, 1.0, 5.0, 1e6]), lam_s,
                        st.floats(min_value=1e-300, max_value=1e300))
non_finite_s = st.sampled_from([math.inf, -math.inf, math.nan])


@settings(max_examples=300)
@given(st.lists(finite_s, max_size=12), steep_any_s)
def test_sigmoids_is_the_two_branch_logistic_bit_for_bit(xs, lam):
    got = sigmoids(xs, lam)
    assert type(got) is tuple
    assert list(map(bits, got)) == [bits(reference.logistic(x, lam)) for x in xs]


@given(st.lists(finite_s, max_size=12), st.data(), non_finite_s, non_finite_s, steep_any_s)
def test_sigmoids_raises_at_the_first_non_finite_value(xs, data, bad, later, lam):
    # A second non-finite value after the first must not be the one named.
    i = data.draw(st.integers(0, len(xs)))
    j = data.draw(st.integers(i + 1, len(xs) + 1))
    plane = xs[:i] + [bad] + xs[i:]
    plane.insert(j, later)
    with pytest.raises(gc.MalformedInputError) as got:
        sigmoids(plane, lam)
    assert str(got.value) == f"activation input must be finite, got {bad}"


def cells_bits(cells):
    """Each cell's class and the bits of each of its fields."""
    return [(type(c), *(bits(getattr(c, f)) for f in c.__match_args__)) for c in cells]


CELL_CLASS = {"fgcm": gc.Ign, "fggcm": gc.Ggn}
ordered_pair_s = st.one_of(
    finite_s.map(lambda x: (x, x)),
    st.tuples(finite_s, finite_s).map(lambda p: tuple(sorted(p))),
    st.sampled_from([(0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (-5e-324, 5e-324)]))
grey_pair_s = st.tuples(finite_s, st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324]), st.floats(min_value=0.0, allow_infinity=False)))
GOOD_PAIR = {"fgcm": ordered_pair_s, "fggcm": grey_pair_s}
# One value that the family's constructor refuses, in either field.
BAD_PAIR = {
    "fgcm": st.sampled_from([(0.5, 0.25), (math.nan, 0.5), (0.5, math.nan), (math.nan, math.nan),
                             (-math.inf, 0.5), (0.5, math.inf), (math.inf, math.inf),
                             (-math.inf, -math.inf), (1e308, -1e308)]),
    "fggcm": st.sampled_from([(0.5, -0.25), (0.5, -5e-324), (math.nan, 0.1), (0.5, math.nan),
                              (math.inf, 0.1), (-math.inf, 0.1), (0.5, math.inf),
                              (0.5, -math.inf)]),
}


@settings(max_examples=200)
@given(st.sampled_from(["fgcm", "fggcm"]), st.data())
def test_each_grey_box_is_its_constructor_map(family, data):
    pairs = data.draw(st.lists(GOOD_PAIR[family], max_size=12))
    planes = tuple(map(tuple, zip(*pairs))) or ((), ())
    got = FAMILY[family].box(planes)
    assert type(got) is tuple
    assert cells_bits(got) == cells_bits(tuple(map(CELL_CLASS[family], *planes)))


@given(st.sampled_from(["fgcm", "fggcm"]), st.data())
def test_each_grey_box_raises_its_constructor_error_at_a_bad_value(family, data):
    pairs = data.draw(st.lists(GOOD_PAIR[family], max_size=12))
    pairs.insert(data.draw(st.integers(0, len(pairs))), data.draw(BAD_PAIR[family]))
    planes = tuple(map(tuple, zip(*pairs)))
    with pytest.raises(gc.MalformedInputError) as want:
        tuple(map(CELL_CLASS[family], *planes))
    with pytest.raises(gc.MalformedInputError) as got:
        FAMILY[family].box(planes)
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


class Real(float):
    """A float subclass: the number rule converts it, so it is no kept entry."""


# Entries a vector argument may hold: what a rule returns as it is, and
# what a rule converts or refuses.
ENTRY_S = st.one_of(unit, interval_s(), ggn_s(), st.sampled_from(
    [-0.0, 1e308, 0, 1, True, math.nan, math.inf, -math.inf, Real(0.5), "0.5", None]))
RULES = {"number": number, **{f"{family} cell": FAMILY[family].cell for family in gc.FAMILIES}}


@settings(max_examples=300)
@given(st.sampled_from(sorted(RULES)), st.data())
def test_a_vector_is_read_as_its_entries_are(rule, data):
    # A row whose every entry its rule returns as it is is taken whole,
    # any other entry by entry; either way the result, or the error with
    # its place, is that of reading each entry in turn.
    take = RULES[rule]
    kept = data.draw(st.sampled_from([unit, interval_s(), ggn_s()]))
    row = data.draw(st.one_of(vec(kept, 3), st.lists(ENTRY_S, max_size=4).map(tuple)))
    want = []
    try:
        for v in row:
            want.append(take(v))
    except gc.GreycogError as exc:
        with pytest.raises(type(exc)) as got:
            vector(row, take, "r")
        assert str(got.value) == f"r[{len(want) + 1}]: {exc}"
        return
    got = vector(row, take, "r")
    assert type(got) is tuple
    assert [(type(c), repr(c)) for c in got] == [(type(c), repr(c)) for c in want]
    if row and all(v is c for v, c in zip(row, want)):
        assert got is row


@given(st.integers(1, 4), st.data())
def test_ggn_metric_is_a_metric(n, data):
    a = data.draw(vec(ggn_s(), n))
    b = data.draw(vec(ggn_s(), n))
    c = data.draw(vec(ggn_s(), n))

    def d(x, y):
        return gc.state_distance("fggcm", x, y)

    assert d(a, a) == 0.0
    assert d(a, b) == d(b, a)
    assert d(a, c) <= d(a, b) + d(b, c) + 1e-12


@settings(max_examples=50)
@given(st.lists(st.lists(frac, min_size=1, max_size=1), min_size=8, max_size=40),
       st.floats(min_value=1e-10, max_value=1e-2))
def test_classify_tightening_epsilon_never_creates_fixed_points(states, eps):
    traj = gc.Trajectory("fcm", tuple(tuple(s) for s in states))
    loose = gc.classify(traj, epsilon=eps, max_period=2)
    tight = gc.classify(traj, epsilon=eps * 1e-3, max_period=2)
    if loose.verdict == "Chaotic":
        assert tight.verdict != "FixedPoint"
    if tight.verdict == "FixedPoint":
        assert loose.verdict == "FixedPoint"


@settings(max_examples=50)
@given(st.data())
def test_crisp_step_is_a_contraction_under_the_norm_bound(data):
    n = 3
    w = tuple(tuple(data.draw(unit) for _ in range(n)) for _ in range(n))
    norm = gc.frobenius_norm(w)
    if norm == 0.0:
        return
    k = data.draw(st.floats(min_value=0.05, max_value=0.95))
    # A subnormal norm sends 4k/norm past the largest float; any smaller
    # finite gain keeps the bound, so take the largest float there.
    lam = min(4.0 * k / norm, 1.7976931348623157e308)
    x = data.draw(vec(frac, n))
    y = data.draw(vec(frac, n))
    dx = gc.state_distance("fcm", x, y)
    fx = gc.fcm_step(w, x, lam)
    fy = gc.fcm_step(w, y, lam)
    assert gc.state_distance("fcm", fx, fy) <= k * dx + 1e-12


# A weight: zero three times in ten, else a number in [-1, 1].
sparse = st.tuples(frac, unit).map(lambda p: 0.0 if p[0] < 0.3 else p[1])


@settings(deadline=None)
@pytest.mark.parametrize("family", ["fcm", "fggcm"])
@given(st.integers(2, 12), st.data(), st.floats(min_value=0.05, max_value=0.999))
def test_t_alpha_is_within_the_banach_bound_below_the_criterion(family, n, data, k):
    # Below lambda ||W||_F < 4 the crisp update contracts in the Euclidean
    # norm, classify's fcm metric, at the rate q = lambda ||W||_F / 4, so
    # the gap after step t is at most q**t ||x1 - x0||, and t_alpha is at
    # most t* = ceil(ln(eps / ||x1 - x0||) / ln q), floored at 0. An fggcm
    # run's kernel plane is that update on K, classified as an fcm run.
    steps, eps = 400, 1e-8
    w = data.draw(mat(sparse, n))
    norm = gc.frobenius_norm(w)
    lam = 4.0 * k / norm if norm else math.inf
    assume(lam < math.inf)  # no weight, or too little for a finite lambda
    a = data.draw(vec(frac, n))
    if family == "fggcm":
        w = tuple(tuple(gc.Ggn(x, data.draw(grey_s)) for x in row) for row in w)
        a = tuple(gc.Ggn(x, data.draw(grey_s)) for x in a)
    states = run(family, w, a, lam, steps)
    kernels = [FAMILY[family].split(s)[0] for s in states]
    d = gc.state_distance("fcm", kernels[1], kernels[0])
    q = lam * norm / 4.0
    bound = math.ceil(math.log(eps / d) / math.log(q)) if d > eps else 0
    assume(bound <= steps - 2)
    cls = gc.classify(gc.Trajectory("fcm", kernels), epsilon=eps)
    assert cls.verdict == "FixedPoint" and cls.t_alpha <= bound, (cls, bound)


@given(st.integers(1, 4), st.data())
def test_w_star_of_degenerate_intervals_is_the_magnitude_matrix(n, data):
    w = tuple(tuple(data.draw(unit) for _ in range(n)) for _ in range(n))
    boxed = tuple(tuple(gc.Ign(v, v) for v in row) for row in w)
    ws = gc.w_star(boxed)
    for i in range(n):
        for j in range(n):
            assert ws[i][j] == abs(w[i][j])
    assert gc.frobenius_norm(ws) == gc.frobenius_norm(
        tuple(tuple(abs(v) for v in row) for row in w))


@given(st.integers(1, 6), st.data(), steep_s)
def test_degenerate_interval_criterion_is_the_crisp_criterion(n, data, lam):
    """The abstract's special case: on degenerate intervals the FGCM
    criterion is the FCM one, float for float."""
    w = data.draw(mat(unit, n))
    boxed = tuple(tuple(gc.Ign(v, v) for v in row) for row in w)
    assert gc.check_fgcm(boxed, lam) == gc.check_fcm(w, lam)


@settings(max_examples=100)
@given(st.integers(1, 10), st.data(), st.floats(0.0, 10.0, exclude_min=True))
def test_the_kernel_criterion_of_an_interval_map_is_below_its_interval_criterion(n, data, lam):
    """The abstract's special case, FGCM within FGGCM: each interval cell
    reduced by `ggn_from_union` has the midpoint as its kernel, and |mid|
    <= W*_ij entry by entry, which rounding keeps. So the crisp criterion
    on the kernel matrix K is at most the interval criterion on W, float
    for float, and an interval UniqueFixedPoint is a kernel one too."""
    end = st.one_of(signed_zero, unit.map(abs))
    cells = st.tuples(end, end, st.booleans()).map(
        lambda p: gc.Ign(-max(p[:2]), -min(p[:2])) if p[2] else gc.Ign(min(p[:2]), max(p[:2])))
    w = data.draw(mat(cells, n))
    k = tuple(tuple(gc.ggn_from_union(gc.GreyUnion(((c.lo, c.hi),))).kernel for c in row)
              for row in w)
    kernel, interval = gc.check_fcm(k, lam), gc.check_fgcm(w, lam)
    assert kernel.criterion_value <= interval.criterion_value
    if interval.outcome == gc.UNIQUE:
        assert kernel.outcome == gc.UNIQUE


# Kernels away from zero, so that no row of the condition matrix is
# degenerate.
kernel_s = st.tuples(st.floats(0.01, 1.0), st.booleans()).map(lambda p: -p[0] if p[1] else p[0])


@settings(max_examples=50)
@given(st.integers(1, 6), st.data(), steep_s)
def test_zero_greyness_kernel_criterion_is_the_crisp_criterion(n, data, lam):
    """The abstract's special case: with zero greyness the FGGCM kernel
    criterion is the FCM one on the kernel matrix, float for float."""
    w = data.draw(mat(kernel_s, n))
    a = data.draw(vec(frac, n))
    m = gc.Model("fggcm", tuple(f"c{i}" for i in range(n)),
                 tuple(tuple(gc.Ggn(v, 0.0) for v in row) for row in w),
                 tuple(gc.Ggn(v, 0.0) for v in a), lam)
    traj = gc.simulate(m, 20)
    report = gc.check_fggcm(m, traj, gc.classify(traj, max_period=2))
    assert report.kernel_verdict == gc.check_fcm(w, lam)


@given(st.floats(min_value=0.05, max_value=4.0))
def test_verdict_criterion_scales_linearly_in_steepness(lam):
    from conftest import WEB_W
    one = gc.check_fcm(WEB_W, lam)
    two = gc.check_fcm(WEB_W, 2.0 * lam)
    assert two.criterion_value == abs(two.criterion_value)
    assert math.isclose(two.criterion_value, 2.0 * one.criterion_value,
                        rel_tol=1e-12)


@settings(max_examples=50)
@given(st.integers(1, 3), st.data())
def test_crisp_model_doc_round_trip(n, data):
    w = tuple(tuple(data.draw(unit) for _ in range(n)) for _ in range(n))
    init = data.draw(vec(frac, n))
    names = tuple(f"n{i}" for i in range(n))
    m = gc.Model("fcm", names, w, init, 1.5)
    assert gc.parse_model(gc.model_to_doc(m)) == m


signed_zero = st.sampled_from([0.0, -0.0])
tiny_s = st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308])


@st.composite
def any_models(draw):
    """Models of every family with n 1..5: weights within [-1, 1], initial
    values up to +-1e308, signed zeros, subnormals, degenerate intervals
    and zero greyness."""
    family = draw(st.sampled_from(gc.FAMILIES))
    n = draw(st.integers(1, 5))
    weight = st.one_of(signed_zero, tiny_s, unit)
    value = st.one_of(signed_zero, tiny_s, st.floats(-1e308, 1e308))
    grey = st.one_of(signed_zero, tiny_s.map(abs), st.floats(0.0, 1e308))

    def cell(strategy):
        x = draw(strategy)
        if family == "fcm":
            return x
        if family == "fgcm":
            return gc.Ign(*sorted((x, draw(st.one_of(st.just(x), strategy)))))
        return gc.Ggn(x, draw(grey))

    w = tuple(tuple(cell(weight) for _ in range(n)) for _ in range(n))
    a = tuple(cell(value) for _ in range(n))
    lam = draw(st.one_of(tiny_s.map(abs), st.floats(0.0, 1e308, exclude_min=True)))
    return gc.Model(family, tuple(f"n{i}" for i in range(n)), w, a, lam)


def model_bits(m):
    cells = [c for row in m.weights for c in row] + list(m.initial)
    return (m.family, m.node_names, bits(m.lam),
            [b"".join(map(bits, cell_fields(m.family, c))) for c in cells])


@settings(max_examples=150)
@given(any_models())
def test_model_doc_round_trips_through_json_bitwise(m):
    """model_to_doc, JSON text and parse_model give back every double, the
    sign of a zero included, which == would not tell apart."""
    again = gc.parse_model(json.loads(json.dumps(gc.model_to_doc(m))))
    assert model_bits(again) == model_bits(m)


@given(st.integers(1, 8), st.data(), steep_s)
def test_degenerate_grey_runs_reproduce_the_crisp_run_bitwise(n, data, lam):
    """Contract 1 through whole trajectories of random maps."""
    w = data.draw(mat(unit, n))
    a = data.draw(vec(unit, n))
    crisp = run("fcm", w, a, lam, 30)
    ivl = run("fgcm", tuple(tuple(gc.Ign(v, v) for v in row) for row in w),
              tuple(gc.Ign(v, v) for v in a), lam, 30)
    ggn = run("fggcm", tuple(tuple(gc.Ggn(v, 0.0) for v in row) for row in w),
              tuple(gc.Ggn(v, 0.0) for v in a), lam, 30)
    for cs, iss, gs in zip(crisp, ivl, ggn):
        for c, i, g in zip(cs, iss, gs):
            assert bits(i.lo) == bits(c) == bits(i.hi) == bits(g.kernel)
            assert g.greyness == 0.0


@given(st.integers(1, 8), st.data(), steep_s)
def test_greyness_planes_never_move_a_kernel(n, data, lam):
    """Contract 2 through whole trajectories: two unrelated greyness
    assignments over the same kernels give bitwise equal kernel tracks."""
    k = data.draw(mat(unit, n))
    k0 = data.draw(vec(unit, n))

    def grey_run():
        g = data.draw(mat(frac, n))
        g0 = data.draw(vec(frac, n))
        w = tuple(tuple(map(gc.Ggn, kr, gr)) for kr, gr in zip(k, g))
        return run("fggcm", w, tuple(map(gc.Ggn, k0, g0)), lam, 30)

    for s1, s2 in zip(grey_run(), grey_run()):
        assert [bits(c.kernel) for c in s1] == [bits(c.kernel) for c in s2]


@given(st.integers(1, 8), st.data(), steep_s)
def test_interval_trajectory_encloses_member_trajectories(n, data, lam):
    """Crisp runs of member weights and initial values (endpoints
    included) stay inside the interval run at every step, without outward
    rounding."""
    w = data.draw(mat(interval_s(), n))
    a = data.draw(vec(interval_s(), n))
    fw = data.draw(mat(member_s, n))
    fa = data.draw(vec(member_s, n))
    crisp = run("fcm", tuple(tuple(map(member, wr, fr)) for wr, fr in zip(w, fw)),
                tuple(map(member, a, fa)), lam, 60)
    for cs, iss in zip(crisp, run("fgcm", w, a, lam, 60)):
        for c, i in zip(cs, iss):
            assert i.lo <= c <= i.hi


# Below a criterion's threshold the map is a contraction, so it has one
# fixed point and every run ends there (Banach). The step counts come from
# the contraction rate, sized for a tenth of UNIQUE_TOL or less; the rest
# is left for rounding.
UNIQUE_TOL = 1e-9
grey_cell_s = st.tuples(frac, grey_s).map(lambda p: gc.Ggn(*p))
grey_weight_s = st.tuples(kernel_s, grey_s).map(lambda p: gc.Ggn(*p))
one_signed_s = st.tuples(frac, frac, st.booleans()).map(
    lambda p: gc.Ign(-max(p[:2]), -min(p[:2])) if p[2] else gc.Ign(min(p[:2]), max(p[:2])))


def contraction_steps(rate, gap, tol):
    """Steps after which a gap that shrinks by rate each step is <= tol."""
    return max(1, math.ceil(math.log(tol / gap) / math.log(rate)))


def sup_gap(family, x, y):
    """Largest difference of any float field between two states of cells."""
    return max(abs(getattr(a, f) - getattr(b, f))
               for a, b in zip(x, y) for f in FAMILY[family].fields)


def end_state(family, w, a, lam, steps):
    return run(family, w, a, lam, steps)[-1]


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.data(), st.floats(0.05, 0.95))
def test_fgcm_runs_below_the_interval_criterion_end_at_one_state(n, data, k):
    """lambda ||W*||_F = 4k < 4 with one-signed weights. From step 1 every
    endpoint is >= 0, so each endpoint sum takes a fixed endpoint of each
    weight, of magnitude <= W*_ij: the update contracts the vector of
    per-node max(|d lo|, |d hi|) by k."""
    w = data.draw(mat(one_signed_s, n))
    norm = gc.frobenius_norm(gc.w_star(w))
    assume(norm > 0.0)
    lam = 4.0 * k / norm
    steps = 1 + contraction_steps(k, math.sqrt(n), UNIQUE_TOL / 10)
    a, b = (data.draw(vec(interval_s(), n)) for _ in range(2))
    assert sup_gap("fgcm", end_state("fgcm", w, a, lam, steps),
                   end_state("fgcm", w, b, lam, steps)) <= UNIQUE_TOL


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.data(), st.floats(0.05, 0.9))
def test_fggcm_runs_below_the_kernel_criterion_end_at_one_state(n, data, u):
    """lambda ||K||_F = 4k < 4 makes the kernel track a contraction by k.
    From step 1 each kernel is at most q = sigmoid(lambda max_i sum_j
    |K_ij|), and once the kernels agree the greyness update contracts by
    q in the max norm. lambda is drawn below both 4/||K||_F and the
    lambda at which q reaches 0.99, so that the runs stay short."""
    w = data.draw(mat(grey_weight_s, n))
    k_w = [[c.kernel for c in row] for row in w]
    r = max(sum(map(abs, row)) for row in k_w)
    lam = u * min(4.0 / gc.frobenius_norm(k_w), math.log(99.0) / r)
    k = lam * gc.frobenius_norm(k_w) / 4.0
    q = 1.0 / (1.0 + math.exp(-lam * r))
    steps = (1 + contraction_steps(k, math.sqrt(n), UNIQUE_TOL / 1000)
             + contraction_steps(q, 0.5, UNIQUE_TOL / 1000))
    a, b = (data.draw(vec(grey_cell_s, n)) for _ in range(2))
    assert sup_gap("fggcm", end_state("fggcm", w, a, lam, steps),
                   end_state("fggcm", w, b, lam, steps)) <= UNIQUE_TOL


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.data(), st.floats(0.1, 2.0))
def test_greyness_contracts_by_q_g_once_the_kernels_have_converged(n, data, u):
    """At a kernel fixed point a, the greyness update is g_i' = a'_i times
    a weighted average of max(wg_ij, g_j), so it contracts by q_g =
    max_i a'_i in the max norm, whatever the condition-matrix norm is.
    The kernels start at an exact float fixed point (a' = a), reached by
    the crisp run on the kernel matrix, which is the kernel track."""
    w = data.draw(mat(grey_weight_s, n))
    k_w = tuple(tuple(c.kernel for c in row) for row in w)
    lam = u * 4.0 / gc.frobenius_norm(k_w)
    fixed = end_state("fcm", k_w, data.draw(vec(frac, n)), lam, 300)
    assume(gc.fcm_step(k_w, fixed, lam) == fixed)
    q_g = max(fixed)
    assume(q_g <= 0.99)
    g0, g1 = data.draw(vec(grey_s, n)), data.draw(vec(grey_s, n))
    gap = max(abs(x - y) for x, y in zip(g0, g1))
    assume(gap > 0.0)
    steps = contraction_steps(q_g, gap, UNIQUE_TOL / 10)
    ends = [end_state("fggcm", w, tuple(map(gc.Ggn, fixed, g)), lam, steps) for g in (g0, g1)]
    for end in ends:
        assert tuple(c.kernel for c in end) == fixed
    assert max(abs(x.greyness - y.greyness) for x, y in zip(*ends)) <= UNIQUE_TOL


# A map whose kernel criterion certifies (lambda ||K||_F = 3.7996 < 4)
# while the paper's greyness condition cannot (||C||_F = 1.1349 at the
# evaluation state): found by a seeded search over n = 3 maps.
RATE_LAM = 2.374670927576722
RATE_K = ((0.5062647823034059, 0.8761918880689004, 0.08515623310222376),
          (0.0, 0.0, 0.8735559475663939),
          (0.45267818907554624, -0.14613533071892637, 0.7345575511741531))
RATE_G = ((0.9566878480296992, 1.8606496360743183, 1.349183510970628),
          (0.17867248975111072, 0.0896645518456306, 1.0357286151520961),
          (1.3700639710926188, 1.9227663474121797, 2.868116998183623))
RATE_INITIAL = ((0.6361380682559389, 1.2109200352946474),
                (0.676692796391907, 2.8467294257622577),
                (0.9381122358877382, 2.8995555542833635))


def test_the_greyness_rate_settles_what_the_greyness_norm_cannot():
    """Each new greyness is a'_i times a share-weighted average of
    max(G_ij, g_j), and a'_i <= q = sigmoid(lambda max_i sum_j |K_ij|)
    while every kernel lies in [0, 1]. So two runs that share their
    kernel planes hold their greyness inf-gap within q^t times its start
    at every step t, with no slack, whatever the condition norm says."""
    w = tuple(tuple(map(gc.Ggn, k_row, g_row)) for k_row, g_row in zip(RATE_K, RATE_G))
    kernels, greyness = zip(*RATE_INITIAL)
    m = gc.Model("fggcm", ("a", "b", "c"), w, tuple(map(gc.Ggn, kernels, greyness)), RATE_LAM)
    for steps in (100, 400):
        traj = gc.simulate(m, steps)
        cls = gc.classify(traj)
        report = gc.check_fggcm(m, traj, cls)
        assert cls.verdict == "FixedPoint"
        assert (report.kernel_verdict.outcome, report.greyness_verdict.outcome) == (
            gc.UNIQUE, gc.INCONCLUSIVE)
    q = 1.0 / (1.0 + math.exp(-RATE_LAM * max(sum(map(abs, row)) for row in RATE_K)))
    assert q < 1.0
    starts = [greyness, (0.0,) * 3, (10.0,) * 3]
    runs = [run("fggcm", w, tuple(map(gc.Ggn, kernels, g)), RATE_LAM, 400) for g in starts]
    planes = [[tuple(c.kernel for c in state) for state in states] for states in runs]
    assert planes[1] == planes[0] and planes[2] == planes[0]
    for i, j in [(0, 1), (0, 2), (1, 2)]:
        gaps = [max(abs(x.greyness - y.greyness) for x, y in zip(a, b))
                for a, b in zip(runs[i], runs[j])]
        assert all(gap <= q ** t * gaps[0] for t, gap in enumerate(gaps)), (i, j)
