"""Acceptance gate: one test per benchmark criterion.

Each criterion is atomic: it either holds at the stated tolerance or the
test fails with the faithful values spelled out. One criterion fails by
design against its reference targets: criterion 2, whose condition-norm
targets do not follow from the stated definitions (README, "Acceptance
suite and known target mismatches"). Nothing here is loosened to force
green.

Criterion 3 checks the regime table across horizons. The classifier's
"Chaotic" means "neither, within this window", so each claimed attractor
is asserted where two long horizons agree on it, and the 100-step
verdict is asserted to be exactly what a window that short can see.
"""

import math
import random

import numpy as np
import pytest

import greycog as gc
from greycog.cli import _analyze
from conftest import (
    LAMBDAS,
    PRINTED_GGN,
    PRINTED_IGN,
    PRINTED_WSTAR,
    TABLE_CONDITION,
    TABLE_NORMS,
    WEB_W,
)


def _kernels(model):
    return tuple(tuple(c.kernel for c in row) for row in model.weights)


def _project(traj, pick):
    states = tuple(tuple(pick(c) for c in s) for s in traj.states)
    return gc.Trajectory("fcm", states)


def test_criterion_1_norm_table():
    """Five norm rows times four steepness values, within 5e-4."""
    base = {
        "W": gc.frobenius_norm(WEB_W),
        "Wstar": gc.frobenius_norm(gc.w_star(gc.inject_greyness(WEB_W, 0.01))),
        "kernel": gc.frobenius_norm(_kernels(gc.build("web_fggcm", 1.0))),
        "kernel_case1": gc.frobenius_norm(_kernels(gc.build("web_case1_fggcm", 1.0))),
        "kernel_case2": gc.frobenius_norm(_kernels(gc.build("web_case2_fggcm", 1.0))),
    }
    bad = []
    for row, targets in TABLE_NORMS.items():
        for lam, want in zip(LAMBDAS, targets):
            got = lam * base[row]
            if abs(got - want) > 5e-4:
                bad.append(f"{row} lam={lam}: got {got:.6f}, target {want}")
    assert not bad, "norm table mismatches: " + "; ".join(bad)
    print("criterion 1: PASS - 20/20 norm cells within 5e-4")


def test_criterion_2_condition_norm_targets():
    """Greyness condition norm against its reference targets.

    The two pass/fail targets (0.1984 at lam=0.5, 0.3466 at lam=1) are not
    reproducible from the stated update and condition-matrix definitions;
    the faithful values are asserted against the targets anyway and the
    failure is intentional. The lam in {2, 4} rows have no well-defined
    evaluation state and are reported for information only.
    """
    got = {}
    for lam in LAMBDAS:
        m = gc.build("web_fggcm", lam)
        traj = gc.simulate(m, 100)
        state = traj.states[-1]
        mt = gc.grey_condition_matrix(
            m.weights,
            tuple(c.kernel for c in state),
            tuple(c.greyness for c in state),
            lam,
        )
        got[lam] = gc.frobenius_norm(mt)
    for lam in (2.0, 4.0):
        print(f"criterion 2 (informational, not pass/fail): lam={lam:g} "
              f"condition norm {got[lam]:.6f}, reference {TABLE_CONDITION[lam]}")
    bad = []
    for lam in (0.5, 1.0):
        want = TABLE_CONDITION[lam]
        if abs(got[lam] - want) > 5e-4:
            bad.append(
                f"lam={lam:g}: faithful value {got[lam]:.6f} vs target {want} "
                f"(gap {abs(got[lam] - want):.4f})"
            )
    if bad:
        print("criterion 2: FAIL (intentional) - " + "; ".join(bad))
        pytest.fail(
            "condition-norm targets not reproducible from the stated "
            "definitions; faithful values reported: " + "; ".join(bad) +
            ". Every variant evaluation tried (gate orientation, leading "
            "factor, evaluation state, norm) was ruled out; see README "
            "'Known target mismatches'. The value itself is computed "
            "faithfully and is regression-locked in the unit suite.",
        )
    print("criterion 2: PASS")


def _regime_runs(steps):
    """The fifteen regime-table runs over `steps` steps.

    Returns (label, claimed verdict, trajectory) triples: the crisp and
    interval maps whole, the kernel/greyness map as its kernel and its
    greyness projections.
    """
    runs = []
    for lam in LAMBDAS:
        want = "FixedPoint" if lam in (0.5, 1.0) else "LimitCycle"
        traj = gc.simulate(gc.build("web_fcm", lam), steps)
        runs.append((f"fcm lam={lam:g}", want, traj))

    for lam in (0.5, 1.0, 2.0):
        traj = gc.simulate(gc.build("web_fgcm", lam), steps)
        runs.append((f"fgcm lam={lam:g}", "FixedPoint", traj))

    for lam in LAMBDAS:
        want = "FixedPoint" if lam in (0.5, 1.0) else "LimitCycle"
        traj = gc.simulate(gc.build("web_fggcm", lam), steps)
        runs.append((f"fggcm kernels lam={lam:g}", want,
                     _project(traj, lambda c: c.kernel)))
        runs.append((f"fggcm greyness lam={lam:g}", want,
                     _project(traj, lambda c: c.greyness)))
    return runs


def _verdict(traj):
    """(verdict, period, t_alpha) at eps 1e-8 and period cap 50."""
    cls = gc.classify(traj, epsilon=1e-8, max_period=50)
    return cls.verdict, cls.period, cls.t_alpha


def _window_verdict(settled, steps):
    """The verdict a `steps`-step run must give, given its settled one.

    An attractor that holds for at least one full period P inside the
    window (t_alpha <= steps - P, P = 1 for a fixed point) is seen with
    the same verdict, period and t_alpha; a longer transient reads as
    Chaotic.
    """
    verdict, period, t_alpha = settled
    if t_alpha <= steps - (period or 1):
        return settled
    return ("Chaotic", None, None)


def test_criterion_3_regime_table():
    """The fifteen regime claims, judged where the verdict has settled.

    Each run is classified at eps 1e-8, period cap 50, over 100, 200 and
    400 steps. The 200- and 400-step verdicts must agree in verdict,
    period and t_alpha, with t_alpha < 200, so the verdict is no artefact
    of the window; that settled verdict must equal the claim. The
    100-step verdict must then be what `_window_verdict` derives from the
    settled one: identical when the attractor is reached inside the
    window, Chaotic when the transient is longer. Four runs are in the
    second case (fcm lam=2 locks at t=154, fgcm lam=1 at t=106, fggcm
    lam=2 kernels at t=156 and greyness at t=106), so the README's "the
    misses are transients, not wrong attractors" is asserted, not
    assumed. A wrong attractor, a wrong period or a drifted t_alpha at
    any horizon fails the test.
    """
    short, long_, longer = 100, 200, 400
    verdicts = {}  # (label, claim) -> {steps: (verdict, period, t_alpha)}
    for steps in (short, long_, longer):
        for label, want, traj in _regime_runs(steps):
            verdicts.setdefault((label, want), {})[steps] = _verdict(traj)

    bad = []
    transients = 0
    for (label, want), by_steps in verdicts.items():
        settled = by_steps[long_]
        if by_steps[longer] != settled:
            bad.append(f"{label}: T={long_} gives {settled} but "
                       f"T={longer} gives {by_steps[longer]}")
            continue
        if settled[2] is None or settled[2] >= long_:
            bad.append(f"{label}: not settled before t={long_}, "
                       f"got {settled}")
            continue
        if settled[0] != want:
            bad.append(f"{label}: expected {want}, got {settled}")
        seen = _window_verdict(settled, short)
        if by_steps[short] != seen:
            bad.append(f"{label}: T={short} gives {by_steps[short]}, "
                       f"but settled {settled} implies {seen}")
        transients += seen[0] == "Chaotic"
    assert not bad, (
        f"regime table at eps=1e-8, P_max=50, T={short}/{long_}/{longer}, "
        "as (verdict, period, t_alpha): " + "; ".join(bad))
    print(f"criterion 3: PASS - {len(verdicts)}/{len(verdicts)} regime claims "
          f"hold at T={long_} and T={longer} with identical t_alpha; at "
          f"T={short}, {len(verdicts) - transients} match exactly and "
          f"{transients} slower transients read Chaotic")


def test_criterion_4_reduction_properties():
    """Crisp maps are exact special cases of both grey engines."""
    crisp = {lam: gc.simulate(gc.build("web_fcm", lam), 100) for lam in LAMBDAS}
    base = gc.build("web_fcm", 1.0)

    for lam in LAMBDAS:
        w = tuple(tuple(gc.Ggn(v, 0.0) for v in row) for row in base.weights)
        a = tuple(gc.Ggn(v, 0.0) for v in base.initial)
        m = gc.Model("fggcm", base.node_names, w, a, lam)
        for cs, gs in zip(crisp[lam].states, gc.simulate(m, 100).states):
            for cv, cell in zip(cs, gs):
                assert cell.kernel == cv, "kernel drifted off the crisp run"
                assert cell.greyness == 0.0

        wi = tuple(tuple(gc.Ign(v, v) for v in row) for row in base.weights)
        ai = tuple(gc.Ign(v, v) for v in base.initial)
        mi = gc.Model("fgcm", base.node_names, wi, ai, lam)
        for cs, is_ in zip(crisp[lam].states, gc.simulate(mi, 100).states):
            for cv, cell in zip(cs, is_):
                assert cell.lo == cv and cell.hi == cv

        mg = gc.build("web_fggcm", lam)
        verdicts = _analyze(mg, 100, 1e-8, 50)[2]
        want = gc.check_fcm(_kernels(mg), lam).criterion_value
        assert abs(verdicts["kernel"].criterion_value - want) <= 1e-12
    print("criterion 4: PASS - zero-greyness and degenerate-interval runs "
          "are bit-equal to the crisp run at all four steepness values")


def test_criterion_5_contraction_mechanics():
    """Random contractive maps: trajectories merge at the predicted rate.

    The per-step ratio is checked while the gap is resolvable in doubles
    (above 1e-12); below that the quotient of two rounding residuals is
    noise and the check degrades to "never re-diverges above the floor".
    """
    rng = np.random.default_rng(20240817)
    floor = 1e-12
    ratio_checks = 0
    for _ in range(200):
        w = tuple(tuple(float(v) for v in row)
                  for row in rng.uniform(-1.0, 1.0, (3, 3)))
        norm = gc.frobenius_norm(w)
        k = float(rng.uniform(0.05, 0.85))
        lam = 4.0 * k / norm
        bound = lam * norm / 4.0 + 1e-9
        x = tuple(float(v) for v in rng.uniform(0.0, 1.0, 3))
        y = tuple(float(v) for v in rng.uniform(0.0, 1.0, 3))
        d = gc.state_distance("fcm", x, y)
        for _ in range(100):
            x = gc.fcm_step(w, x, lam)
            y = gc.fcm_step(w, y, lam)
            nd = gc.state_distance("fcm", x, y)
            if d > floor:
                assert nd / d <= bound, f"ratio {nd / d} above bound {bound}"
                ratio_checks += 1
            else:
                assert nd <= floor, f"re-diverged to {nd} from {d}"
            d = nd
        assert d <= 1e-6, f"trajectories still {d} apart after 100 steps"
    assert ratio_checks >= 2000  # the bound is exercised, not skipped
    print(f"criterion 5: PASS - 200 random contractive maps merged within "
          f"1e-6; {ratio_checks} per-step ratio checks within bound")


def test_criterion_6_greyness_stationarity():
    """Converged greyness vectors are stationary under one more update."""
    runs = [(vid, lam) for vid in ("web_fggcm", "web_case1_fggcm", "web_case2_fggcm")
            for lam in LAMBDAS]
    fixed_points = 0
    applicable_runs = 0
    base = gc.build("web_fcm", 1.0)
    synthetic = gc.Model(
        "fggcm", base.node_names,
        tuple(tuple(gc.Ggn(v, 0.0) for v in row) for row in base.weights),
        tuple(gc.Ggn(v, 0.01 if v else 0.0) for v in base.initial),
        0.5,
    )
    models = [gc.build(vid, lam) for vid, lam in runs] + [synthetic]
    for m in models:
        traj, cls, *_ = _analyze(m, 100, 1e-8, 50)
        if cls.verdict != "FixedPoint":
            continue
        fixed_points += 1
        final = traj.states[-1]
        nxt = gc.simulate(gc.Model(m.family, m.node_names, m.weights, final, m.lam), 1).states[1]
        resid = math.sqrt(sum((a.greyness - b.greyness) ** 2
                              for a, b in zip(nxt, final)))
        assert resid <= 1e-8, f"greyness residual {resid} for {m.lam}"
        greys = tuple(c.greyness for c in final)
        # The ungated matrix is exact where no weight greyness exceeds its
        # column's state greyness.
        if all(g >= c.greyness for row in m.weights for g, c in zip(greys, row)):
            applicable_runs += 1
            ungated = gc.grey_condition_matrix(
                m.weights, tuple(c.kernel for c in final), None, m.lam)
            g = np.array(greys)
            err = float(np.linalg.norm(g - np.asarray(ungated) @ g))
            assert err <= 1e-8, f"eigen residual {err}"
    assert fixed_points >= 3, "too few fixed-point runs to exercise the check"
    assert applicable_runs >= 1, "ungated criterion never applicable"
    print(f"criterion 6: PASS - {fixed_points} fixed-point runs stationary, "
          f"{applicable_runs} of them eigen-consistent")


def test_criterion_7_interval_containment():
    """Monte-Carlo members never escape interval results. Zero slack.

    Members are evaluated with the same scalar operations in the same
    order as the interval engine. Products and `+=` round monotonically,
    so a member's row sum lies inside the interval row sum exactly. The
    two-branch float logistic is not (README's fgcm paragraph): a member
    strictly inside the box can map an ulp outside the activated box where
    the logistic inverts two neighbouring sums, which these seeded draws
    do not reach.
    """
    from greycog._core import interval_dot_lr, sigmoids

    rnd = random.Random(7119)

    def iv():
        a, b = rnd.uniform(-1, 1), rnd.uniform(-1, 1)
        return gc.Ign(min(a, b), max(a, b))

    checks = 0
    for _ in range(500):
        n = rnd.randint(1, 5)
        w = tuple(iv() for _ in range(n))
        a = tuple(iv() for _ in range(n))
        box = gc.Ign(*interval_dot_lr([c.lo for c in w], [c.hi for c in w],
                                      [c.lo for c in a], [c.hi for c in a]))
        lam = rnd.uniform(0.1, 8.0)
        # The engine's activation of the box: a one-step run of the
        # one-node map whose weight is [1, 1], so the row sum is the box.
        unit = gc.Model("fgcm", ("a",), ((gc.Ign(1.0, 1.0),),), (box,), lam)
        sbox = gc.simulate(unit, 1).states[1][0]
        for _ in range(20):
            ws = [rnd.uniform(c.lo, c.hi) for c in w]
            As = [rnd.uniform(c.lo, c.hi) for c in a]
            s = 0.0
            for x, y in zip(ws, As):
                s += x * y
            assert box.lo <= s <= box.hi
            t = rnd.uniform(box.lo, box.hi)
            member = sigmoids([t], lam)[0]
            assert sbox.lo <= member <= sbox.hi
            checks += 2
    print(f"criterion 7: PASS - {checks} member samples stayed inside "
          "their interval results")


def test_criterion_8_corpus_fidelity():
    """Weight matrices match their printed forms entrywise."""
    ign = gc.inject_greyness(WEB_W, 0.01)
    ws = gc.w_star(ign)
    ggn = gc.build("web_fggcm", 1.0).weights
    for i in range(7):
        for j in range(7):
            lo, hi = PRINTED_IGN[i][j]
            assert ign[i][j].lo == pytest.approx(lo, abs=1e-12)
            assert ign[i][j].hi == pytest.approx(hi, abs=1e-12)
            assert ws[i][j] == pytest.approx(PRINTED_WSTAR[i][j], abs=1e-12)
            k, g = PRINTED_GGN[i][j]
            assert ggn[i][j].kernel == pytest.approx(k, abs=1e-12)
            assert ggn[i][j].greyness == pytest.approx(g, abs=1e-12)
    print("criterion 8: PASS - 49 cells of all three printed matrices "
          "reproduced entrywise")
