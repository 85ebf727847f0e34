"""Whole runs of `simulate` against an independent reference engine.

The reference below is written from README's update rules and imports
nothing from `greycog._core`: per-row left-to-right `+=` sums, the
two-branch logistic, interval ends as the min and the max of four
endpoint products (each activated low end the smaller of the node's two
activated ends, each high end the larger), and the greyness as the
activated kernel times the |kernel product|-weighted average of
max(weight greyness, state greyness), by `abs` and `max`, a row whose
mass sum is above 0 and below 2**-969 summed again with the state kernels
scaled by 2**600. It runs every requested step, with no
early stop, no blocks and no cycle copy. It calls the same `math.exp` as
the package, so the property holds bit for bit on every platform, where
the md5 pins of whole runs hold for one `exp` only.
"""

import math
import struct

from hypothesis import given, settings, strategies as st

import greycog as gc

unit = st.floats(-1.0, 1.0, allow_nan=False)
signed_zero = st.sampled_from([0.0, -0.0])


def logistic(lam, x):
    z = lam * x
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def crisp_step(w, a, lam):
    out = []
    for row in w:
        s = 0.0
        for wij, aj in zip(row, a):
            s += wij * aj
        out.append(logistic(lam, s))
    return tuple(out)


def interval_step(w, x, lam):
    """w and x hold (lo, hi) pairs."""
    out = []
    for row in w:
        lo = hi = 0.0
        for (wl, wh), (xl, xh) in zip(row, x):
            p = (wl * xl, wl * xh, wh * xl, wh * xh)
            lo += min(p)
            hi += max(p)
        a_lo, a_hi = logistic(lam, lo), logistic(lam, hi)
        out.append((min(a_lo, a_hi), max(a_lo, a_hi)))
    return tuple(out)


def grey_masses(row, x, scale):
    """A row's mass and weighted mass, each |kernel product| taken with the
    state kernel scaled by 2**scale (exact here, as every kernel is in [-1, 1])."""
    mass = weighted = 0.0
    for (wk, wg), (xk, xg) in zip(row, x):
        p = abs(wk * math.ldexp(xk, scale))
        mass += p
        weighted += max(wg, xg) * p
    return mass, weighted


def grey_step(w, x, lam):
    """w and x hold (kernel, greyness) pairs."""
    out = []
    for row in w:
        s = 0.0
        for (wk, _), (xk, _) in zip(row, x):
            s += wk * xk
        mass, weighted = grey_masses(row, x, 0)
        if 0.0 < mass < 2.0 ** -969:
            mass, weighted = grey_masses(row, x, 600)
        k = logistic(lam, s)
        out.append((k, k * (weighted / mass) if mass > 0.0 else 0.0))
    return tuple(out)


STEP = {"fcm": crisp_step, "fgcm": interval_step, "fggcm": grey_step}


def plain(family, cell):
    """A cell as the reference engine holds it: a float or a pair."""
    if family == "fcm":
        return cell
    if family == "fgcm":
        return (cell.lo, cell.hi)
    return (cell.kernel, cell.greyness)


def state_bits(family, state):
    """The bytes of every float field of a state of plain cells."""
    values = state if family == "fcm" else [v for pair in state for v in pair]
    return struct.pack(f"<{len(values)}d", *values)


def reference_run(m, steps):
    """Every state of m over steps, the initial one first, as plain cells."""
    w = tuple(tuple(plain(m.family, c) for c in row) for row in m.weights)
    x = tuple(plain(m.family, c) for c in m.initial)
    states = [x]
    for _ in range(steps):
        x = STEP[m.family](w, x, m.lam)
        states.append(x)
    return states


@st.composite
def runs(draw):
    """A map of 1 to 9 nodes in any family over up to 400 steps. A small
    lambda reaches an exact fixed point and lambda 5 (with inhibitory
    weights mostly a 2-cycle) an exact cycle or none, so `simulate` stops
    early and copies in some runs and computes every step in others.
    Weight ends and initial cells take both zero signs; initial intervals
    may be negative or straddle zero."""
    family = draw(st.sampled_from(gc.FAMILIES))
    n = draw(st.integers(1, 9))
    regime = draw(st.sampled_from(["contract", "inhibit", "steep"]))
    lam = draw(st.floats(0.01, 1.0)) if regime == "contract" else 5.0
    end = st.one_of(signed_zero, st.floats(-1.0, 0.0) if regime == "inhibit" else unit)
    value = st.one_of(signed_zero, st.floats(-2.0, 2.0))
    greyness = st.one_of(signed_zero, st.floats(0.0, 2.0))

    def cell(x):
        if family == "fcm":
            return draw(x)
        if family == "fgcm":
            return gc.Ign(*sorted((draw(x), draw(x))))
        return gc.Ggn(draw(x), draw(greyness))

    w = tuple(tuple(cell(end) for _ in range(n)) for _ in range(n))
    a = tuple(cell(value) for _ in range(n))
    m = gc.Model(family, tuple(f"c{i}" for i in range(n)), w, a, lam)
    return m, draw(st.one_of(st.integers(1, 400), st.integers(200, 400)))


@settings(max_examples=200, deadline=None)
@given(runs())
def test_simulate_equals_the_reference_engine_bitwise(case):
    m, steps = case
    got = gc.simulate(m, steps).states
    ref = reference_run(m, steps)
    assert len(got) == len(ref) == steps + 1
    for t, (s, r) in enumerate(zip(got, ref)):
        assert state_bits(m.family, [plain(m.family, c) for c in s]) == \
            state_bits(m.family, r), f"state {t}"
