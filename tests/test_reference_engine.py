"""Whole runs of `simulate` against the reference engine in `reference.py`.

That engine is written from README's update rules with nothing taken
from the package, and runs every requested step, with no early stop, no
blocks and no cycle copy. It calls the same `math.exp` as the package, so
the property holds bit for bit on every platform, where the md5 pins of
whole runs hold for one `exp` only.
"""

import ast
import math
import struct
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

import greycog as gc
import reference

unit = st.floats(-1.0, 1.0, allow_nan=False)
signed_zero = st.sampled_from([0.0, -0.0])


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


@st.composite
def runs(draw):
    """A map in any family over up to 400 steps: 1 to 9 nodes at a small
    lambda, which reaches an exact fixed point, and 1 to 12 at lambda 5,
    which (with inhibitory weights mostly a 2-cycle) reaches an exact cycle
    or none, so `simulate` stops early and copies in some runs and computes
    every step in others. Weight ends and initial cells take both zero
    signs; initial intervals may be negative or straddle zero. Initial
    cells may be tiny (1e-160, -1e-200), so a row's kernel products fall
    to the subnormal range or to 0, and a greyness may be 2**1000 beside
    them, which a scaled greyness-weighted product must not overflow."""
    family = draw(st.sampled_from(gc.FAMILIES))
    regime = draw(st.sampled_from(["contract", "inhibit", "steep"]))
    n = draw(st.integers(1, 9 if regime == "contract" else 12))
    lam = draw(st.floats(0.01, 1.0)) if regime == "contract" else 5.0
    end = st.one_of(signed_zero, st.floats(-1.0, 0.0) if regime == "inhibit" else unit)
    value = st.one_of(st.sampled_from([0.0, -0.0, 1e-160, -1e-200]), st.floats(-2.0, 2.0))
    greyness = st.one_of(st.sampled_from([0.0, -0.0, 2.0 ** 1000]), st.floats(0.0, 2.0))

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


# Kernel products that underflow to 0: the greyness is still the weighted
# average, 0.25 here, not that of a row of no mass.
TINY_KERNELS = gc.Model("fggcm", ("a",), ((gc.Ggn(1e-200, 0.5),),), (gc.Ggn(1e-200, 0.25),), 1.0)
# A kernel product of 1e-320, about 2**-1063: scaled by 2**1200 alone it
# is about 2**137, and times its greyness of 2**1000 it overflows. The
# redo scales by 2**600 first, which is enough.
LARGE_GREYNESS = gc.Model("fggcm", ("a",), ((gc.Ggn(1e-160, 0.5),),),
                          (gc.Ggn(1e-160, 2.0 ** 1000),), 1.0)
# The float logistic maps this map's row sums at step 81, in order, to
# ends out of order: each low end must be the smaller activated end.
CROSSING = gc.Model("fgcm", ("c0",), ((gc.Ign(-0.6130791396628591, -0.6130791396628591),),),
                    (gc.Ign(0.0, 1.0),), 5.0)
# Kernel masses at every sign: -0.0, negative and positive weight kernels
# times negative, -0.0 and positive initial kernels. The last row's kernels
# are 1e-200, so at step 0 its products underflow to 0 and its greyness
# is taken again from its own weight rows, in the second row block.
SIGNED_MASSES = gc.Model("fggcm", tuple(f"c{i}" for i in range(6)), (
    (gc.Ggn(-0.0, 0.3), gc.Ggn(-0.5, 0.1), gc.Ggn(0.25, 0.0), gc.Ggn(1.0, 0.2),
     gc.Ggn(-1.0, 0.4), gc.Ggn(-0.0, 0.0)),
    (gc.Ggn(0.5, 0.0), gc.Ggn(-0.0, 0.6), gc.Ggn(-0.75, 0.1), gc.Ggn(0.0, 0.0),
     gc.Ggn(0.3, 0.2), gc.Ggn(-0.25, 0.5)),
    (gc.Ggn(-1.0, 0.2), gc.Ggn(0.125, 0.0), gc.Ggn(-0.0, 0.9), gc.Ggn(-0.5, 0.3),
     gc.Ggn(0.75, 0.0), gc.Ggn(0.5, 0.1)),
    (gc.Ggn(0.0, 0.1), gc.Ggn(-0.375, 0.2), gc.Ggn(1.0, 0.0), gc.Ggn(-0.0, 0.4),
     gc.Ggn(-0.625, 0.3), gc.Ggn(0.875, 0.0)),
    (gc.Ggn(-0.5, 0.0), gc.Ggn(0.25, 0.5), gc.Ggn(-0.0, 0.0), gc.Ggn(0.75, 0.1),
     gc.Ggn(-0.0, 0.2), gc.Ggn(-1.0, 0.6)),
    tuple(gc.Ggn(1e-200, g) for g in (0.1, 0.7, 0.0, 0.3, 0.2, 0.4)),
), (gc.Ggn(-1e-200, 0.25), gc.Ggn(1e-200, 0.5), gc.Ggn(-0.0, 0.1), gc.Ggn(-1e-200, 0.0),
    gc.Ggn(1e-200, 0.75), gc.Ggn(-1e-200, 0.35)), 1.0)
# Negative and straddling initial intervals over -0.0 and mixed-sign weight
# ends: step 0 takes `interval_dot_lr` over each pair of weight rows.
NEGATIVE_START = gc.Model("fgcm", tuple(f"c{i}" for i in range(5)), (
    (gc.Ign(-0.0, 0.5), gc.Ign(-0.75, -0.25), gc.Ign(-1.0, 1.0), gc.Ign(0.0, 0.0),
     gc.Ign(-0.5, -0.0)),
    (gc.Ign(0.25, 0.75), gc.Ign(-0.0, -0.0), gc.Ign(-0.5, 0.125), gc.Ign(-1.0, -0.5),
     gc.Ign(0.5, 1.0)),
    (gc.Ign(-0.25, 0.25), gc.Ign(0.5, 0.5), gc.Ign(-0.0, 0.75), gc.Ign(-0.375, 0.0),
     gc.Ign(-1.0, -0.75)),
    (gc.Ign(-0.625, -0.125), gc.Ign(0.0, 1.0), gc.Ign(0.25, 0.5), gc.Ign(-0.0, 0.0),
     gc.Ign(-0.25, 0.875)),
    (gc.Ign(1.0, 1.0), gc.Ign(-0.5, 0.25), gc.Ign(-0.75, -0.0), gc.Ign(0.125, 0.25),
     gc.Ign(-0.0, 0.5)),
), (gc.Ign(-0.5, 0.25), gc.Ign(-1.5, -0.75), gc.Ign(-0.0, 0.5), gc.Ign(0.25, 2.0),
    gc.Ign(-2.0, -0.0)), 1.0)


@settings(max_examples=200, deadline=None)
@given(runs())
@example((TINY_KERNELS, 1))
@example((LARGE_GREYNESS, 3))
@example((CROSSING, 100))
@example((SIGNED_MASSES, 60))
@example((NEGATIVE_START, 60))
def test_simulate_equals_the_reference_engine_bitwise(case):
    m, steps = case
    got = gc.simulate(m, steps).states
    w = tuple(tuple(plain(m.family, c) for c in row) for row in m.weights)
    ref = reference.run(m.family, w, tuple(plain(m.family, c) for c in m.initial), m.lam, steps)
    assert len(got) == len(ref) == steps + 1
    for t, (s, r) in enumerate(zip(got, ref)):
        assert state_bits(m.family, [plain(m.family, c) for c in s]) == \
            state_bits(m.family, r), f"state {t}"


def test_the_reference_imports_only_math_and_calls_exp_at_run_time(monkeypatch):
    # So it can move as it is into a module that imports nothing from
    # greycog, and a patched `exp` reaches it as it reaches the engines.
    tree = ast.parse(Path(reference.__file__).read_text(encoding="utf-8"))
    imports = [(type(node), [alias.name for alias in node.names])
               for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports == [(ast.Import, ["math"])]
    monkeypatch.setattr(math, "exp", lambda z: 1.0)
    assert [reference.logistic(x, 1.0) for x in (-1.0, 0.0, 1.0)] == [0.5, 0.5, 0.5]
    assert reference.run("fcm", ((1.0,),), (0.25,), 1.0, 1) == [(0.25,), (0.5,)]
