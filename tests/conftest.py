"""Shared frozen expectations, and the helpers more than one test file uses.

Every numeric constant here was produced by an independent oracle (plain
numpy matrix arithmetic, written before the package) or transcribed from
the benchmark's published tables. Unit tests compare the package against
these constants rather than against itself.
"""

import pytest
from hypothesis import Phase, settings

import greycog as gc
from greycog._core import kernel_grey_next
from greycog._family import FAMILY, Family

# Every phase but explain, which reruns a shrunk failing example under a
# tracer and can take minutes and hundreds of MB before the failure shows.
settings.register_profile("no-explain", phases=[p for p in Phase if p is not Phase.explain])
settings.load_profile("no-explain")

# The crisp seven-node web map, transcribed independently of corpus.py.
WEB_W = (
    (0.0, -0.9, -0.88, 1.0, -0.85, -0.83, 1.0),
    (1.0, 0.0, -0.93, -0.89, -0.9, -0.94, 1.0),
    (-0.98, -0.93, -1.0, -1.0, 1.0, 1.0, 1.0),
    (-0.99, -0.89, -1.0, -0.39, 0.73, 0.58, 0.7),
    (1.0, 1.0, 1.0, 1.0, -0.8, 0.51, 1.0),
    (1.0, 1.0, 0.83, 1.0, 0.51, -0.39, 1.0),
    (1.0, 1.0, 1.0, 1.0, -0.71, -0.49, -0.67),
)

# Printed interval matrix after injecting greyness 0.01 (zeros stay crisp,
# magnitude-1 entries clip at the domain boundary).
PRINTED_IGN = (
    ((0, 0), (-0.91, -0.89), (-0.89, -0.87), (0.99, 1.00), (-0.86, -0.84), (-0.84, -0.82), (0.99, 1.00)),
    ((0.99, 1.00), (0, 0), (-0.94, -0.92), (-0.90, -0.88), (-0.91, -0.89), (-0.95, -0.93), (0.99, 1.00)),
    ((-0.99, -0.97), (-0.94, -0.92), (-1.00, -0.99), (-1.00, -0.99), (0.99, 1.00), (0.99, 1.00), (0.99, 1.00)),
    ((-1.00, -0.98), (-0.90, -0.88), (-1.00, -0.99), (-0.40, -0.38), (0.72, 0.74), (0.57, 0.59), (0.69, 0.71)),
    ((0.99, 1.00), (0.99, 1.00), (0.99, 1.00), (0.99, 1.00), (-0.81, -0.79), (0.50, 0.52), (0.99, 1.00)),
    ((0.99, 1.00), (0.99, 1.00), (0.82, 0.84), (0.99, 1.00), (0.50, 0.52), (-0.40, -0.38), (0.99, 1.00)),
    ((0.99, 1.00), (0.99, 1.00), (0.99, 1.00), (0.99, 1.00), (-0.72, -0.70), (-0.50, -0.48), (-0.68, -0.66)),
)

# Printed endpoint-magnitude matrix of the interval matrix above.
PRINTED_WSTAR = (
    (0, 0.91, 0.89, 1.00, 0.86, 0.84, 1.00),
    (1.00, 0, 0.94, 0.90, 0.91, 0.95, 1.00),
    (0.99, 0.94, 1.00, 1.00, 1.00, 1.00, 1.00),
    (1.00, 0.90, 1.00, 0.40, 0.74, 0.59, 0.71),
    (1.00, 1.00, 1.00, 1.00, 0.81, 0.52, 1.00),
    (1.00, 1.00, 0.84, 1.00, 0.52, 0.40, 1.00),
    (1.00, 1.00, 1.00, 1.00, 0.72, 0.50, 0.68),
)

# Printed kernel/greyness matrix, cells as (kernel, greyness).
PRINTED_GGN = (
    ((0.000, 0.000), (-0.900, 0.010), (-0.880, 0.010), (0.995, 0.005), (-0.850, 0.010), (-0.830, 0.010), (0.995, 0.005)),
    ((0.995, 0.005), (0.000, 0.000), (-0.930, 0.010), (-0.890, 0.010), (-0.900, 0.010), (-0.940, 0.010), (0.995, 0.005)),
    ((-0.980, 0.010), (-0.930, 0.010), (-0.995, 0.005), (-0.995, 0.005), (0.995, 0.005), (0.995, 0.005), (0.995, 0.005)),
    ((-0.990, 0.010), (-0.890, 0.010), (-0.995, 0.005), (-0.390, 0.010), (0.730, 0.010), (0.580, 0.010), (0.700, 0.010)),
    ((0.995, 0.005), (0.995, 0.005), (0.995, 0.005), (0.995, 0.005), (-0.800, 0.010), (0.510, 0.010), (0.995, 0.005)),
    ((0.995, 0.005), (0.995, 0.005), (0.830, 0.010), (0.995, 0.005), (0.510, 0.010), (-0.390, 0.010), (0.995, 0.005)),
    ((0.995, 0.005), (0.995, 0.005), (0.995, 0.005), (0.995, 0.005), (-0.710, 0.010), (-0.490, 0.010), (-0.670, 0.010)),
)

# Frobenius norms at full precision (independent numpy oracle).
NORM_W = 6.135926987831586
NORM_WSTAR = 6.165744075129943
NORM_KERNEL = 6.117203200809992
NORM_KERNEL_MC = 6.03723636415427

# Published norm table: rows are matrices, columns lambda 0.5/1/2/4,
# printed to four decimals. Tolerance in tests: 5e-4.
TABLE_NORMS = {
    "W": (3.0680, 6.1359, 12.2719, 24.5437),
    "Wstar": (3.0829, 6.1657, 12.3315, 24.6630),
    "kernel": (3.0586, 6.1172, 12.2344, 24.4688),
    "kernel_case1": (3.0586, 6.1172, 12.2344, 24.4688),
    "kernel_case2": (3.0186, 6.0372, 12.0745, 24.1489),
}
LAMBDAS = (0.5, 1.0, 2.0, 4.0)

# Published greyness-condition norms. Only the first two are acceptance
# targets; the faithful evaluation gives different values, documented in
# the acceptance suite.
TABLE_CONDITION = {0.5: 0.1984, 1.0: 0.3466, 2.0: 0.5217, 4.0: 0.6076}

# Faithful condition-matrix norms at the converged (0.5, 1) or final
# (2, 4) state, from the independent oracle.
ORACLE_MTILDE = {
    0.5: 0.10869501353122366,
    1.0: 0.3490701952600921,
    2.0: 0.641679553604547,
    4.0: 0.7404590188147622,
}
# Ungated variant at the same states.
ORACLE_MFULL = {
    0.5: 0.5841006915309093,
    1.0: 0.6797349236884996,
    2.0: 0.8246796012028459,
    4.0: 0.9251127347628076,
}

# First iterates from the crisp/interval/kernel oracles, lambda = 0.5.
FCM_FIRST_05 = (0.22618143, 0.20915937, 0.27788039, 0.27289178,
                0.86471309, 0.87814715, 0.80218389)
FGCM_FIRST_05_LO = (0.2209825, 0.20424843, 0.2719206, 0.26669618,
                    0.85847729, 0.87253378, 0.79416232)
FGCM_FIRST_05_HI = (0.23274067, 0.21553139, 0.28584507, 0.28214429,
                    0.86633674, 0.879944, 0.80469486)
FGGCM_FIRST_05_K = (0.22682309, 0.20984873, 0.27883957, 0.27436008,
                    0.86244826, 0.87627976, 0.7994804)
FGGCM_FIRST_05_G = (0.00226823, 0.00209849, 0.0027884, 0.0027436,
                    0.00862448, 0.0087628, 0.0079948)

# Converged states after 100 steps (oracle, 8 significant digits).
FGCM_FP_05_LO = (0.36949921, 0.32334534, 0.53027591, 0.48493915,
                 0.73125981, 0.75044971, 0.54758305)
FGCM_FP_05_HI = (0.38903634, 0.34241824, 0.55269262, 0.50678396,
                 0.74847354, 0.76636229, 0.56923099)
FGGCM_FINAL_K = {
    0.5: (0.37924254, 0.33282305, 0.5415446, 0.49588398,
          0.73993454, 0.75846779, 0.55843119),
    1.0: (0.25524401, 0.12371481, 0.66871695, 0.57122469,
          0.87145882, 0.89472493, 0.54670424),
}
FGGCM_FINAL_G = {
    0.5: (0.00314734, 0.00285152, 0.00322768, 0.00447737,
          0.00480531, 0.00527053, 0.00397057),
    1.0: (0.00212303, 0.00109825, 0.00403561, 0.0050308,
          0.00588115, 0.00660483, 0.00401904),
}

# Verdicts over 100 steps at eps 1e-8, period cap 50. Entries are
# (verdict, t_alpha, period); t_alpha/period None where not applicable.
EXPECTED_CLASS = {
    "web_fcm": {
        0.5: ("FixedPoint", 26, None),
        1.0: ("FixedPoint", 88, None),
        2.0: ("Chaotic", None, None),
        4.0: ("LimitCycle", 24, 2),
    },
    "web_fgcm": {
        0.5: ("FixedPoint", 35, None),
        1.0: ("Chaotic", None, None),
        2.0: ("FixedPoint", 38, None),
        4.0: ("LimitCycle", 62, 2),
    },
    "web_fggcm": {
        0.5: ("FixedPoint", 25, None),
        1.0: ("FixedPoint", 87, None),
        2.0: ("Chaotic", None, None),
        4.0: ("LimitCycle", 24, 2),
    },
}

# Kernel-only and greyness-only projections of the fggcm run.
EXPECTED_KERNEL_CLASS = {
    0.5: ("FixedPoint", 25, None),
    1.0: ("FixedPoint", 87, None),
    2.0: ("Chaotic", None, None),
    4.0: ("LimitCycle", 24, 2),
}
EXPECTED_GREYNESS_CLASS = {
    0.5: ("FixedPoint", 19, None),
    1.0: ("FixedPoint", 64, None),
    2.0: ("Chaotic", None, None),
    4.0: ("LimitCycle", 20, 2),
}

# Multi-interval union weights of the case-2 variant and their reductions.
CASE2_REDUCED = {
    (0, 0): (-0.08749999999999997, 0.325),
    (0, 1): (-0.8416666666666667, 0.05499999999999999),
    (2, 2): (-0.6333333333333333, 0.9299999999999999),
    (0, 4): (0.6583333333333333, 0.935),
}


@pytest.fixture
def web_fcm_05():
    return gc.build("web_fcm", 0.5)


@pytest.fixture
def web_fggcm_05():
    return gc.build("web_fggcm", 0.5)


def crisp_trajectory(states):
    """Wrap raw crisp state tuples in a Trajectory."""
    return gc.Trajectory("fcm", tuple(tuple(s) for s in states))


def family_with(fam, **rules):
    """The `Family` fam rebuilt through its constructor, with the given
    rules in place of its own (a test's counting wrapper, say)."""
    return Family(**{name: rules.get(name, getattr(fam, name)) for name in Family.__match_args__})


def activate(cell, lam):
    """The interval engine's activation of one cell: a one-step run of the
    one-node map whose weight is [1, 1], so the row sum is the cell."""
    m = gc.Model("fgcm", ("a",), ((gc.Ign(1.0, 1.0),),), (cell,), lam)
    return gc.simulate(m, 1).states[1][0]


def row_update(w_row, a, lam):
    """The kernel/greyness engine's update of one node, from cells to a cell."""
    weights = FAMILY["fggcm"].prepare([[w.kernel for w in w_row]], [[w.greyness for w in w_row]])
    (k,), (g,) = kernel_grey_next(weights, [x.kernel for x in a], [x.greyness for x in a], lam)
    return gc.Ggn(k, g)


def cell_fields(family, cell):
    """A cell's float fields: the value; lo and hi; kernel and greyness."""
    if family == "fcm":
        return (cell,)
    if family == "fgcm":
        return (cell.lo, cell.hi)
    return (cell.kernel, cell.greyness)
