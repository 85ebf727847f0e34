"""Built-in benchmark: a seven-node web experience map.

One crisp weight matrix drives six model variants: the crisp map itself,
an interval version produced by greyness injection, a kernel/greyness
version reduced from those intervals, and three stress variants with a
mixed-sign weight (case 1) or multi-interval union weights (case 2).

Node names are C1..C7; all report indices are 1-based to match.
"""

from __future__ import annotations

from ._family import Ggn, GreyUnion, Ign, ggn_from_union, positive
from ._modelio import model_to_doc
from .cogmap import Model
from .errors import InvalidParameterError, MalformedInputError

__all__ = [
    "VARIANTS",
    "WEB_NODE_NAMES",
    "WEB_WEIGHTS",
    "build",
    "export_variant",
    "inject_greyness",
]

WEB_NODE_NAMES = ("C1", "C2", "C3", "C4", "C5", "C6", "C7")

WEB_WEIGHTS = (
    (0.0, -0.9, -0.88, 1.0, -0.85, -0.83, 1.0),
    (1.0, 0.0, -0.93, -0.89, -0.9, -0.94, 1.0),
    (-0.98, -0.93, -1.0, -1.0, 1.0, 1.0, 1.0),
    (-0.99, -0.89, -1.0, -0.39, 0.73, 0.58, 0.7),
    (1.0, 1.0, 1.0, 1.0, -0.8, 0.51, 1.0),
    (1.0, 1.0, 0.83, 1.0, 0.51, -0.39, 1.0),
    (1.0, 1.0, 1.0, 1.0, -0.71, -0.49, -0.67),
)

WEB_INITIAL_CRISP = (1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0)

# Interval initial state: active nodes known only to [0.99, 1.00].
WEB_INITIAL_INTERVAL = tuple(Ign(0.99, 1.0) for _ in range(6)) + (Ign(0.0, 0.0),)

# Kernel/greyness initial state as supplied with the benchmark. The active
# nodes carry greyness 0.010, which is the full width of [0.99, 1.00]
# rather than the 0.005 the weight-reduction convention would give; the
# benchmark input is kept verbatim and the mismatch is documented here.
WEB_INITIAL_GGN = tuple(Ggn(0.995, 0.010) for _ in range(6)) + (Ggn(0.0, 0.0),)

WEB_GREYNESS = 0.01

# Case 2 union weights, sorted ascending and disjoint.
CASE2_UNIONS = {
    (0, 0): GreyUnion(((-0.9, -0.75), (0.4, 0.9))),
    (0, 1): GreyUnion(((-0.95, -0.89), (-0.83, -0.83), (-0.8, -0.75))),
    (2, 2): GreyUnion(((-1.0, -0.95), (-0.94, -0.90), (-0.89, 0.88))),
    (0, 4): GreyUnion(((-0.90, 0.93), (0.95, 0.98), (0.99, 1.0))),
}


# Variant id -> notes.
VARIANTS = {
    "web_fcm": "crisp web experience map, initial (1,1,1,1,1,1,0)",
    "web_fgcm": "interval form: greyness 0.01 injected into every weight of "
                "magnitude >= 0.01, zeros left crisp; initial [0.99,1.00] on "
                "active nodes",
    "web_fggcm": "kernel/greyness form reduced from the interval weights; input "
                 "greyness 0.010 on active nodes as supplied, which is the full "
                 "interval width rather than the half width the weight reduction "
                 "uses",
    "web_case1_fgcm": "interval form with weight (1,1) replaced by the mixed-sign "
                      "interval [-0.1, 0.1]; the endpoint-magnitude criterion is "
                      "undefined here by construction",
    "web_case1_fggcm": "kernel/greyness form with weight (1,1) replaced by kernel 0, "
                       "greyness 0.1",
    "web_case2_fggcm": "kernel/greyness form with weights (1,1), (1,2), (3,3), (1,5) "
                       "replaced by reductions of multi-interval unions",
}


def inject_greyness(w, g: float):
    """Interval matrix from a crisp one: every entry of magnitude >= g
    widens to [w - g, w + g] clipped to [-1, 1]; smaller entries (zeros of
    the web map) stay degenerate so that sign consistency is preserved."""
    if not g > 0.0:
        raise InvalidParameterError(f"greyness must be > 0, got {g}")
    out = []
    for row in w:
        cells = []
        for x in row:
            if abs(x) >= g:
                cells.append(Ign(max(x - g, -1.0), min(x + g, 1.0)))
            else:
                cells.append(Ign(x, x))
        out.append(tuple(cells))
    return tuple(out)


def _interval_matrix():
    return inject_greyness(WEB_WEIGHTS, WEB_GREYNESS)


def _ggn_matrix():
    rows = []
    for row in _interval_matrix():
        rows.append(tuple(ggn_from_union(GreyUnion(((c.lo, c.hi),))) for c in row))
    return tuple(rows)


def _with_cell(matrix, i, j, cell):
    rows = [list(r) for r in matrix]
    rows[i][j] = cell
    return tuple(tuple(r) for r in rows)


def build(variant: str, lam: float) -> Model:
    """Construct one corpus model at the given steepness."""
    if variant not in VARIANTS:
        valid = ", ".join(sorted(VARIANTS))
        raise MalformedInputError(f"unknown corpus variant {variant!r}; valid: {valid}")
    lam = positive(lam, InvalidParameterError)

    if variant == "web_fcm":
        return Model("fcm", WEB_NODE_NAMES, WEB_WEIGHTS, WEB_INITIAL_CRISP, lam)
    if variant == "web_fgcm":
        return Model("fgcm", WEB_NODE_NAMES, _interval_matrix(),
                     WEB_INITIAL_INTERVAL, lam)
    if variant == "web_fggcm":
        return Model("fggcm", WEB_NODE_NAMES, _ggn_matrix(),
                     WEB_INITIAL_GGN, lam)
    if variant == "web_case1_fgcm":
        weights = _with_cell(_interval_matrix(), 0, 0, Ign(-0.1, 0.1))
        return Model("fgcm", WEB_NODE_NAMES, weights, WEB_INITIAL_INTERVAL, lam)
    if variant == "web_case1_fggcm":
        weights = _with_cell(_ggn_matrix(), 0, 0, Ggn(0.0, 0.1))
        return Model("fggcm", WEB_NODE_NAMES, weights, WEB_INITIAL_GGN, lam)
    # web_case2_fggcm
    weights = _ggn_matrix()
    for (i, j), union in CASE2_UNIONS.items():
        weights = _with_cell(weights, i, j, ggn_from_union(union))
    return Model("fggcm", WEB_NODE_NAMES, weights, WEB_INITIAL_GGN, lam)


def export_variant(variant: str) -> dict:
    """Model-file document for a corpus variant at lambda 1.0.

    Case 2 cells are emitted in their raw union encoding so the exported
    file preserves the full uncertainty structure; importing reduces them
    back to the identical kernel/greyness pairs.
    """
    doc = model_to_doc(build(variant, 1.0))
    if variant == "web_case2_fggcm":
        for (i, j), union in CASE2_UNIONS.items():
            doc["weights"][i][j] = {"union": [[lo, hi] for lo, hi in union.intervals]}
    return doc
