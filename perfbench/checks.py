"""Independent checks of program outputs.

Nothing here calls the package: the classifier and the criteria are
re-derived from their definitions in README.md, so a wrong answer from
the package cannot agree with itself.
"""

from __future__ import annotations

import csv
import math

EPS = 1e-8
MAX_PERIOD = 50
# Tolerance for criterion values and trajectory values, relative above 1.
TOL = 1e-12


def close(value, ref, tol=TOL) -> bool:
    return abs(value - ref) <= tol * max(1.0, abs(ref))


def frobenius(rows) -> float:
    return math.sqrt(math.fsum(x * x for row in rows for x in row))


def endpoint_magnitude(lo, hi) -> float:
    """w* of one sign-consistent interval: |lo| if nonpositive, else hi."""
    return abs(lo) if hi <= 0.0 else hi


def _components(family, cell):
    if family == "fcm":
        return (cell,)
    if family == "fgcm":
        return (cell.lo, cell.hi)
    return (cell.kernel, cell.greyness)


def distance(family, a, b) -> float:
    """Euclidean distance over each cell's components. A cell's squared
    components are added together before joining the running sum, so the
    rounding matches a per-cell accumulation."""
    s = 0.0
    for x, y in zip(a, b):
        cx, cy = _components(family, x), _components(family, y)
        d = cx[0] - cy[0]
        term = d * d
        if len(cx) == 2:
            d = cx[1] - cy[1]
            term = term + d * d
        s += term
    return math.sqrt(s)


def classify(family, states, eps=EPS, max_period=MAX_PERIOD):
    """(verdict, t_alpha, period) by the definition: the smallest P whose
    gap |s[t+P] - s[t]| stays within eps from some t through the end, P=1
    being a fixed point. Scans back from the end and stops at the first
    gap above eps."""
    last = len(states) - 1
    for p in range(1, max_period + 1):
        t = last - p
        if distance(family, states[t], states[t + p]) > eps:
            continue
        while t > 0 and distance(family, states[t - 1], states[t - 1 + p]) <= eps:
            t -= 1
        return ("FixedPoint", t, None) if p == 1 else ("LimitCycle", t, p)
    return ("Chaotic", None, None)


def report_summary(report: dict) -> dict:
    """The checked part of a `greycog check` JSON report: the verdict
    triple and every criterion value, or the refusal for a mixed-sign
    interval weight."""
    if "error" in report:
        return {"error": report["error"], "i": report["i"], "j": report["j"]}
    c = report["classification"]
    if "criterion" in report:
        criteria = {"criterion": report["criterion"]}
    else:
        criteria = {"kernel": report["kernel"]["criterion"],
                    "greyness": report["greyness"]["criterion"]}
    return {"classification": [c["verdict"], c["t_alpha"], c["period"]],
            "criteria": criteria}


def summary_errors(got: dict, ref: dict) -> list[str]:
    if set(got) != set(ref) or got.get("classification") != ref.get("classification"):
        return [f"report {got} != reference {ref}"]
    if "error" in ref:
        return [] if got == ref else [f"refusal {got} != reference {ref}"]
    return [f"criterion {name}={got['criteria'].get(name)!r} != {value!r}"
            for name, value in ref["criteria"].items()
            if not close(got["criteria"].get(name, math.nan), value)]


def trajectory_csv_summary(path) -> dict:
    """Row count, the final state and per-field sums of a trajectory CSV."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    body = rows[1:]
    last_t = body[-1][0]
    fields = sorted({r[2] for r in body})
    return {
        "header": rows[0],
        "rows": len(body),
        "final": [float(r[3]) for r in body if r[0] == last_t],
        "sums": {f: math.fsum(float(r[3]) for r in body if r[2] == f) for f in fields},
    }


def trajectory_errors(got: dict, ref: dict) -> list[str]:
    errors = []
    if got["header"] != ref["header"] or got["rows"] != ref["rows"]:
        errors.append(f"csv shape {got['header']}x{got['rows']} != "
                      f"{ref['header']}x{ref['rows']}")
    elif not all(close(g, r) for g, r in zip(got["final"], ref["final"])):
        errors.append("final state differs from reference")
    elif set(got["sums"]) != set(ref["sums"]) or not all(
            close(got["sums"][f], v) for f, v in ref["sums"].items()):
        errors.append("trajectory sums differ from reference")
    return errors


def read_sweep_summary(path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def sweep_row_errors(row: list[str], ref: list) -> list[str]:
    """One summary row [tag, kernel, greyness, verdict, period] against its
    reference; criterion cells compare at TOL, an empty cell only to ''."""
    if len(row) != 5 or row[3:] != ref[3:]:
        return [f"sweep row {row} != reference {ref}"]
    for got, want in zip(row[1:3], ref[1:3]):
        if (got == "") != (want == "") or (want != "" and not close(float(got), float(want))):
            return [f"sweep row {row} criterion != reference {ref}"]
    return []
