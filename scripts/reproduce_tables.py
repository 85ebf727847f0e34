#!/usr/bin/env python3
"""Print the benchmark tables: criterion norms, condition norms, regimes.

Sections:
  1. lambda * Frobenius norm for the five weight matrices of the web map
     corpus, over the standard steepness grid.
  2. Greyness condition norms at the final simulated state, both the
     gated matrix (the greyness verdict of the analysis) and the ungated
     one (every gate open), with whether the ungated one applies there.
  3. Verdict table for the three engines, at the standard 100-step
     horizon and again at a longer horizon (the slow transients near the
     bifurcation need roughly 110-160 steps to settle).

Each run goes through the CLI's one analysis chain (simulate, classify,
the family's criterion) at eps 1e-8 and period cap 50, so each horizon
must be at least 51 steps; a smaller one exits 2 before any table.

Usage: python3 scripts/reproduce_tables.py [--steps N] [--long N]
"""

import argparse

import greycog as gc
from greycog._family import at_least
from greycog.cli import _analyze, _flag

LAMS = (0.5, 1.0, 2.0, 4.0)
EPS, MAX_PERIOD = 1e-8, 50


def kernels(model):
    return tuple(tuple(c.kernel for c in row) for row in model.weights)


def norm_grid():
    rows = (
        ("||W||", gc.frobenius_norm(gc.corpus.WEB_WEIGHTS)),
        ("||W*||", gc.frobenius_norm(
            gc.w_star(gc.inject_greyness(gc.corpus.WEB_WEIGHTS, 0.01)))),
        ("||K||", gc.frobenius_norm(kernels(gc.build("web_fggcm", 1.0)))),
        ("||K case1||", gc.frobenius_norm(kernels(gc.build("web_case1_fggcm", 1.0)))),
        ("||K case2||", gc.frobenius_norm(kernels(gc.build("web_case2_fggcm", 1.0)))),
    )
    print("criterion grid lambda*||.||_F (threshold 4)")
    print(f"{'matrix':<14}" + "".join(f"{lam:>10g}" for lam in LAMS))
    for label, norm in rows:
        print(f"{label:<14}" + "".join(f"{lam * norm:>10.4f}" for lam in LAMS))
    print()


def condition_norms(steps):
    print(f"greyness condition norms at the state after {steps} steps (threshold 1)")
    print(f"{'lambda':>8}{'gated':>12}{'ungated':>12}{'ungated applies':>18}")
    for lam in LAMS:
        m = gc.build("web_fggcm", lam)
        *_, verdicts, report = _analyze(m, steps, EPS, MAX_PERIOD)
        state = report.evaluation_state
        ks = tuple(c.kernel for c in state)
        gs = tuple(c.greyness for c in state)
        gated = verdicts["greyness"].criterion_value
        ungated = gc.frobenius_norm(gc.grey_condition_matrix(m.weights, ks, None, lam))
        # The ungated matrix applies when no weight greyness exceeds its
        # column's state greyness.
        applies = all(g >= c.greyness for row in m.weights for g, c in zip(gs, row))
        print(f"{lam:>8g}{gated:>12.6f}{ungated:>12.6f}{str(applies):>18}")
    print()


def regimes(steps):
    print(f"verdicts over {steps} steps (eps 1e-8, period cap 50)")
    print(f"{'variant':<14}" + "".join(f"{lam:>22g}" for lam in LAMS))
    for vid in ("web_fcm", "web_fgcm", "web_fggcm"):
        cells = []
        for lam in LAMS:
            cls = _analyze(gc.build(vid, lam), steps, EPS, MAX_PERIOD)[1]
            if cls.verdict == "FixedPoint":
                cells.append(f"FixedPoint(t={cls.t_alpha})")
            elif cls.verdict == "LimitCycle":
                cells.append(f"LimitCycle(P={cls.period},t={cls.t_alpha})")
            else:
                cells.append("Chaotic")
        print(f"{vid:<14}" + "".join(f"{c:>22}" for c in cells))
    print()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # classify needs MAX_PERIOD + 2 states, so a horizon of at least MAX_PERIOD + 1 steps.
    ap.add_argument("--steps", type=_flag(int, at_least, MAX_PERIOD + 1, name="steps"),
                    default=100, help="standard horizon (default 100)")
    ap.add_argument("--long", type=_flag(int, at_least, MAX_PERIOD + 1, name="long"),
                    default=200, help="extended horizon for the slow transients (default 200)")
    args = ap.parse_args()

    norm_grid()
    condition_norms(args.steps)
    regimes(args.steps)
    if args.long > args.steps:
        regimes(args.long)


if __name__ == "__main__":
    main()
