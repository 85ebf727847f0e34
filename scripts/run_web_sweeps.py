#!/usr/bin/env python3
"""Sweep the three web-map engines across the steepness grid.

Exports each corpus variant to a model file, runs the CLI sweep over
lambda in {0.5, 1, 2, 4}, and leaves per-run trajectories, reports, and
a summary CSV per variant under the output directory. Exit code is the
worst sweep exit code, so a criterion-inapplicable run is visible to
the caller.

Usage: python3 scripts/run_web_sweeps.py [--out-dir DIR] [--steps N]
"""

import argparse
from pathlib import Path

from greycog.cli import main as cli

VARIANTS = ("web_fcm", "web_fgcm", "web_fggcm")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default="sweep_out")
    ap.add_argument("--steps", type=int, default=100)
    ap.add_argument("--lambdas", default="0.5,1,2,4")
    args = ap.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    worst = 0
    for vid in VARIANTS:
        model = out / f"{vid}.json"
        rc = cli(["corpus", vid, "--out", str(model)])
        if rc != 0:
            worst = max(worst, rc)
            continue
        # A sweep that refuses its flags writes no summary; drop an earlier
        # run's, so that only this sweep's is printed.
        summary = out / vid / "summary.csv"
        summary.unlink(missing_ok=True)
        rc = cli([
            "sweep", "--model", str(model), "--lambdas", args.lambdas,
            "--steps", str(args.steps), "--out-dir", str(out / vid),
        ])
        worst = max(worst, rc)
        if summary.exists():
            print(f"--- {vid} ---")
            print(summary.read_text().rstrip())
    return worst


if __name__ == "__main__":
    raise SystemExit(main())
