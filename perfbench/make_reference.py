"""Record the references that corpus_cli checks its outputs against.

Run from the repository root:

    python3 perfbench/make_reference.py

It runs the CLI in process on the web corpus and writes
perfbench/reference.json: the exported corpus documents, every check
report's verdict triple and criterion values, trajectory summaries for
every simulate call a seed can draw, and sweep summary rows at the sweep
lambdas. The check verdicts must equal tests/conftest.py's
EXPECTED_CLASS, which is copied in.
"""

from __future__ import annotations

import importlib.util
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads as wl  # noqa: E402


def expected_class() -> dict:
    spec = importlib.util.spec_from_file_location("conftest", ROOT / "tests" / "conftest.py")
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    return {v: {f"{lam:g}": list(t) for lam, t in table.items()}
            for v, table in conftest.EXPECTED_CLASS.items()}


def run(argv) -> wl.Outcome:
    out = wl.cli_in_process(argv)
    if out.rc not in (0, 4):
        raise SystemExit(f"{argv} exited {out.rc}")
    return out


def main() -> int:
    ref = {"expected_class": expected_class(), "corpus": {}, "check": {},
           "simulate": {}, "sweep": {}}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for v in wl.WEB + wl.STRESS:
            path = tmp / f"{v}.json"
            run(("corpus", v, "--out", str(path)))
            ref["corpus"][v] = json.loads(path.read_text(encoding="utf-8"))
        workload = wl.CorpusCli(ROOT, tmp / "work", 0, ref)
        workload.setup()
        for call in workload.calls:
            if call.command != "check":
                continue
            out = run((call.command, *call.argv))
            summary = checks.report_summary(json.loads(out.stdout))
            ref["check"][call.key] = {"rc": out.rc, "summary": summary}
            variant = call.key.split()[1]
            if variant in wl.WEB:
                lam = call.key.rsplit("=", 1)[1]
                if summary["classification"] != ref["expected_class"][variant][lam]:
                    raise SystemExit(f"{call.key}: {summary} disagrees with EXPECTED_CLASS")
        for v in wl.WEB:
            model = workload._model(v)
            for lam in wl.CHECK_LAMBDAS:
                csv_path = tmp / "trajectory.csv"
                run(("simulate", "--model", model, "--lambda", repr(lam),
                     "--steps", str(wl.RUN_STEPS), "--out", str(csv_path)))
                ref["simulate"][f"simulate {v} lam={lam:g}"] = checks.trajectory_csv_summary(csv_path)
            out_dir = tmp / f"sweep_{v}"
            run(("sweep", "--model", model, "--steps", str(wl.RUN_STEPS),
                 "--lambdas", ",".join(map(repr, wl.SWEEP_LAMBDAS)), "--out-dir", str(out_dir)))
            rows = checks.read_sweep_summary(out_dir / "summary.csv")
            ref["sweep"][v] = {"header": rows[0], "rows": {r[0]: r[1:] for r in rows[1:]}}
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
