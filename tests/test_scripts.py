"""Smoke tests: the two scripts run end to end as separate processes."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def verdict_row(out, steps, variant):
    section = out.split(f"verdicts over {steps} steps")[1]
    row = next(line for line in section.splitlines() if line.startswith(variant + " "))
    return row.split()[1:]


def test_reproduce_tables_prints_the_verdict_tables():
    proc = run_script("reproduce_tables.py", "--steps", "100", "--long", "200")
    assert proc.returncode == 0, proc.stderr
    # The lambda 2 transient locks in at t=154, past the 100-step window.
    assert verdict_row(proc.stdout, 100, "web_fcm") == [
        "FixedPoint(t=26)", "FixedPoint(t=88)", "Chaotic", "LimitCycle(P=2,t=24)"]
    assert verdict_row(proc.stdout, 200, "web_fcm") == [
        "FixedPoint(t=26)", "FixedPoint(t=88)", "LimitCycle(P=2,t=154)",
        "LimitCycle(P=2,t=24)"]


def test_reproduce_tables_default_output_is_pinned():
    # Every number the script prints, at its default horizons: a refactor
    # of the criteria or the engines that moves any of them fails here.
    proc = run_script("reproduce_tables.py")
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.md5(proc.stdout.encode()).hexdigest()
    assert digest == "7bf10426bb7ed6cdf490146c90bd573a", proc.stdout


def test_run_web_sweeps_writes_a_summary_per_variant(tmp_path):
    proc = run_script("run_web_sweeps.py", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    for vid in ("web_fcm", "web_fgcm", "web_fggcm"):
        assert f"--- {vid} ---" in proc.stdout
        rows = (tmp_path / vid / "summary.csv").read_text().splitlines()
        assert len(rows) == 1 + 4


def test_reproduce_tables_refuses_a_horizon_too_short_to_classify():
    # classify's period cap of 50 needs 52 states, so 51 steps at least.
    for args in (["--steps", "0"], ["--steps", "30"], ["--long", "50"], ["--steps", "abc"]):
        proc = run_script("reproduce_tables.py", *args)
        assert proc.returncode == 2, (args, proc.stderr)
        assert proc.stdout == "" and "Traceback" not in proc.stderr, args
        assert f"error: argument {args[0]}: " in proc.stderr, args


def test_run_web_sweeps_exits_with_the_sweep_code_when_the_sweep_refuses_its_flags(tmp_path):
    for args in (["--steps", "0"], ["--lambdas", "1,abc"]):
        out = tmp_path / args[0].strip("-")
        proc = run_script("run_web_sweeps.py", "--out-dir", str(out), *args)
        assert proc.returncode == 2, (args, proc.stderr)
        assert "Traceback" not in proc.stderr and f"argument {args[0]}: " in proc.stderr, args
        assert proc.stdout == "" and not list(out.glob("*/summary.csv")), args
