"""greycog benchmark: runs one workload and prints its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload corpus_cli --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each exists):

    corpus_cli     the CLI as subprocesses on the seven-node web corpus
    dense_check    in-process `check` on seeded dense n=100 model files
    regime_survey  in-process library pipeline over seeded n=12 maps

Load comes from one closed-loop client in this process: the next call is
sent when the previous one returns, with no threads and at most one child
process at a time, all pinned to one core. A run makes
round(seconds / pass_seconds) passes over the workload's calls (at least
three), each in a seeded order, so the same seed does the same work on
every run; pass_seconds is a pass's length at the reference speed
described below. Each call's output is checked
right after the call, outside the timed region; work counts read from
the outputs must repeat exactly on every pass.

Times are CPU seconds (user + system, children included) scaled to a
reference host speed: a fixed kernel in this file is timed before and
after every call and set-up, and a call's CPU time is multiplied by
KERNEL_REF_S over the mean of the two (see HostSpeed). Their units read
ref_ms and 1/ref_s. The raw CPU and wall times of each pass and the range
of the scale factor are in the detail line.

runs_per_s is the analyses of one pass over the sum of each call's median
time. call_ms.p50 and call_ms.tail are taken over every timed call of the
run, the tail being the slowest with ten calls beyond it. setup_s is the
median of the workload's set-up repeats. peak_rss_mb is this process's
peak, or for corpus_cli its largest child's.

With --trace 0 the last line carries the end-to-end metrics. With
--trace 1 the run replays the calls in process: a pass that records
spans around the package's public functions, an untraced pass, and a
second traced pass; the last line carries the per-layer metrics. The line
before the last is a JSON object with the details: provenance, the tail's
percentile and sample count, wrong_frac and errors, work counts, every
per-module span (a span with no calls is reported as missing) and whether
the predicted dominant layer held.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("corpus_cli", "dense_check", "regime_survey")
# The tail is the slowest call that still has this many calls beyond it.
TAIL_BEYOND = 10
MIN_PASSES = 3
# Calibration kernel (see HostSpeed): about 1.6 ms of CPU on an idle
# 2-core Xeon. Timings are reported at the speed of a reference host on
# which the kernel takes exactly KERNEL_REF_S.
KERNEL_STEPS = 500
KERNEL_FLOATS = 60_000
KERNEL_REPEATS = 3
KERNEL_REF_S = 1.6e-3
PROBE_REPEATS = 7
PROBE_TIMEOUT_S = 60

MODULES = ("cli", "_modelio", "cogmap", "dynamics", "convergence", "harness")
COMMANDS = ("check", "simulate", "sweep", "corpus")
FAMILIES = ("fcm", "fgcm", "fggcm")
VERDICTS = ("FixedPoint", "LimitCycle", "Chaotic")
# Root spans whose calls are analyses (simulate, classify, criterion).
ANALYSIS_ROOTS = ("cli.main.check", "cli.main.sweep", "survey.call")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Ledger:
    """Every call's check errors, the work counts of each pass, and each
    call's first signature, which later passes must repeat."""

    def __init__(self, workload):
        self.workload = workload
        self.attempts = []
        self.pass_counts = []
        self.signatures = {}

    def start_pass(self):
        self.pass_counts.append(Counter())

    def record(self, call, out):
        errors, counts, sig = self.workload.check(call, out)
        first = self.signatures.setdefault(call.key, sig)
        if first != sig:
            errors = errors + ["output differs from this call's first pass"]
        self.pass_counts[-1].update(counts)
        self.pass_counts[-1]["analyses"] += call.analyses
        self.attempts.append((call.key, errors))

    def finish(self):
        """(failed calls, error messages). Once-per-run checks fail every
        attempt of the call they name."""
        final = self.workload.final_errors(self.signatures)
        wrong = [(key, errors + final.get(key, [])) for key, errors in self.attempts
                 if errors or key in final]
        messages = sorted({f"{key}: {e}" for key, errors in wrong for e in errors})
        if any(c != self.pass_counts[0] for c in self.pass_counts):
            messages.append("work counts differ between passes")
        return len(wrong), messages


def root_name(call) -> str:
    return "survey.call" if call.command == "survey" else f"cli.main.{call.command}"


def cpu_seconds() -> float:
    """CPU seconds (user + system) of this process and its waited-for
    children. A call's CPU time leaves out the time it waited for a core,
    which depends on the neighbours, not on the program."""
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + r.ru_utime + r.ru_stime


def _compute_kernel():
    x = [i / 16 for i in range(16)]
    for _ in range(KERNEL_STEPS):
        x = [1.0 / (1.0 + math.exp(-4.0 * (v - 0.5))) for v in x]
    return x


_KERNEL_FLOATS = [float(i) for i in range(KERNEL_FLOATS)]


def _memory_kernel():
    total = 0.0
    for v in _KERNEL_FLOATS[::3]:
        total += v * 0.5
    return total


class HostSpeed:
    """Scales CPU time to the speed of a reference host.

    On a shared host the speed of a core swings by up to 2x, for seconds
    to minutes, as other tenants load its sibling threads and caches; no
    CPU accounting shows it. So a fixed pure-Python kernel is timed before
    and after each piece of work, and the work's CPU time is multiplied by
    KERNEL_REF_S over the mean of the two kernel times: a slow stretch
    slows both and cancels out. The kernel has a part that stays in the
    first-level caches and a part that walks about 2 MB of float objects,
    as the package's calls do both, since neighbours slow the two
    unequally. It is the benchmark's own code, so a change to the package
    moves the work's time and not the scale."""

    def __init__(self):
        self.last = self._kernel_s()
        self.factors = []

    @staticmethod
    def _kernel_s() -> float:
        """CPU seconds of the kernel: each part's best of KERNEL_REPEATS."""
        total = 0.0
        for part in (_compute_kernel, _memory_kernel):
            best = math.inf
            for _ in range(KERNEL_REPEATS):
                t0 = time.process_time()
                part()
                best = min(best, time.process_time() - t0)
            total += best
        return total

    def time(self, fn, *args):
        """(scaled CPU seconds, CPU seconds, result) of `fn(*args)`."""
        before = self.last
        t0 = cpu_seconds()
        out = fn(*args)
        cpu = cpu_seconds() - t0
        self.last = self._kernel_s()
        factor = KERNEL_REF_S / ((before + self.last) / 2)
        self.factors.append(factor)
        return cpu * factor, cpu, out


def run_passes(workload, passes, execute, ledger, tracer=None, first_pass=0):
    """Closed loop over `passes` passes of the traced run; returns the
    summed wall time of the calls of each pass. Traced root spans carry
    the pass index, counted from `first_pass`."""
    walls = []
    for p in range(first_pass, first_pass + passes):
        ledger.start_pass()
        wall = 0.0
        for call in workload.pass_calls():
            if tracer is None:
                t0 = time.perf_counter()
                out = execute(call)
                wall += time.perf_counter() - t0
            else:
                with tracer.span(root_name(call), key=call.key, analyses=call.analyses,
                                 pass_index=p) as rec:
                    out = execute(call)
                wall += rec["end"] - rec["start"]
            ledger.record(call, out)
        walls.append(wall)
    return walls


def timed_passes(workload, passes, ledger, speed):
    """Closed loop over `passes` passes. Returns each call's scaled CPU
    seconds on every pass, and the CPU and wall seconds of each pass."""
    samples = defaultdict(list)
    pass_cpu, pass_wall = [], []
    for _ in range(passes):
        ledger.start_pass()
        t0 = time.perf_counter()
        cpu = 0.0
        for call in workload.pass_calls():
            scaled, call_cpu, out = speed.time(workload.run, call)
            samples[call.key].append(scaled)
            cpu += call_cpu
            ledger.record(call, out)
        pass_cpu.append(cpu)
        pass_wall.append(time.perf_counter() - t0)
    return samples, pass_cpu, pass_wall


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def metric(value, unit):
    return {"value": value, "unit": unit}


def timed_run(workload, seconds):
    # One core for this process and its children, so the kernel runs where
    # the calls run.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    speed = HostSpeed()
    # Each set-up starts with the garbage of the one before collected, and
    # so does the timed loop.
    setups = []
    for _ in range(workload.setup_repeats):
        gc.collect()
        setups.append(speed.time(workload.setup)[0])
    gc.collect()
    ledger = Ledger(workload)
    passes = max(MIN_PASSES, round(seconds / workload.pass_seconds))
    samples, pass_cpu, pass_wall = timed_passes(workload, passes, ledger, speed)
    failed, errors = ledger.finish()
    # A pass at the reference speed takes the sum of each call's median.
    pass_s = sum(statistics.median(v) for v in samples.values())
    times = sorted(t for v in samples.values() for t in v)
    tail_index = len(times) - TAIL_BEYOND - 1
    who = resource.RUSAGE_CHILDREN if workload.measures_children else resource.RUSAGE_SELF
    metrics = {
        "runs_per_s": metric(ledger.pass_counts[0]["analyses"] / pass_s, "1/ref_s"),
        "call_ms.p50": metric(statistics.median(times) * 1000, "ref_ms"),
        "call_ms.tail": metric(times[tail_index] * 1000, "ref_ms"),
        "peak_rss_mb": metric(resource.getrusage(who).ru_maxrss / 1024, "MB"),
        "setup_s": metric(statistics.median(setups), "s"),
    }
    attempted = len(times)
    detail = {
        "passes": passes,
        "calls_per_pass": len(samples),
        "attempted": attempted,
        "failed": failed,
        "wrong_frac": failed / attempted,
        "errors": errors[:20],
        "call_ms.tail": {"percentile": 100 * (tail_index + 1) / len(times),
                         "samples_beyond": TAIL_BEYOND, "samples": len(times)},
        "pass_ref_s": pass_s,
        "pass_cpu_ms": [c * 1000 for c in pass_cpu],
        "pass_wall_ms": [w * 1000 for w in pass_wall],
        "host_speed_factor": {"min": min(speed.factors),
                              "median": statistics.median(speed.factors),
                              "max": max(speed.factors)},
        "setup_s.samples": setups,
        "work_counts_per_pass": dict(ledger.pass_counts[0]),
    }
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return detail, result


# ------------------------------------------------------------------ tracing

def trace_targets():
    """Public functions, wrapped where their callers look them up."""
    from greycog import _modelio, cli, cogmap, convergence, dynamics

    def sim(args, result):
        return {"family": args[0].family, "cells": args[0].n ** 2 * args[1]}

    def cls(args, result):
        return {"verdict": result.verdict}

    return [
        (cli, "simulate", "cogmap.simulate", {}, sim),
        (cogmap, "simulate", "cogmap.simulate", {}, sim),
        (cli, "classify", "dynamics.classify", {}, cls),
        (dynamics, "classify", "dynamics.classify", {}, cls),
        (_modelio, "load_model", "_modelio.load_model", {}, None),
        (_modelio, "parse_model", "_modelio.parse_model", {}, None),
        (convergence, "check_fcm", "convergence.check", {"family": "fcm"}, None),
        (convergence, "check_fgcm", "convergence.check", {"family": "fgcm"}, None),
        (convergence, "check_fggcm", "convergence.check", {"family": "fggcm"}, None),
    ]


def import_probes(env) -> dict:
    """Medians over fresh interpreters: the wall time of `-c pass`, and the
    time `import numpy` and then `import greycog` take inside one. A first
    untimed import fills the bytecode cache the CLI calls also use."""
    py = sys.executable
    code = {
        "import.numpy_ms": "import time; t = time.perf_counter(); import numpy; "
                           "print(time.perf_counter() - t)",
        "import.greycog_ms": "import time, numpy; t = time.perf_counter(); import greycog; "
                             "print(time.perf_counter() - t)",
    }

    def probe(args):
        return subprocess.run([py, *args], env=env, check=True, capture_output=True,
                              text=True, timeout=PROBE_TIMEOUT_S)

    probe(["-c", "import greycog"])
    samples = defaultdict(list)
    for _ in range(PROBE_REPEATS):
        samples["import.interpreter_ms"].append(timed(lambda: probe(["-c", "pass"])))
        for name, src in code.items():
            samples[name].append(float(probe(["-c", src]).stdout))
    return {name: statistics.median(v) * 1000 for name, v in samples.items()}


def module_of(span_name) -> str:
    return "harness" if span_name == "survey.call" else span_name.split(".")[0]


def analyse_spans(tracer, passes):
    """Per-group calls/seconds/self seconds, self seconds per module, and
    the work counts of each traced pass."""
    self_s = tracer.self_seconds()
    spans = tracer.spans
    root = {}
    for s in spans:  # a parent is recorded before its children
        root[s["id"]] = s["id"] if s["parent"] is None else root[s["parent"]]
    groups = defaultdict(lambda: [0, 0.0, 0.0])
    module_self = Counter()
    per_pass = [Counter() for _ in range(passes)]
    for s in spans:
        name, a = s["name"], s["attrs"]
        r = spans[root[s["id"]]]
        counts = per_pass[r["attrs"]["pass_index"]]
        group = name
        if name == "cogmap.simulate":
            group = f"{name}.{a['family']}"
            counts["cells"] += a["cells"]
            counts[f"cells.{a['family']}"] += a["cells"]
            counts[f"simulate_under.{r['name']}"] += 1
        elif name == "dynamics.classify":
            counts[f"verdict.{a['verdict']}"] += 1
        elif name == "convergence.check":
            group = f"{name}.{a['family']}"
            counts["mixed_sign"] += a.get("error") == "MixedSignWeightError"
        elif s is r:
            counts[f"analyses_under.{name}"] += a["analyses"]
        counts[f"calls.{group}"] += 1
        g = groups[group]
        g[0] += 1
        g[1] += s["end"] - s["start"]
        g[2] += self_s[s["id"]]
        module_self[module_of(name)] += self_s[s["id"]]
    return groups, module_self, per_pass


def traced_run(workload):
    from workloads import cli_env

    setup_s = timed(workload.setup)
    probes = import_probes(cli_env(ROOT))
    ledger = Ledger(workload)
    tracer = Tracer()
    untraced, traced = [], []
    # An untraced pass between two traced ones, so that drift in machine
    # speed falls on both sides of the overhead estimate.
    for tracing in (True, False, True):
        if tracing:
            with tracer.installed(trace_targets()):
                traced += run_passes(workload, 1, workload.replay, ledger, tracer,
                                     first_pass=len(traced))
        else:
            untraced += run_passes(workload, 1, workload.replay, ledger)
    failed, errors = ledger.finish()
    groups, module_self, per_pass = analyse_spans(tracer, len(traced))
    if any(c != per_pass[0] for c in per_pass):
        errors.append("span work counts differ between traced passes")
    counts = per_pass[0]
    total = sum(traced)
    share = {m: module_self[m] / total for m in MODULES}

    def mean_ms(prefix):
        calls = sum(g[0] for k, g in groups.items() if k == prefix or k.startswith(prefix + "."))
        secs = sum(g[1] for k, g in groups.items() if k == prefix or k.startswith(prefix + "."))
        return secs / calls * 1000 if calls else None

    def self_ms(group):
        g = groups.get(group)
        return g[2] / g[0] * 1000 if g else None

    def ratio(num, den):
        return counts[num] / counts[den] if counts[den] else None

    analyses = sum(counts[f"analyses_under.{r}"] for r in ANALYSIS_ROOTS)
    sim_in_analyses = sum(counts[f"simulate_under.{r}"] for r in ANALYSIS_ROOTS)
    sim_seconds = sum(g[1] for k, g in groups.items() if k.startswith("cogmap.simulate."))
    per_layer = {
        "import.interpreter_ms": metric(probes["import.interpreter_ms"], "ms"),
        "import.numpy_ms": metric(probes["import.numpy_ms"], "ms"),
        "import.greycog_ms": metric(probes["import.greycog_ms"], "ms"),
        "cli.share": metric(share["cli"], "fraction"),
        "cli.bytes_written": metric(ledger.pass_counts[-1]["bytes_written"], "bytes"),
        "modelio.parse_model_ms": metric(mean_ms("_modelio.parse_model"), "ms"),
        "modelio.share": metric(share["_modelio"], "fraction"),
        "cogmap.simulate_ms": metric(mean_ms("cogmap.simulate"), "ms"),
        "cogmap.cells_per_s": metric(counts["cells"] / sim_seconds, "1/s"),
        "cogmap.cells": metric(counts["cells"], "count"),
        "cogmap.simulate_calls_per_analysis": metric(sim_in_analyses / analyses, "ratio"),
        "cogmap.share": metric(share["cogmap"], "fraction"),
        "dynamics.classify_ms": metric(mean_ms("dynamics.classify"), "ms"),
        "dynamics.share": metric(share["dynamics"], "fraction"),
        **{f"dynamics.verdicts.{v}": metric(counts[f"verdict.{v}"], "count") for v in VERDICTS},
        "convergence.check_ms": metric(mean_ms("convergence.check"), "ms"),
        "convergence.share": metric(share["convergence"], "fraction"),
        "convergence.mixed_sign": metric(counts["mixed_sign"], "count"),
        "trace.overhead_ms": metric((statistics.mean(traced) - untraced[0]) * 1000, "ms"),
    }

    missing = "missing"
    layers = {}
    for cmd in COMMANDS:
        layers[f"cli.main.ms.{cmd}"] = mean_ms(f"cli.main.{cmd}") or missing
        layers[f"cli.self.ms.{cmd}"] = self_ms(f"cli.main.{cmd}") or missing
    layers["cli.sweep.simulate_calls_per_lambda"] = (
        ratio("simulate_under.cli.main.sweep", "analyses_under.cli.main.sweep") or missing)
    layers["cli.bytes_written"] = ledger.pass_counts[-1]["bytes_written"]
    for name in ("load_model", "parse_model"):
        layers[f"_modelio.{name}.ms"] = mean_ms(f"_modelio.{name}") or missing
    for fam in FAMILIES:
        g = groups.get(f"cogmap.simulate.{fam}")
        layers[f"cogmap.simulate.ms.{fam}"] = mean_ms(f"cogmap.simulate.{fam}") or missing
        layers[f"cogmap.cells_per_s.{fam}"] = counts[f"cells.{fam}"] / g[1] * len(traced) if g else missing
        layers[f"convergence.check.ms.{fam}"] = mean_ms(f"convergence.check.{fam}") or missing
    layers["dynamics.classify.ms"] = mean_ms("dynamics.classify") or missing
    for v in VERDICTS:
        layers[f"dynamics.verdicts.{v}"] = counts[f"verdict.{v}"]
    layers["convergence.mixed_sign"] = counts["mixed_sign"]
    for m in MODULES:
        layers[f"{m}.self_ms_per_pass"] = module_self[m] / len(traced) * 1000
        layers[f"{m}.share"] = share[m]
    layers["trace.traced_pass_ms"] = [t * 1000 for t in traced]
    layers["trace.untraced_pass_ms"] = untraced[0] * 1000

    detail = {
        "setup_s": setup_s,
        "attempted": len(ledger.attempts),
        "failed": failed,
        "wrong_frac": failed / len(ledger.attempts),
        "errors": errors[:20],
        "work_counts_per_pass": dict(ledger.pass_counts[0]),
        "span_counts_per_pass": dict(counts),
        "layers": layers,
        "prediction": prediction(workload.name, share, probes, layers),
    }
    result = {"correct": not errors, "attempted": len(ledger.attempts), "failed": failed,
              "metrics": per_layer}
    return detail, result


def prediction(name, share, probes, layers) -> dict:
    """Whether the layer the workload was chosen to stress dominated."""
    if name == "corpus_cli":
        imports = sum(probes.values())
        measured = imports / (imports + layers["cli.main.ms.check"])
        return {"layer": "import.*",
                "predicted": "imports are most of a `check` process: interpreter start, "
                             "numpy and greycog imports over those plus the in-process check",
                "measured": measured, "held": measured > 0.5}
    if name == "dense_check":
        measured = share["cogmap"]
        return {"layer": "cogmap", "predicted": "cogmap has the largest share, about 0.9",
                "measured": measured,
                "held": measured > 0.5 and measured == max(share.values())}
    measured = share["dynamics"]
    return {"layer": "dynamics", "predicted": "dynamics is about half of the time",
            "measured": measured, "held": 0.35 <= measured <= 0.65}


# --------------------------------------------------------------- provenance

def provenance(seed) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=PROBE_TIMEOUT_S)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "greycog").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"commit": commit, "source_sha256": digest.hexdigest(), "seed": seed,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "cpu": cpu, "nproc": os.cpu_count()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "greycog" / "__init__.py").is_file():
        print(f"perfbench: no greycog sources under {ROOT / 'src'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    scratch = HERE / "_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        workload = workloads.WORKLOADS[args.workload](ROOT, work, args.seed, reference)
        if args.trace:
            detail, result = traced_run(workload)
        else:
            detail, result = timed_run(workload, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    detail.update(workload=args.workload, trace=args.trace, provenance=provenance(args.seed))
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
