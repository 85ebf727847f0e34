"""The benchmark's three workloads.

Each workload generates its inputs from the seed in `setup`, lists the
calls of one pass, runs a call (`run` for the timed loop, `replay` for the
in-process traced run) and checks a call's output outside the timed
region. Counts returned by `check` are the work a call did, as seen in its
output; the harness requires them to repeat exactly on every pass.

Import this module only after `src` is on `sys.path`.
"""

from __future__ import annotations

import io
import json
import os
import random
import shutil
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from greycog import _modelio, cli, cogmap, convergence, dynamics

import checks

# A subprocess call that takes this long is killed and counted as wrong.
CALL_TIMEOUT_S = 120


@dataclass(frozen=True)
class Call:
    key: str          # stable label; the same call on every pass
    command: str      # cli subcommand, or "survey" for the library pipeline
    argv: tuple       # cli arguments, or (map index,) for the survey
    analyses: int     # models analysed at one lambda (simulate+classify+criterion)


@dataclass
class Outcome:
    rc: int
    stdout: str = ""
    results: object = None  # in-process results the checks read


def cli_in_process(argv) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects arguments by exiting
        rc = exc.code if isinstance(exc.code, int) else 2
    return Outcome(rc, out.getvalue())


def cli_env(root: Path) -> dict:
    """Environment for CLI subprocesses: the checkout's sources on the
    path, and bytecode caching on, so that after a warm-up call every
    process imports compiled modules as an installed CLI does."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_subprocess(argv, env) -> Outcome:
    try:
        proc = subprocess.run([sys.executable, "-m", "greycog", *argv], env=env,
                              capture_output=True, text=True, timeout=CALL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return Outcome(-1)
    return Outcome(proc.returncode, proc.stdout)


def _lam_arg(lam: float) -> str:
    return repr(float(lam))


class Workload:
    name = ""
    # Length of one pass at the reference speed (see run.HostSpeed); the
    # harness runs round(seconds / pass_seconds) passes, at least three.
    pass_seconds = 1.0
    # Set-up repeats per run; setup_s is their median.
    setup_repeats = 5
    # peak_rss_mb is the largest child process rather than this process.
    measures_children = False

    def __init__(self, root: Path, work: Path, seed: int, reference: dict):
        self.work = work
        self.seed = seed
        self.reference = reference
        self._order = random.Random(f"{seed}:order")
        self.calls: list[Call] = []

    def setup(self) -> None:
        raise NotImplementedError

    def pass_calls(self) -> list[Call]:
        calls = list(self.calls)
        self._order.shuffle(calls)
        return calls

    def run(self, call: Call) -> Outcome:
        return cli_in_process((call.command, *call.argv))

    def replay(self, call: Call) -> Outcome:
        return self.run(call)

    def check(self, call: Call, out: Outcome):
        """(errors, work counts, signature). The signature must be the same
        for a call on every pass."""
        raise NotImplementedError

    def final_errors(self, signatures: dict) -> dict[str, list[str]]:
        """Checks made once per run, keyed by call key."""
        return {}


# --------------------------------------------------------------- corpus_cli

WEB = ("web_fcm", "web_fgcm", "web_fggcm")
STRESS = ("web_case1_fgcm", "web_case1_fggcm", "web_case2_fggcm")
CHECK_LAMBDAS = (0.5, 1.0, 2.0, 4.0)
CHECK_STEPS = 100
RUN_STEPS = 200
# Every seed sweeps the same grid: a sweep is the slowest call, so its
# cost sets call_ms.tail, and a grid drawn from the seed made that cost
# vary from seed to seed by more than host noise does.
SWEEP_LAMBDAS = tuple(k / 2 for k in range(1, 17))


class CorpusCli(Workload):
    """The installed CLI as a researcher runs it, one process per call, on
    the seven-node web corpus."""

    name = "corpus_cli"
    pass_seconds = 5.3
    measures_children = True

    def __init__(self, root, work, seed, reference):
        super().__init__(root, work, seed, reference)
        self.env = cli_env(root)
        self.models = work / "models"
        self.out = work / "out"
        rng = random.Random(seed)
        sim_lam = {v: rng.choice(CHECK_LAMBDAS) for v in WEB}
        calls = []
        for v in WEB:
            for lam in CHECK_LAMBDAS:
                calls.append(Call(f"check {v} lam={lam:g}", "check",
                                  ("--model", self._model(v), "--lambda", _lam_arg(lam),
                                   "--steps", str(CHECK_STEPS)), 1))
            lam = sim_lam[v]
            calls.append(Call(f"simulate {v} lam={lam:g}", "simulate",
                              ("--model", self._model(v), "--lambda", _lam_arg(lam),
                               "--steps", str(RUN_STEPS), "--out", str(self.out / f"{v}.csv")), 0))
            calls.append(Call(f"sweep {v}", "sweep",
                              ("--model", self._model(v), "--steps", str(RUN_STEPS),
                               "--lambdas", ",".join(map(_lam_arg, SWEEP_LAMBDAS)),
                               "--out-dir", str(self.out / f"sweep_{v}")), len(SWEEP_LAMBDAS)))
        for v in STRESS:
            calls.append(Call(f"check {v}", "check", ("--model", self._model(v)), 1))
        for v in WEB + STRESS:
            calls.append(Call(f"corpus {v}", "corpus", (v, "--out", str(self.out / f"{v}.json")), 0))
        self.calls = calls

    def _model(self, variant) -> str:
        return str(self.models / f"{variant}.json")

    def setup(self):
        self.models.mkdir(parents=True, exist_ok=True)
        self.out.mkdir(parents=True, exist_ok=True)
        for variant, doc in self.reference["corpus"].items():
            with open(self._model(variant), "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2)
        self.run(self.calls[0])

    def run(self, call):
        return cli_subprocess((call.command, *call.argv), self.env)

    def replay(self, call):
        return cli_in_process((call.command, *call.argv))

    def check(self, call, out):
        counts = Counter()
        try:
            errors = getattr(self, f"_check_{call.command}")(call, out, counts)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            errors = [f"unreadable output: {type(exc).__name__}: {exc}"]
        finally:
            self._clear_outputs()
        return errors, counts, tuple(sorted(counts.items()))

    def _clear_outputs(self):
        for path in self.out.iterdir():
            if path.is_dir():
                shutil.rmtree(path)
            else:
                path.unlink()

    def _check_check(self, call, out, counts):
        variant = call.key.split()[1]
        ref = self.reference["check"][call.key]
        if out.rc != ref["rc"]:
            return [f"exit code {out.rc}, documented {ref['rc']}"]
        got = checks.report_summary(json.loads(out.stdout))
        if "error" in got:
            counts["mixed_sign"] += 1
        else:
            counts[f"verdict.{got['classification'][0]}"] += 1
        errors = checks.summary_errors(got, ref["summary"])
        if variant in WEB:
            expected = self.reference["expected_class"][variant][call.key.rsplit("=", 1)[1]]
            if got.get("classification") != expected:
                errors.append(f"verdict {got.get('classification')} != EXPECTED_CLASS {expected}")
        return errors

    def _check_simulate(self, call, out, counts):
        if out.rc != 0:
            return [f"exit code {out.rc}"]
        path = Path(call.argv[-1])
        counts["bytes_written"] += path.stat().st_size
        got = checks.trajectory_csv_summary(path)
        return checks.trajectory_errors(got, self.reference["simulate"][call.key])

    def _check_sweep(self, call, out, counts):
        if out.rc != 0:
            return [f"exit code {out.rc}"]
        out_dir = Path(call.argv[-1])
        files = list(out_dir.iterdir())
        counts["bytes_written"] += sum(p.stat().st_size for p in files)
        lams = call.argv[call.argv.index("--lambdas") + 1].split(",")
        errors = []
        if len(files) != 2 * len(lams) + 1:
            errors.append(f"{len(files)} files written for {len(lams)} lambdas")
        rows = checks.read_sweep_summary(out_dir / "summary.csv")
        ref = self.reference["sweep"][call.key.split()[1]]
        tags = [f"{float(s):g}" for s in lams]
        if [r[0] for r in rows[1:]] != tags or rows[0] != ref["header"]:
            return errors + [f"summary rows {[r[0] for r in rows]} != lambdas {tags}"]
        for row in rows[1:]:
            counts[f"verdict.{row[3]}"] += 1
            errors += checks.sweep_row_errors(row, [row[0]] + ref["rows"][row[0]])
        return errors

    def _check_corpus(self, call, out, counts):
        if out.rc != 0:
            return [f"exit code {out.rc}"]
        path = Path(call.argv[-1])
        counts["bytes_written"] += path.stat().st_size
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc != self.reference["corpus"][call.argv[0]]:
            return ["exported document differs from reference"]
        return []


# -------------------------------------------------------------- dense_check

DENSE_N = 100
DENSE_MAPS = 2
DENSE_STEPS = 100
DENSE_LAMBDAS = (0.01, 1.0)
DENSE_FAMILIES = ("fcm", "fgcm", "fggcm")
# Interval half-width, as corpus.inject_greyness applies it.
DENSE_INTERVAL_G = 0.02
DENSE_MAX_GREYNESS = 0.05


def dense_documents(seed: int) -> list[dict]:
    """Seeded n=100 maps, each as an fcm, fgcm and fggcm document. Weights
    of magnitude >= g widen to [w-g, w+g] clipped to [-1, 1] and smaller
    ones stay degenerate, so no interval straddles zero and the interval
    criterion applies."""
    rng = random.Random(seed)
    n = DENSE_N
    g = DENSE_INTERVAL_G

    def interval(x):
        if abs(x) >= g:
            return {"interval": [max(x - g, -1.0), min(x + g, 1.0)]}
        return {"interval": [x, x]}

    maps = []
    for _ in range(DENSE_MAPS):
        w = [[rng.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(n)]
        a0 = [rng.uniform(0.0, 1.0) for _ in range(n)]
        grey = [[rng.uniform(0.0, DENSE_MAX_GREYNESS) for _ in range(n)] for _ in range(n)]
        base = {"lambda": 1.0, "nodes": [f"N{i + 1}" for i in range(n)], "initial": a0}
        maps.append({
            "fcm": dict(base, family="fcm", weights=w),
            "fgcm": dict(base, family="fgcm", weights=[[interval(x) for x in row] for row in w]),
            "fggcm": dict(base, family="fggcm",
                          weights=[[{"kernel": x, "greyness": gx} for x, gx in zip(row, grow)]
                                   for row, grow in zip(w, grey)]),
        })
    return maps


class DenseCheck(Workload):
    """In-process `check` on seeded dense n=100 model files."""

    name = "dense_check"
    pass_seconds = 4.6

    def __init__(self, root, work, seed, reference):
        super().__init__(root, work, seed, reference)
        self.calls = [
            Call(f"check {fam} map={k} lam={lam:g}", "check",
                 ("--model", str(self._path(k, fam)), "--lambda", _lam_arg(lam),
                  "--steps", str(DENSE_STEPS)), 1)
            for k in range(DENSE_MAPS) for fam in DENSE_FAMILIES for lam in DENSE_LAMBDAS
        ]
        self.maps = None

    def _path(self, k, fam) -> Path:
        return self.work / f"dense{k}_{fam}.json"

    def setup(self):
        self.work.mkdir(parents=True, exist_ok=True)
        self.maps = dense_documents(self.seed)
        for k, docs in enumerate(self.maps):
            for fam, doc in docs.items():
                with open(self._path(k, fam), "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)
        self.run(self.calls[0])

    @staticmethod
    def _criteria(doc, lam) -> dict:
        fam = doc["family"]
        if fam == "fcm":
            return {"criterion": lam * checks.frobenius(doc["weights"])}
        if fam == "fgcm":
            wstar = [[checks.endpoint_magnitude(*c["interval"]) for c in row]
                     for row in doc["weights"]]
            return {"criterion": lam * checks.frobenius(wstar)}
        kernels = [[c["kernel"] for c in row] for row in doc["weights"]]
        return {"kernel": lam * checks.frobenius(kernels)}

    def check(self, call, out):
        _, fam, k, _ = call.key.split()
        doc = self.maps[int(k.split("=")[1])][fam]
        lam = float(call.argv[call.argv.index("--lambda") + 1])
        if out.rc != 0:
            return [f"exit code {out.rc}"], Counter(), None
        try:
            report = json.loads(out.stdout)
            got = checks.report_summary(report)
            criteria, verdict = got["criteria"], tuple(got["classification"])
        except (ValueError, KeyError) as exc:
            return [f"unreadable report: {exc!r}"], Counter(), None
        errors = []
        if report.get("family") != fam or report.get("lambda") != lam:
            errors.append(f"report is for {report.get('family')} at {report.get('lambda')}")
        for name, value in self._criteria(doc, lam).items():
            if not checks.close(criteria.get(name, float("nan")), value):
                errors.append(f"criterion {name}={criteria.get(name)!r}, expected {value!r}")
        counts = Counter({f"verdict.{verdict[0]}": 1})
        return errors, counts, (verdict, tuple(sorted(criteria.items())))

    def final_errors(self, signatures):
        """Every fcm check's verdict must match the definition. Exactness
        contract 1, bit for bit, on the first map at the largest lambda: the
        degenerate-interval fgcm endpoints and the zero-greyness fggcm
        kernels reproduce the fcm trajectory through the last step."""
        def states(docs, family, lam):
            doc = dict(docs["fcm"], family=family, **{"lambda": lam})
            return cogmap.simulate(_modelio.parse_model(doc), DENSE_STEPS).states

        errors = {}
        for k, docs in enumerate(self.maps):
            for lam in DENSE_LAMBDAS:
                key = f"check fcm map={k} lam={lam:g}"
                verdict = checks.classify("fcm", states(docs, "fcm", lam))
                if key in signatures and signatures[key][0] != verdict:
                    errors[key] = [f"verdict {signatures[key][0]} != definition {verdict}"]
        lam = max(DENSE_LAMBDAS)
        ref = states(self.maps[0], "fcm", lam)
        fgcm, fggcm = states(self.maps[0], "fgcm", lam), states(self.maps[0], "fggcm", lam)
        if any(c.lo != x or c.hi != x for s, r in zip(fgcm, ref) for c, x in zip(s, r)):
            errors[f"check fgcm map=0 lam={lam:g}"] = [
                "degenerate-interval fgcm endpoints differ from fcm"]
        if any(c.kernel != x or c.greyness != 0.0 for s, r in zip(fggcm, ref) for c, x in zip(s, r)):
            errors[f"check fggcm map=0 lam={lam:g}"] = ["zero-greyness fggcm kernels differ from fcm"]
        return errors


# ------------------------------------------------------------ regime_survey

SURVEY_N = 12
SURVEY_LAMBDA = 5.0
SURVEY_STEPS = 200
SURVEY_MAPS = 120
SURVEY_MAX_GREYNESS = 0.05
WARMUP_SEED = -1


def survey_documents(seed: int, maps: int = SURVEY_MAPS) -> list[tuple[dict, dict]]:
    """Seeded n=12 maps, each as a crisp document and a grey document with
    the crisp weights as kernels."""
    rng = random.Random(seed)
    n = SURVEY_N
    nodes = [f"N{i + 1}" for i in range(n)]
    docs = []
    for _ in range(maps):
        w = [[rng.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(n)]
        a0 = [rng.uniform(0.0, 1.0) for _ in range(n)]
        grey = [[{"kernel": x, "greyness": rng.uniform(0.0, SURVEY_MAX_GREYNESS)} for x in row]
                for row in w]
        base = {"lambda": SURVEY_LAMBDA, "nodes": nodes, "initial": a0}
        docs.append((dict(base, family="fcm", weights=w),
                     dict(base, family="fggcm", weights=grey)))
    return docs


class RegimeSurvey(Workload):
    """Library pipeline over seeded n=12 maps at lambda 5, T=200.

    A call is one map analysed crisp and then grey, so fcm and fggcm
    alternate. A call of one family alone would split the calls into two
    clusters of different cost, and the median would fall in the gap
    between them."""

    name = "regime_survey"
    pass_seconds = 3.2

    def __init__(self, root, work, seed, reference):
        super().__init__(root, work, seed, reference)
        self.calls = [Call(f"map {k}", "survey", (k,), 2) for k in range(SURVEY_MAPS)]
        self.docs = None

    def setup(self):
        self.docs = survey_documents(self.seed)
        # The warm-up map is the same for every seed, so that set-up does
        # the same work whatever the seed.
        self._analyse(survey_documents(WARMUP_SEED, maps=1)[0])

    def run(self, call):
        return self._analyse(self.docs[call.argv[0]])

    @staticmethod
    def _analyse(docs) -> Outcome:
        results = []
        for doc in docs:
            m = _modelio.parse_model(doc)
            traj = cogmap.simulate(m, SURVEY_STEPS)
            cls = dynamics.classify(traj, epsilon=checks.EPS, max_period=checks.MAX_PERIOD)
            if m.family == "fcm":
                crit = {"criterion": convergence.check_fcm(m.weights, m.lam).criterion_value}
            else:
                rep = convergence.check_fggcm(m, traj, cls)
                crit = {"kernel": rep.kernel_verdict.criterion_value,
                        "greyness": rep.greyness_value}
            results.append((m.family, traj.states, cls, crit))
        return Outcome(0, results=results)

    def check(self, call, out):
        crisp_doc = self.docs[call.argv[0]][0]
        expected = SURVEY_LAMBDA * checks.frobenius(crisp_doc["weights"])
        errors, counts, sig = [], Counter(), []
        for family, states, cls, crit in out.results:
            got = (cls.verdict, cls.t_alpha, cls.period)
            want = checks.classify(family, states)
            if got != want:
                errors.append(f"{family} verdict {got} != definition {want}")
            value = crit.get("criterion", crit.get("kernel"))
            if not checks.close(value, expected):
                errors.append(f"{family} criterion {value!r} != {expected!r}")
            counts[f"verdict.{cls.verdict}"] += 1
            sig.append((got, tuple(sorted(crit.items()))))
        crisp, grey = out.results[0][1], out.results[1][1]
        if any(g.kernel != x for gs, cs in zip(grey, crisp) for g, x in zip(gs, cs)):
            errors.append("fggcm kernel track differs from the fcm trajectory")
        return errors, counts, tuple(sig)


WORKLOADS = {w.name: w for w in (CorpusCli, DenseCheck, RegimeSurvey)}
