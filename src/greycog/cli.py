"""Command line front end.

Subcommands:

    simulate   run a model file, write the trajectory CSV
    check      print the convergence report as JSON
    sweep      run several lambdas, write per-run files plus a summary CSV
    corpus     export a built-in benchmark variant as a model file

Exit codes, all from one table, `_ERRORS`: 0 success, 2 usage or parse
failure or an output that cannot be written (a path, or a stdout on a full
device), 3 model or parameter validation failure, 4 criterion structurally
inapplicable, 141 stdout closed by its reader, with nothing on stderr (128
+ SIGPIPE, the code a shell reports when a closed pipe stops a writer). A
library error maps to its code by type: 2 MalformedInputError, 4
MixedSignWeightError and DegenerateRowError, 3 any other. A stderr closed
at start is a sink, and one that refuses its line keeps the code: nothing
diagnostic ever reaches stdout. `sweep` records a lambda whose run raises
as an `error(...)` summary row, goes on, and exits with the largest code
among its rows (0 when none failed). argparse checks each flag value with
the library's rule before any file is read or written, and the floor
`check` and `sweep` put on `--steps` too: `--max-period` + 1, the run
`classify` needs. `main` returns every code.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

from . import _modelio, convergence, corpus
from ._family import FAMILY, _Read, at_least, positive
from .cogmap import Model, simulate
from .dynamics import classify
from .errors import DegenerateRowError, GreycogError, MalformedInputError, MixedSignWeightError

__all__ = ["entrypoint", "main"]


def _flag(parse, rule, *bounds, name):
    """An argparse type: the flag's text through parse (int or float), then
    through a library rule whose ArgumentTypeError argparse prints."""
    def check(text):
        try:
            number = parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {parse.__name__} value: {text!r}") from None
        return rule(number, *bounds, argparse.ArgumentTypeError, name)
    return check


_lambda = _flag(float, positive, name="lambda")  # --lambda, and each --lambdas value


def _lambda_list(text):
    """The --lambdas list, blanks skipped, as {file tag: lambda} in the
    order given. A run's files and summary row are tagged f"{lam:g}", so
    two lambdas sharing a tag would overwrite each other's files."""
    lams = [_lambda(s) for s in text.split(",") if s.strip()]
    if not lams:
        raise argparse.ArgumentTypeError("expected at least one value")
    tags = [f"{lam:g}" for lam in lams]
    shared = sorted({t for t in tags if tags.count(t) > 1})
    if shared:
        clash = ", ".join(repr(lam) for lam, t in zip(lams, tags) if t in shared)
        raise argparse.ArgumentTypeError(f"{clash} share the file tags {', '.join(shared)}")
    return dict(zip(tags, lams))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greycog",
        description="Cognitive map engines over crisp, interval, and "
                    "kernel/greyness grey numbers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags shared by several commands, each defined once.
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--model", required=True, help="model file (JSON)")
    run.add_argument("--steps", type=_flag(int, at_least, 1, name="steps"), default=100)
    lam = argparse.ArgumentParser(add_help=False)
    lam.add_argument("--lambda", dest="lam", type=_lambda, default=None,
                     help="override the model file steepness")
    tail = argparse.ArgumentParser(add_help=False)
    tail.add_argument("--eps", type=_flag(float, positive, name="epsilon"), default=1e-8)
    tail.add_argument("--max-period", type=_flag(int, at_least, 2, name="max_period"), default=50)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", required=True, help="file to write")

    # Each subparser's `run` default is its command; `main` refuses a --steps
    # too short for --max-period with the `refuse` usage of check and sweep.
    p = sub.add_parser("simulate", parents=[run, lam, out],
                       help="run a model and write its trajectory CSV")
    p.set_defaults(run=_cmd_simulate)

    p = sub.add_parser("check", parents=[run, lam, tail],
                       help="print the convergence report as JSON")
    p.set_defaults(run=_cmd_check, refuse=p.error)

    p = sub.add_parser("sweep", parents=[run, tail], help="run several lambdas and summarize")
    p.add_argument("--lambdas", required=True, type=_lambda_list,
                   help="comma-separated steepness values, e.g. 0.5,1,2,4")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(run=_cmd_sweep, refuse=p.error)

    p = sub.add_parser("corpus", parents=[out], help="export a built-in benchmark variant")
    p.add_argument("variant", choices=corpus.VARIANTS, help="variant id")
    p.set_defaults(run=_cmd_corpus)

    return parser


# Exit code and stderr prefix of each failure `main` reports, most specific
# first: library errors by type, a stdout closed by its reader (128 +
# SIGPIPE, no line: no path is at fault), any other unwritable output.
_ERRORS = (
    (MalformedInputError, 2, "parse error: "),
    (MixedSignWeightError, 4, "criterion inapplicable: "),
    (DegenerateRowError, 4, "criterion inapplicable: "),
    (GreycogError, 3, "validation error: "),
    (BrokenPipeError, 141, ""),
    (OSError, 2, "error: "),
)


def _error_code(exc: Exception) -> tuple[int, str]:
    return next((code, prefix) for cls, code, prefix in _ERRORS if isinstance(exc, cls))


def _say(text) -> None:
    """text on stderr, flushed; a stderr that refuses it keeps main's code."""
    try:
        sys.stderr.write(text)
        sys.stderr.flush()
    except OSError:
        pass


def _write_trajectory(path, model: Model, traj) -> None:
    """The long-form CSV, byte for byte what a csv.writer row loop of
    [t, node, field, repr(float(value))] writes, assembled as text: each
    `node,field` pair is csv-encoded once per file, and each recorded
    state's rows once. The state cache is keyed on identity: simulate
    copies a cycle by appending the same tuples, and equality would merge
    a -0.0 initial cell with 0.0."""
    fam = FAMILY[model.family]
    pairs = []
    for name in model.node_names:
        for field in fam.fields:
            buf = io.StringIO()
            csv.writer(buf).writerow((name, field))
            pairs.append(buf.getvalue()[:-2])  # without the "\r\n" terminator
    rows = {}  # id(state) -> the state's rows after their t column
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("t,node,field,value\r\n")
        for t, state in enumerate(traj.states):
            parts = rows.get(id(state))
            if parts is None:
                values = (v for node in zip(*fam.split(state)) for v in node)
                parts = rows[id(state)] = [f",{pair},{repr(float(v))}\r\n"
                                           for pair, v in zip(pairs, values)]
            tag = str(t)
            fh.write(tag + tag.join(parts))


def _verdict_dict(v: convergence.Verdict) -> dict:
    """A verdict as report JSON. A criterion that overflowed to inf is
    written null, since JSON has no infinity; its display stays "inf"."""
    return {
        "criterion": v.criterion_value if v.criterion_value < math.inf else None,
        "criterion_display": f"{v.criterion_value:.4f}",
        "threshold": v.threshold,
        "outcome": v.outcome,
    }


def _analyze(model: Model, steps, eps, max_period):
    """A model's run, its classification, its criterion verdicts in report order
    ("criterion", or "kernel" then "greyness") and their report fields, by family."""
    traj = simulate(model, steps)
    cls = classify(traj, epsilon=eps, max_period=max_period)
    if model.family != "fggcm":
        check = convergence.check_fcm if model.family == "fcm" else convergence.check_fgcm
        verdict = check(model.weights, model.lam)
        return traj, cls, {"criterion": verdict}, _verdict_dict(verdict)
    full = convergence.check_fggcm(model, traj, cls)
    verdicts = {"kernel": full.kernel_verdict, "greyness": full.greyness_verdict}
    kernels, greyness = FAMILY["fggcm"].split(full.evaluation_state)
    return traj, cls, verdicts, {
        **{key: _verdict_dict(v) for key, v in verdicts.items()},
        "evaluation_state": {"kernels": kernels, "greyness": greyness,
                             "kernel_converged": full.kernel_converged},
        "overall": full.overall}


def _report(model: Model, args):
    """A run's check report and its `_analyze` trajectory, classification
    and verdicts, under the model file's stem as `pathlib` takes it (".x"
    and "x." are stems)."""
    traj, cls, verdicts, fields = _analyze(model, args.steps, args.eps, args.max_period)
    name = os.path.basename(args.model)
    dot = name.rfind(".")
    return {
        "model": name[:dot] if 0 < dot < len(name) - 1 else name,
        "family": model.family,
        "lambda": model.lam,
        "classification": {
            "verdict": cls.verdict,
            "t_alpha": cls.t_alpha,
            "period": cls.period,
            "epsilon": args.eps,
            "max_period": args.max_period,
        },
        **fields,
    }, traj, cls, verdicts


def _cmd_simulate(args) -> int:
    model = _modelio.load_model(args.model, args.lam)
    traj = simulate(model, args.steps)
    _write_trajectory(args.out, model, traj)
    return 0


def _cmd_check(args) -> int:
    model = _modelio.load_model(args.model, args.lam)
    code = 0
    try:
        doc, *_ = _report(model, args)
    except MixedSignWeightError as exc:
        code = _error_code(exc)[0]
        doc = {
            "error": "MixedSignWeight",
            "i": exc.i,
            "j": exc.j,
            "message": str(exc),
            "hint": "the interval criterion cannot rank a weight straddling "
                    "zero; model it as kernel/greyness (fggcm) instead",
        }
    print(json.dumps(doc, indent=2))
    return code


def _cmd_sweep(args) -> int:
    model = _modelio.load_model(args.model, next(iter(args.lambdas.values())))
    os.makedirs(args.out_dir, exist_ok=True)

    worst = 0
    rows = []
    for tag, lam in args.lambdas.items():  # {file tag: lambda}, see _lambda_list
        # The model was built at the first lambda; each later one rebuilds
        # it from the weight rows it holds, read already.
        if lam != model.lam:
            model = Model(model.family, model.node_names, tuple(map(_Read, model.weights)),
                          model.initial, lam)
        try:
            report, traj, cls, verdicts = _report(model, args)
        except GreycogError as exc:
            name = (f"MixedSignWeight {exc.i},{exc.j}"
                    if isinstance(exc, MixedSignWeightError) else type(exc).__name__)
            rows.append([tag, "", "", f"error({name})", ""])
            worst = max(worst, _error_code(exc)[0])
            continue
        _write_trajectory(os.path.join(args.out_dir, f"trajectory_lam{tag}.csv"), model, traj)
        _modelio.save_doc(report, os.path.join(args.out_dir, f"report_lam{tag}.json"))
        crit = [repr(v.criterion_value) for v in verdicts.values()] + [""]
        rows.append([tag, *crit[:2], cls.verdict, cls.period or ""])
    with open(os.path.join(args.out_dir, "summary.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "lambda", "criterion_kernel", "criterion_greyness",
            "classification", "period",
        ])
        writer.writerows(rows)
    return worst


def _cmd_corpus(args) -> int:
    doc = corpus.export_variant(args.variant)
    _modelio.save_doc(doc, args.out)
    return 0


def main(argv=None) -> int:
    if sys.stderr is None:  # descriptor 2 closed at start: a sink, never stdout
        sys.stderr = open(os.devnull, "w")
    try:
        try:
            args = build_parser().parse_args(argv)
            # classify needs max_period + 2 states, so max_period + 1 steps.
            if "max_period" in args and args.steps <= args.max_period:
                args.refuse(f"argument --steps: steps must be an integer >= "
                            f"{args.max_period + 1} (--max-period + 1), got {args.steps}")
            code = args.run(args)
        except SystemExit as exc:  # argparse: 2 for a rejected flag, 0 after --help
            code = exc.code
        sys.stdout.flush()  # a closed stdout raises here, not at exit, whatever the outcome
        return code
    except (GreycogError, OSError) as exc:
        code, prefix = _error_code(exc)
        _say(f"greycog: {prefix}{exc}\n" if prefix else "")
        return code


def entrypoint() -> None:
    """The `greycog` console script and `python -m greycog`: `main` on the
    process's arguments, then the end of the process with its code.

    When `main` returns, each file it wrote has been closed by its `with`
    block, and stdout has been flushed or its failure reported (141 for a
    closed pipe, 2 for a device that refuses the bytes). So the process
    ends there, through `os._exit`, and skips the interpreter's teardown:
    the final garbage collection, the clearing of every loaded module, and
    a second flush of stdout, which would meet the same closed pipe or
    full device again. `atexit` hooks that the environment installed do
    not run either (coverage's subprocess hook, for one). `main(argv)` is
    the in-process entry: it returns the code and never ends its caller's
    process.
    """
    code = main()
    _say("")  # what argparse left in stderr's buffer
    os._exit(code)
