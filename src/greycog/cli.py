"""Command line front end.

Subcommands:

    simulate   run a model file, write the trajectory CSV
    check      print the convergence report as JSON
    sweep      run several lambdas, write per-run files plus a summary CSV
    corpus     export a built-in benchmark variant as a model file

Exit codes: 0 success, 2 usage or parse failure or an output path that
cannot be written, 3 model or parameter validation failure, 4 criterion
structurally inapplicable (mixed-sign interval weight). A library error
maps to its code by type: 2 for MalformedInputError, 4 for
MixedSignWeightError, 3 for any other. `sweep` records a lambda whose run
raises as an `error(...)` summary row, goes on with the next lambda, and
exits with the largest code among its rows (0 when none failed). Each flag
value is checked by argparse, with the library's rule, before any file is
read or written, and so is the floor `check` and `sweep` put on `--steps`:
`--max-period` + 1, the run `classify` needs. `main` returns the code of
every failure, argparse's too.
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
from .errors import GreycogError, MalformedInputError, MixedSignWeightError

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


def _lambda_list(text):
    """The --lambdas list, blanks skipped, as {file tag: lambda} in the
    order given. A run's files and summary row are tagged f"{lam:g}", so
    two lambdas sharing a tag would overwrite each other's files."""
    check = _flag(float, positive, name="lambda")
    lams = [check(s) for s in text.split(",") if s.strip()]
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
    lam.add_argument("--lambda", dest="lam", type=_flag(float, positive, name="lambda"),
                     default=None, help="override the model file steepness")
    tail = argparse.ArgumentParser(add_help=False)
    tail.add_argument("--eps", type=_flag(float, positive, name="epsilon"), default=1e-8)
    tail.add_argument("--max-period", type=_flag(int, at_least, 2, name="max_period"), default=50)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", required=True, help="file to write")

    sub.add_parser("simulate", parents=[run, lam, out],
                   help="run a model and write its trajectory CSV")

    check = sub.add_parser("check", parents=[run, lam, tail],
                           help="print the convergence report as JSON")

    sweep = sub.add_parser("sweep", parents=[run, tail], help="run several lambdas and summarize")
    sweep.add_argument("--lambdas", required=True, type=_lambda_list,
                       help="comma-separated steepness values, e.g. 0.5,1,2,4")
    sweep.add_argument("--out-dir", required=True)
    # `main` refuses a --steps too short for --max-period with this usage.
    for p in (check, sweep):
        p.set_defaults(refuse=p.error)

    p = sub.add_parser("corpus", parents=[out], help="export a built-in benchmark variant")
    p.add_argument("variant", choices=corpus.VARIANTS, help="variant id")

    return parser


# Exit code and message prefix of each library error type, most specific
# first; GreycogError catches the rest.
_ERRORS = (
    (MalformedInputError, 2, "parse error: "),
    (MixedSignWeightError, 4, "criterion inapplicable: "),
    (GreycogError, 3, "validation error: "),
)


def _error_code(exc: GreycogError) -> tuple[int, str]:
    return next((code, prefix) for cls, code, prefix in _ERRORS if isinstance(exc, cls))


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
    """A model's run, its classification, the family's criterion verdicts by
    report name ("criterion", or fggcm's "kernel" and "greyness") and fggcm's
    `FggcmReport` (else None): the one place that pairs a family with its criterion."""
    traj = simulate(model, steps)
    cls = classify(traj, epsilon=eps, max_period=max_period)
    if model.family == "fggcm":
        full = convergence.check_fggcm(model, traj, cls)
        return traj, cls, {"kernel": full.kernel_verdict, "greyness": full.greyness_verdict}, full
    check = convergence.check_fcm if model.family == "fcm" else convergence.check_fgcm
    return traj, cls, {"criterion": check(model.weights, model.lam)}, None


def _report(model: Model, args):
    """A run's check report and its `_analyze` trajectory, classification
    and verdicts, under the model file's stem as `pathlib` takes it (".x"
    and "x." are stems)."""
    traj, cls, verdicts, full = _analyze(model, args.steps, args.eps, args.max_period)
    name = os.path.basename(args.model)
    dot = name.rfind(".")
    report = {
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
    }
    if full is None:
        report.update(_verdict_dict(verdicts["criterion"]))
    else:
        report.update({key: _verdict_dict(v) for key, v in verdicts.items()})
        kernels, greyness = FAMILY["fggcm"].split(full.evaluation_state)
        report["evaluation_state"] = {"kernels": kernels, "greyness": greyness,
                                      "kernel_converged": full.kernel_converged}
        report["overall"] = full.overall
    return report, traj, cls, verdicts


def _cmd_simulate(args) -> int:
    model = _modelio.load_model(args.model, args.lam)
    traj = simulate(model, args.steps)
    _write_trajectory(args.out, model, traj)
    return 0


def _cmd_check(args) -> int:
    model = _modelio.load_model(args.model, args.lam)
    try:
        report, *_ = _report(model, args)
    except MixedSignWeightError as exc:
        print(json.dumps({
            "error": "MixedSignWeight",
            "i": exc.i,
            "j": exc.j,
            "message": str(exc),
            "hint": "the interval criterion cannot rank a weight straddling "
                    "zero; model it as kernel/greyness (fggcm) instead",
        }, indent=2))
        return _error_code(exc)[0]
    print(json.dumps(report, indent=2))
    return 0


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
        crit = {key: repr(v.criterion_value) for key, v in verdicts.items()}
        kernel = crit.get("criterion") or crit["kernel"]
        rows.append([tag, kernel, crit.get("greyness", ""), cls.verdict, cls.period or ""])
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


_HANDLERS = {
    "simulate": _cmd_simulate,
    "check": _cmd_check,
    "sweep": _cmd_sweep,
    "corpus": _cmd_corpus,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # classify needs max_period + 2 states, so max_period + 1 steps.
        if "max_period" in args and args.steps <= args.max_period:
            args.refuse(f"argument --steps: steps must be an integer >= {args.max_period + 1} "
                        f"(--max-period + 1), got {args.steps}")
    except SystemExit as exc:  # argparse: 2 for a rejected flag, 0 after --help
        return exc.code
    try:
        return _HANDLERS[args.command](args)
    except GreycogError as exc:
        code, prefix = _error_code(exc)
        print(f"greycog: {prefix}{exc}", file=sys.stderr)
        return code
    except OSError as exc:
        print(f"greycog: error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())
