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
exits with the largest code among its rows (0 when none failed).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

from . import _modelio, convergence, corpus
from ._family import FAMILY
from .cogmap import Model, simulate
from .dynamics import Classification, classify
from .errors import (
    GreycogError,
    InsufficientDataError,
    MalformedInputError,
    MixedSignWeightError,
)

__all__ = ["entrypoint", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greycog",
        description="Cognitive map engines over crisp, interval, and "
                    "kernel/greyness grey numbers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a model and write its trajectory CSV")
    p.add_argument("--model", required=True, help="model file (JSON)")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="override the model file steepness")
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--out", required=True, help="trajectory CSV path")

    p = sub.add_parser("check", help="print the convergence report as JSON")
    p.add_argument("--model", required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--eps", type=float, default=1e-8)
    p.add_argument("--max-period", type=int, default=50)

    p = sub.add_parser("sweep", help="run several lambdas and summarize")
    p.add_argument("--model", required=True)
    p.add_argument("--lambdas", required=True,
                   help="comma-separated steepness values, e.g. 0.5,1,2,4")
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--eps", type=float, default=1e-8)
    p.add_argument("--max-period", type=int, default=50)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("corpus", help="export a built-in benchmark variant")
    p.add_argument("variant", help="variant id, e.g. web_fcm")
    p.add_argument("--out", required=True, help="model file path to write")

    return parser


# Exit code and message prefix of each library error type, most specific
# first; GreycogError catches the rest.
_ERRORS = (
    (MalformedInputError, 2, "parse error: "),
    (MixedSignWeightError, 4, "criterion inapplicable: "),
    (InsufficientDataError, 3, ""),
    (GreycogError, 3, "validation error: "),
)


def _error_code(exc: GreycogError) -> tuple[int, str]:
    return next((code, prefix) for cls, code, prefix in _ERRORS if isinstance(exc, cls))


def _usage_error(message: str) -> int:
    print(f"greycog: error: {message}", file=sys.stderr)
    return 2


def _write_trajectory(path, model: Model, traj) -> None:
    fam = FAMILY[model.family]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "node", "field", "value"])
        for t, state in enumerate(traj.states):
            for name, values in zip(model.node_names, zip(*fam.split(state))):
                for field, value in zip(fam.fields, values):
                    writer.writerow([t, name, field, repr(float(value))])


def _classification_dict(cls: Classification) -> dict:
    return {
        "verdict": cls.verdict,
        "t_alpha": cls.t_alpha,
        "period": cls.period,
        "epsilon": cls.epsilon,
        "max_period": cls.max_period,
    }


def _verdict_dict(v: convergence.Verdict) -> dict:
    return {
        "criterion": v.criterion_value,
        "criterion_display": f"{v.criterion_value:.4f}",
        "threshold": v.threshold,
        "outcome": v.outcome,
    }


def _report(model: Model, model_label: str, steps: int, eps: float, max_period: int):
    """A run's check report, trajectory, classification and criterion
    verdicts (the family's one, or fggcm's kernel and greyness ones)."""
    traj = simulate(model, steps, model_id=model_label)
    cls = classify(traj, epsilon=eps, max_period=max_period)
    report = {
        "model": model_label,
        "family": model.family,
        "lambda": model.lam,
        "classification": _classification_dict(cls),
    }
    if model.family == "fggcm":
        full = convergence.check_fggcm(model, traj, cls)
        verdicts = (full.kernel_verdict, full.greyness_verdict)
        report["kernel"] = _verdict_dict(full.kernel_verdict)
        report["greyness"] = _verdict_dict(full.greyness_verdict)
        report["evaluation_state"] = {
            "kernels": [g.kernel for g in full.evaluation_state],
            "greyness": [g.greyness for g in full.evaluation_state],
            "kernel_converged": full.kernel_converged,
        }
        report["overall"] = full.overall
    else:
        check = convergence.check_fcm if model.family == "fcm" else convergence.check_fgcm
        verdicts = (check(model.weights, model.lam),)
        report.update(_verdict_dict(verdicts[0]))
    return report, traj, cls, verdicts


def _run_args_error(steps, lams, eps=None, max_period=None):
    """The first run argument of simulate, check or sweep that is out of
    range, as a message, or None. lams is empty when the model file's
    lambda is kept; eps and max_period are None for simulate."""
    if steps < 1:
        return f"--steps must be >= 1, got {steps}"
    if eps is not None and not eps > 0.0:
        return f"--eps must be > 0, got {eps}"
    if max_period is not None and max_period < 2:
        return f"--max-period must be >= 2, got {max_period}"
    if any(not lam > 0.0 for lam in lams):
        return "every lambda must be > 0"
    if any(not math.isfinite(lam) for lam in lams):
        return "every lambda must be finite"
    return None


def _cmd_simulate(args) -> int:
    error = _run_args_error(args.steps, () if args.lam is None else (args.lam,))
    if error:
        return _usage_error(error)
    model = _modelio.load_model(args.model, args.lam)
    traj = simulate(model, args.steps, model_id=Path(args.model).stem)
    _write_trajectory(args.out, model, traj)
    return 0


def _cmd_check(args) -> int:
    error = _run_args_error(args.steps, () if args.lam is None else (args.lam,),
                            args.eps, args.max_period)
    if error:
        return _usage_error(error)
    model = _modelio.load_model(args.model, args.lam)
    label = Path(args.model).stem
    try:
        report, *_ = _report(model, label, args.steps, args.eps, args.max_period)
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
    raw = [s for s in args.lambdas.split(",") if s.strip()]
    if not raw:
        return _usage_error("--lambdas must list at least one value")
    try:
        lams = [float(s) for s in raw]
    except ValueError:
        return _usage_error(f"--lambdas contains a non-number: {args.lambdas!r}")
    error = _run_args_error(args.steps, lams, args.eps, args.max_period)
    if error:
        return _usage_error(error)
    # Files and summary rows are tagged f"{lam:g}"; two lambdas sharing a
    # tag would overwrite each other's files.
    tags = [f"{lam:g}" for lam in lams]
    shared = sorted({t for t in tags if tags.count(t) > 1})
    if shared:
        given = ", ".join(s.strip() for s, t in zip(raw, tags) if t in shared)
        return _usage_error(f"--lambdas {given} share the file tags {', '.join(shared)}")

    model = _modelio.load_model(args.model, lams[0])
    label = Path(args.model).stem
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    worst = 0
    rows = []
    for lam, tag in zip(lams, tags):
        # The model was built at the first lambda; each later one replaces it.
        if lam != model.lam:
            model = dataclasses.replace(model, lam=lam)
        try:
            report, traj, cls, verdicts = _report(model, label, args.steps, args.eps,
                                                  args.max_period)
        except GreycogError as exc:
            name = (f"MixedSignWeight {exc.i},{exc.j}"
                    if isinstance(exc, MixedSignWeightError) else type(exc).__name__)
            rows.append([tag, "", "", f"error({name})", ""])
            worst = max(worst, _error_code(exc)[0])
            continue
        _write_trajectory(out_dir / f"trajectory_lam{tag}.csv", model, traj)
        with open(out_dir / f"report_lam{tag}.json", "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        kernel_crit, grey_crit, *_ = [repr(v.criterion_value) for v in verdicts] + [""]
        period = cls.period if cls.period is not None else ""
        rows.append([tag, kernel_crit, grey_crit, cls.verdict, period])
    with open(out_dir / "summary.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "lambda", "criterion_kernel", "criterion_greyness",
            "classification", "period",
        ])
        writer.writerows(rows)
    return worst


def _cmd_corpus(args) -> int:
    if args.variant not in corpus.VARIANTS:
        valid = ", ".join(sorted(corpus.VARIANTS))
        return _usage_error(f"unknown variant {args.variant!r}; valid ids: {valid}")
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
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except GreycogError as exc:
        code, prefix = _error_code(exc)
        print(f"greycog: {prefix}{exc}", file=sys.stderr)
        return code
    except OSError as exc:
        return _usage_error(str(exc))


def entrypoint() -> None:
    sys.exit(main())
