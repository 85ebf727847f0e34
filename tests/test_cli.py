"""Command line surface: files written, JSON shape, exit codes."""

import ast
import csv
import errno
import inspect
import json
import os
import random
import subprocess
import sys
from pathlib import Path, PurePath

import pytest

import greycog as gc
from greycog import cli
from greycog._family import FAMILY
from greycog.cli import main
from conftest import family_with
import golden


BIG = "9" * 401  # an integer literal no float can hold


def export(tmp_path, variant):
    path = tmp_path / f"{variant}.json"
    assert main(["corpus", variant, "--out", str(path)]) == 0
    return str(path)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_corpus_export_parses_back(tmp_path):
    path = export(tmp_path, "web_fggcm")
    assert gc.load_model(path) == gc.build("web_fggcm", 1.0)


@pytest.mark.parametrize("variant", sorted(gc.VARIANTS))
def test_trajectory_and_summary_csvs_are_pinned(tmp_path, variant):
    model = export(tmp_path, variant)
    traj = tmp_path / "simulate.csv"
    assert main(["simulate", "--model", model, "--lambda", "2", "--steps", "200",
                 "--out", str(traj)]) == 0
    # Case 1 fgcm's mixed-sign weight makes every summary row an error, exit 4.
    assert main(["sweep", "--model", model, "--lambdas", "0.5,1,2,4",
                 "--out-dir", str(tmp_path / "sweep")]) == (4 if variant == "web_case1_fgcm" else 0)
    sweep = tmp_path / "sweep"
    golden.check({f"variant_files/{variant}/{path.name}":
                  golden.md5(path.read_bytes()) if path.exists() else None
                  for path in (traj, sweep / "summary.csv", sweep / "trajectory_lam4.csv",
                               sweep / "report_lam4.json")})


def dense_fgcm_doc(negative):
    """A seeded n=40 fgcm model document at lambda 0.25, whose 79th
    computed state repeats an earlier one. Weights are intervals of
    half-width up to 0.05 around a centre in [-1, 1], so every sign pattern
    occurs; the initial state's centres lie in [0.25, 1] (every lo >= 0)
    or, when negative, in [-0.5, 1] (17 lo < 0)."""
    rng = random.Random(19)
    n = 40

    def cell(low, half):
        x, h = rng.uniform(low, 1.0), rng.uniform(0.0, half)
        return {"interval": [max(x - h, -1.0), min(x + h, 1.0)]}

    weights = [[cell(-1.0, 0.05) for _ in range(n)] for _ in range(n)]
    initial = [cell(-0.5 if negative else 0.25, 0.25) for _ in range(n)]
    return {"family": "fgcm", "lambda": 0.25, "nodes": [f"N{i}" for i in range(1, n + 1)],
            "weights": weights, "initial": initial}


@pytest.mark.parametrize("negative", [False, True])
def test_dense_interval_trajectory_csvs_are_pinned(tmp_path, negative):
    model = tmp_path / "dense.json"
    model.write_text(json.dumps(dense_fgcm_doc(negative)), encoding="utf-8")
    assert any(c["interval"][0] < 0.0 for c in dense_fgcm_doc(negative)["initial"]) == negative
    traj = tmp_path / "traj.csv"
    assert main(["simulate", "--model", str(model), "--steps", "100", "--out", str(traj)]) == 0
    name = "negative_lo" if negative else "nonnegative_lo"
    golden.check({f"dense_fgcm/{name}": golden.md5(traj.read_bytes())})


def survey_docs(seed):
    """A seeded n=12 fcm model document at lambda 5 and its fggcm twin,
    whose kernels are the crisp weights, each weight given a greyness in
    [0, 0.05]: the first map perfbench's regime_survey draws for seed."""
    rng = random.Random(seed)
    n = 12
    w = [[rng.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(n)]
    initial = [rng.uniform(0.0, 1.0) for _ in range(n)]
    grey = [[{"kernel": x, "greyness": rng.uniform(0.0, 0.05)} for x in row] for row in w]
    base = {"lambda": 5.0, "nodes": [f"N{i + 1}" for i in range(n)], "initial": initial}
    return dict(base, family="fcm", weights=w), dict(base, family="fggcm", weights=grey)


@pytest.mark.parametrize("seed", [12, 26])
def test_survey_map_trajectory_csvs_are_pinned(tmp_path, seed):
    got = {}
    for doc in survey_docs(seed):
        model = tmp_path / f"{doc['family']}.json"
        model.write_text(json.dumps(doc), encoding="utf-8")
        traj = tmp_path / f"{doc['family']}.csv"
        assert main(["simulate", "--model", str(model), "--steps", "200",
                     "--out", str(traj)]) == 0
        got[f"survey/{seed}/{traj.name}"] = golden.md5(traj.read_bytes())
    golden.check(got)


def write_rows_oracle(path, model, traj):
    """The trajectory CSV as a csv.writer row loop writes it: the bytes
    cli._write_trajectory assembles by hand must equal these."""
    fam = FAMILY[model.family]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "node", "field", "value"])
        for t, state in enumerate(traj.states):
            for name, values in zip(model.node_names, zip(*fam.split(state))):
                for field, value in zip(fam.fields, values):
                    writer.writerow([t, name, field, repr(float(value))])


def assert_written_like_oracle(tmp_path, model, traj):
    cli._write_trajectory(tmp_path / "got.csv", model, traj)
    write_rows_oracle(tmp_path / "want.csv", model, traj)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


# Names the csv module must quote (comma, quote, LF, CR), or must not
# (a leading blank, non-ASCII, the empty name beside other fields).
ODD_NAMES = ("a,b", 'q"uote', "line\nbreak", "cr\rx", " lead", "\u00fc", "")


@pytest.mark.parametrize("family", ["fcm", "fgcm", "fggcm"])
def test_trajectory_csv_quotes_node_names_as_csv_writer_does(tmp_path, family):
    web = gc.build(f"web_{family}", 2.0)
    model = gc.Model(family, ODD_NAMES, web.weights, web.initial, web.lam)
    assert_written_like_oracle(tmp_path, model, gc.simulate(model, 30))
    assert {row[1] for row in read_csv(tmp_path / "got.csv")[1:]} == set(ODD_NAMES)


def test_trajectory_csv_keeps_signed_zeros_apart(tmp_path):
    # -0.0 == 0.0 and both hash alike, so a state cache keyed on equality
    # would print the second state as the first.
    model = gc.Model("fcm", ("x",), ((0.0,),), (-0.0,), 1.0)
    cli._write_trajectory(tmp_path / "t.csv", model, gc.Trajectory("fcm", ((-0.0,), (0.0,))))
    assert read_csv(tmp_path / "t.csv")[1:] == [["0", "x", "value", "-0.0"],
                                                ["1", "x", "value", "0.0"]]


@pytest.mark.parametrize("variant", ["web_fcm", "web_fgcm", "web_fggcm"])
def test_copied_cycle_writes_as_fresh_states(tmp_path, variant):
    model = gc.build(variant, 4.0)
    traj = gc.simulate(model, 200)
    assert len({id(s) for s in traj.states}) < len(traj.states)  # a copied cycle
    fresh = gc.Trajectory(traj.family, tuple(tuple(list(s)) for s in traj.states))
    cli._write_trajectory(tmp_path / "copied.csv", model, traj)
    cli._write_trajectory(tmp_path / "fresh.csv", model, fresh)
    assert (tmp_path / "copied.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()
    assert_written_like_oracle(tmp_path, model, traj)


def test_simulate_writes_trajectory(tmp_path):
    model = export(tmp_path, "web_fcm")
    out = tmp_path / "traj.csv"
    rc = main(["simulate", "--model", model, "--lambda", "0.5",
               "--steps", "10", "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    assert rows[0] == ["t", "node", "field", "value"]
    assert len(rows) == 1 + 11 * 7          # header + (steps+1) * nodes
    assert rows[1][:3] == ["0", "C1", "value"]
    assert float(rows[1][3]) == 1.0
    assert {r[2] for r in rows[1:]} == {"value"}


def test_simulate_ggn_has_two_fields_per_node(tmp_path):
    model = export(tmp_path, "web_fggcm")
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--model", model, "--steps", "5", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 1 + 6 * 7 * 2
    assert {r[2] for r in rows[1:]} == {"kernel", "greyness"}
    # Values round-trip as exact doubles.
    assert all(repr(float(r[3])) == r[3] for r in rows[1:])


def test_simulate_missing_model_file(tmp_path, capsys):
    rc = main(["simulate", "--model", str(tmp_path / "no.json"),
               "--out", str(tmp_path / "t.csv")])
    assert rc == 2
    assert "parse error" in capsys.readouterr().err


def test_check_crisp_report(tmp_path, capsys):
    model = export(tmp_path, "web_fcm")
    rc = main(["check", "--model", model, "--lambda", "0.5"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["family"] == "fcm"
    assert report["lambda"] == 0.5
    assert report["criterion_display"] == "3.0680"
    assert report["threshold"] == 4.0
    assert report["outcome"] == gc.UNIQUE
    assert report["classification"]["verdict"] == "FixedPoint"
    assert report["classification"]["t_alpha"] == 26


def test_check_ggn_report(tmp_path, capsys):
    model = export(tmp_path, "web_fggcm")
    rc = main(["check", "--model", model, "--lambda", "0.5"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["kernel"]["criterion_display"] == "3.0586"
    assert report["kernel"]["outcome"] == gc.UNIQUE
    assert report["greyness"]["criterion_display"] == "0.1087"
    assert report["greyness"]["threshold"] == 1.0
    assert report["overall"] == gc.UNIQUE
    assert report["evaluation_state"]["kernel_converged"] is True
    assert len(report["evaluation_state"]["kernels"]) == 7


def strict_json(text):
    """text as JSON (RFC 8259), which has no Infinity or NaN."""
    def refuse(name):
        raise ValueError(f"{name} is no JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("variant, verdict", [("web_fcm", ()), ("web_fggcm", ("kernel",))])
def test_check_writes_an_overflowed_criterion_as_null(tmp_path, capsys, variant, verdict):
    # At lambda 1e308 the criterion overflows to inf, which JSON cannot hold.
    model = export(tmp_path, variant)
    assert main(["check", "--model", model, "--lambda", "1e308"]) == 0
    report = strict_json(capsys.readouterr().out)
    for key in verdict:
        report = report[key]
    assert (report["criterion"], report["criterion_display"], report["outcome"]) == (
        None, "inf", gc.INCONCLUSIVE)


@pytest.mark.parametrize("variant", ["web_fcm", "web_fgcm", "web_fggcm"])
def test_sweep_writes_an_overflowed_criterion_as_null(tmp_path, variant):
    # A one-verdict row pads the greyness cell empty; fggcm's holds its
    # finite greyness criterion beside the overflowed kernel one.
    model = export(tmp_path, variant)
    out = tmp_path / "sweep"
    assert main(["sweep", "--model", model, "--lambdas", "1,1e308", "--out-dir", str(out)]) == 0
    report = strict_json((out / "report_lam1e+308.json").read_text())
    row = read_csv(out / "summary.csv")[2][:4]
    if variant != "web_fggcm":
        assert (report["criterion"], report["criterion_display"], report["outcome"]) == (
            None, "inf", gc.INCONCLUSIVE)
        assert row == ["1e+308", "inf", "", "LimitCycle"]
        return
    assert (report["kernel"]["criterion"], report["kernel"]["criterion_display"]) == (None, "inf")
    assert report["greyness"]["criterion"] < 1.0
    assert strict_json((out / "report_lam1.json").read_text())["kernel"]["criterion"] > 4.0
    assert row == ["1e+308", "inf", repr(report["greyness"]["criterion"]), "LimitCycle"]


def test_check_mixed_sign_weight_exits_four(tmp_path, capsys):
    doc = {
        "family": "fgcm",
        "nodes": ["a"],
        "weights": [[{"interval": [-0.2, 0.3]}]],
        "initial": [0.5],
        "lambda": 1.0,
    }
    path = tmp_path / "straddle.json"
    path.write_text(json.dumps(doc))
    rc = main(["check", "--model", str(path)])
    assert rc == 4
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "MixedSignWeight"
    assert (err["i"], err["j"]) == (1, 1)
    assert "fggcm" in err["hint"]


def test_check_too_few_steps_for_period_cap(tmp_path, capsys):
    # classify's period cap of 50 needs 52 states: a usage error, exit 2.
    model = export(tmp_path, "web_fcm")
    rc = main(["check", "--model", model, "--steps", "10"])
    assert rc == 2


@pytest.mark.parametrize("eps", ["inf", "1e400", "nan"])
def test_check_non_finite_eps_is_usage_error(tmp_path, capsys, eps):
    # At lambda 2 the T=100 run is chaotic; an infinite eps must not make
    # it a fixed point, nor write "epsilon": Infinity.
    model = export(tmp_path, "web_fcm")
    assert main(["check", "--model", model, "--lambda", "2", "--eps", eps]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "argument --eps: epsilon: non-finite number" in err


def test_sweep_non_finite_eps_is_usage_error_before_writing(tmp_path, capsys):
    model = export(tmp_path, "web_fcm")
    out = tmp_path / "s"
    rc = main(["sweep", "--model", model, "--lambdas", "1,2", "--eps", "inf",
               "--out-dir", str(out)])
    assert rc == 2
    assert "argument --eps: epsilon: non-finite number inf" in capsys.readouterr().err
    assert not out.exists()


def test_each_flag_is_defined_once_with_its_default():
    source = inspect.getsource(cli.build_parser)
    flags = [node.args[0].value for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "add_argument"]
    assert len(flags) == len(set(flags)), flags
    parser = cli.build_parser()
    for argv in (["check", "--model", "m"], ["sweep", "--model", "m", "--lambdas", "1",
                                             "--out-dir", "d"]):
        args = parser.parse_args(argv)
        assert (args.steps, args.eps, args.max_period) == (100, 1e-8, 50)
    args = parser.parse_args(["simulate", "--model", "m", "--out", "o"])
    assert (args.steps, args.lam) == (100, None)


def integer_rule(low):
    """The values `--steps` (low 1) or `--max-period` (low 2) rejects,
    each with a fragment of its message."""
    return {**{v: f"invalid int value: '{v}'" for v in ("abc", "nan", "inf", "1e400")},
            **{v: f"must be an integer >= {low}, got {v}" for v in ("0", "-1", str(low - 1))}}


# The values `--lambda`, `--eps` and each `--lambdas` value refuse.
POSITIVE = {"abc": "invalid float value: 'abc'", "0": "must be a positive finite number, got 0",
            "-1": "must be a positive finite number, got -1",
            "nan": "non-finite number nan", "inf": "non-finite number inf",
            "1e400": "non-finite number inf"}
RULES = {
    "--steps": integer_rule(1),
    "--max-period": integer_rule(2),
    "--lambda": POSITIVE,
    "--eps": POSITIVE,
    "--lambdas": {f"0.5,{v}": fragment for v, fragment in POSITIVE.items()},
}
RUN_FLAGS = {
    "simulate": ["--steps", "--lambda"],
    "check": ["--steps", "--lambda", "--eps", "--max-period"],
    "sweep": ["--steps", "--eps", "--max-period", "--lambdas"],
}
BAD_FLAGS = [
    (command, flag, value, fragment)
    for command, flags in RUN_FLAGS.items() for flag in flags
    for value, fragment in RULES[flag].items()
] + [
    ("sweep", "--lambdas", "", "expected at least one value"),
    ("sweep", "--lambdas", " , ", "expected at least one value"),
    # All three print as "1" under the :g tag and would overwrite each other.
    ("sweep", "--lambdas", "1.0000001,1.0000002,1.0000001",
     "1.0000001, 1.0000002, 1.0000001 share the file tags 1"),
    ("corpus", "variant", "web_nope", "invalid choice: 'web_nope' (choose from 'web_fcm'"),
    # classify needs --max-period + 2 states, so at the default cap of 50
    # check and sweep take at least 51 steps.
    *((command, "--steps", "50", "steps must be an integer >= 51 (--max-period + 1), got 50")
      for command in ("check", "sweep")),
]


@pytest.mark.parametrize("command, flag, value, fragment", BAD_FLAGS,
                         ids=[f"{c} {f} {v!r}" for c, f, v, _ in BAD_FLAGS])
def test_rejected_flag_exits_two_first(tmp_path, capsys, command, flag, value, fragment):
    # The model's weight 1.5 exits 3 once the file is read, so exit 2
    # shows the flag was checked first.
    model = tmp_path / "wide.json"
    model.write_text(json.dumps({"family": "fcm", "nodes": ["a"], "weights": [[1.5]],
                                 "initial": [0.5], "lambda": 1.0}))
    out = tmp_path / "out"
    valid = {
        "simulate": {"--model": model, "--out": out},
        "check": {"--model": model},
        "sweep": {"--model": model, "--lambdas": "1", "--out-dir": out},
        "corpus": {"variant": "web_fcm", "--out": out},
    }[command]

    def argv(args):
        return [command] + [str(a) for k, v in args.items()
                            for a in ([v] if k == "variant" else [k, v])]

    assert main(argv({**valid, flag: value})) == 2
    stdout, err = capsys.readouterr()
    lines = err.splitlines()
    assert stdout == "" and lines[0].startswith(f"usage: greycog {command} ")
    assert lines[-1].startswith(f"greycog {command}: error: argument {flag}: ")
    assert fragment in lines[-1]
    assert not out.exists()
    assert main(argv(valid)) == (0 if command == "corpus" else 3)


def test_sweep_writes_summary_and_per_run_files(tmp_path):
    model = export(tmp_path, "web_fggcm")
    out = tmp_path / "sweep"
    rc = main(["sweep", "--model", model, "--lambdas", "0.5,1",
               "--out-dir", str(out)])
    assert rc == 0
    rows = read_csv(out / "summary.csv")
    assert rows[0] == ["lambda", "criterion_kernel", "criterion_greyness",
                       "classification", "period"]
    assert [r[0] for r in rows[1:]] == ["0.5", "1"]
    assert all(r[3] == "FixedPoint" for r in rows[1:])
    assert float(rows[1][2]) == pytest.approx(0.10869501353122366, abs=1e-12)
    for tag in ("0.5", "1"):
        assert (out / f"trajectory_lam{tag}.csv").exists()
        report = json.loads((out / f"report_lam{tag}.json").read_text())
        assert report["lambda"] == float(tag)


def test_sweep_crisp_leaves_greyness_column_empty(tmp_path):
    model = export(tmp_path, "web_fcm")
    out = tmp_path / "sweep"
    assert main(["sweep", "--model", model, "--lambdas", "4",
                 "--out-dir", str(out)]) == 0
    rows = read_csv(out / "summary.csv")
    assert rows[1][2] == ""
    assert rows[1][3] == "LimitCycle" and rows[1][4] == "2"


@pytest.mark.parametrize("lambdas", ["0.5,inf,1", "1,1e400"])
def test_sweep_rejects_non_finite_lambda_before_writing(tmp_path, capsys, lambdas):
    model = export(tmp_path, "web_fcm")
    out = tmp_path / "s"
    out.mkdir()
    rc = main(["sweep", "--model", model, "--lambdas", lambdas, "--out-dir", str(out)])
    assert rc == 2
    assert "argument --lambdas: lambda: non-finite number inf" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("lam", ["inf", "1e400"])
@pytest.mark.parametrize("command", ["simulate", "check"])
def test_non_finite_lambda_is_usage_error(tmp_path, capsys, command, lam):
    model = export(tmp_path, "web_fcm")
    out = tmp_path / "t.csv"
    argv = [command, "--model", model, "--lambda", lam]
    if command == "simulate":
        argv += ["--out", str(out)]
    assert main(argv) == 2
    assert "argument --lambda: lambda: non-finite number inf" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_lambdas_sharing_a_file_tag(tmp_path, capsys):
    # All three print as "1" under the :g tag and would overwrite each other.
    model = export(tmp_path, "web_fcm")
    out = tmp_path / "s"
    rc = main(["sweep", "--model", model, "--lambdas", "1.0000001,1.0000002,1.0000001",
               "--out-dir", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "1.0000001, 1.0000002, 1.0000001 share the file tags 1" in err
    assert not out.exists()


def test_sweep_simulates_once_per_lambda(tmp_path, monkeypatch):
    model = export(tmp_path, "web_fggcm")
    calls = []

    def counting_simulate(*args, **kwargs):
        calls.append(args[0].lam)
        return gc.simulate(*args, **kwargs)

    monkeypatch.setattr(cli, "simulate", counting_simulate)
    assert main(["sweep", "--model", model, "--lambdas", "0.5,1,2",
                 "--out-dir", str(tmp_path / "s")]) == 0
    assert calls == [0.5, 1.0, 2.0]


@pytest.mark.parametrize("per_cell", [False, True], ids=["rows read whole", "int cell"])
def test_sweep_reads_no_weight_after_the_first_build(tmp_path, monkeypatch, per_cell):
    # Each lambda after the first rebuilds the model from the weight rows
    # it holds, so no family weight rule runs then, and each lambda's files
    # are those a sweep of that lambda alone writes.
    doc = gc.export_variant("web_fggcm")
    if per_cell:
        doc["weights"][0][0] = 0  # an int: the row reader declines row 1, read per cell
    model = tmp_path / "web.json"
    gc.save_doc(doc, str(model))
    fam = FAMILY["fggcm"]
    calls = []

    def counting(cell):
        calls.append(cell)
        return fam.weight(cell)

    monkeypatch.setitem(FAMILY, "fggcm", family_with(fam, weight=counting))
    tags = ["0.5", "1", "2", "4"]
    summary = []
    for tag in tags:
        calls.clear()
        assert main(["sweep", "--model", str(model), "--lambdas", tag,
                     "--out-dir", str(tmp_path / tag)]) == 0
        assert len(calls) == (7 if per_cell else 0)
        summary += read_csv(tmp_path / tag / "summary.csv")[1:]
    calls.clear()
    assert main(["sweep", "--model", str(model), "--lambdas", ",".join(tags),
                 "--out-dir", str(tmp_path / "all")]) == 0
    assert len(calls) == (7 if per_cell else 0)
    assert read_csv(tmp_path / "all" / "summary.csv")[1:] == summary
    for tag in tags:
        for name in (f"trajectory_lam{tag}.csv", f"report_lam{tag}.json"):
            assert (tmp_path / "all" / name).read_bytes() == (tmp_path / tag / name).read_bytes()


def lambda_argv(command, lambdas, model, out):
    """Arguments that run command on model at the given lambdas, writing
    to out: `--lambdas` for sweep, `--lambda` otherwise."""
    if command == "sweep":
        return ["sweep", "--model", model, "--lambdas", lambdas, "--out-dir", str(out)]
    argv = [command, "--model", model, "--lambda", lambdas]
    return argv + ["--out", str(out)] if command == "simulate" else argv


@pytest.mark.parametrize("command, lambdas", [
    ("simulate", "0.5"), ("check", "0.5"), ("sweep", "0.5,1,2"),
])
def test_lambda_override_builds_each_model_once(tmp_path, monkeypatch, command, lambdas):
    model = export(tmp_path, "web_fcm")
    init = gc.Model.__init__
    calls = []

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        calls.append(self.lam)

    monkeypatch.setattr(gc.Model, "__init__", counting)
    assert main(lambda_argv(command, lambdas, model, tmp_path / "out")) == 0
    assert calls == [float(x) for x in lambdas.split(",")]


@pytest.mark.parametrize("file_lam, code", [('"abc"', 2), (BIG, 2), ("-1", 3), ("0", 3)])
@pytest.mark.parametrize("command", ["simulate", "check", "sweep"])
def test_lambda_override_keeps_the_file_lambda_checked(tmp_path, capsys, command,
                                                       file_lam, code):
    path = tmp_path / "m.json"
    path.write_text('{"family": "fcm", "lambda": %s, "nodes": ["a"], '
                    '"weights": [[0.5]], "initial": [0.5]}' % file_lam)
    out = tmp_path / "out"
    lambdas = "0.5,1" if command == "sweep" else "0.5"
    assert main(lambda_argv(command, lambdas, str(path), out)) == code
    assert "lambda" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_records_inapplicable_lambda_and_exits_four(tmp_path):
    doc = {
        "family": "fgcm",
        "nodes": ["a"],
        "weights": [[{"interval": [-0.2, 0.3]}]],
        "initial": [0.5],
        "lambda": 1.0,
    }
    path = tmp_path / "straddle.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "sweep"
    rc = main(["sweep", "--model", str(path), "--lambdas", "1",
               "--out-dir", str(out)])
    assert rc == 4
    rows = read_csv(out / "summary.csv")
    assert rows[1][3] == "error(MixedSignWeight 1,1)"


def test_a_degenerate_greyness_row_is_criterion_inapplicable(tmp_path, capsys):
    # A valid map whose kernel row 1 is all zero: it runs, but the
    # greyness condition matrix has no row 1, so the criterion cannot be
    # taken (exit 4), as with a mixed-sign interval weight.
    zero = [{"kernel": 0.0, "greyness": 0.2}, {"kernel": 0.0, "greyness": 0.1}]
    doc = {"family": "fggcm", "lambda": 1.0, "nodes": ["a", "b"],
           "weights": [zero, [{"kernel": 0.5, "greyness": 0.1}, {"kernel": -0.4, "greyness": 0.0}]],
           "initial": [{"kernel": 0.5, "greyness": 0.1}, {"kernel": 0.2, "greyness": 0.0}]}
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "--model", str(path)]) == 4
    assert capsys.readouterr() == ("", "greycog: criterion inapplicable: row 1 has zero "
                                       "kernel mass; condition matrix undefined\n")
    out = tmp_path / "sweep"
    assert main(["sweep", "--model", str(path), "--lambdas", "1,2", "--out-dir", str(out)]) == 4
    assert [r[3] for r in read_csv(out / "summary.csv")[1:]] == ["error(DegenerateRowError)"] * 2
    assert main(["simulate", "--model", str(path), "--out", str(tmp_path / "t.csv")]) == 0


@pytest.mark.parametrize("command, parent", [
    ("simulate", "missing"), ("simulate", "file"),
    ("corpus", "missing"), ("corpus", "file"),
    ("sweep", "file"),  # sweep creates a missing output directory
])
def test_unwritable_output_is_a_one_line_usage_error(tmp_path, capsys, command, parent):
    model = export(tmp_path, "web_fcm")
    (tmp_path / "file").write_text("")
    out = str(tmp_path / parent / "out")
    argv = {
        "simulate": ["simulate", "--model", model, "--out", out],
        "corpus": ["corpus", "web_fcm", "--out", out],
        "sweep": ["sweep", "--model", model, "--lambdas", "1", "--out-dir", out],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("greycog: error: ") and err.count("\n") == 1


def test_check_output_is_deterministic(tmp_path, capsys):
    model = export(tmp_path, "web_fggcm")
    main(["check", "--model", model, "--lambda", "0.5"])
    first = capsys.readouterr().out
    main(["check", "--model", model, "--lambda", "0.5"])
    assert capsys.readouterr().out == first


# The environment of a child interpreter that imports this checkout's
# package, installed or not.
SRC_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
# The same with stdout buffered, as it is unless PYTHONUNBUFFERED is set:
# a process's output then waits in a buffer until a flush.
BUFFERED_ENV = {k: v for k, v in SRC_ENV.items() if k != "PYTHONUNBUFFERED"}


def test_module_entry_point(tmp_path):
    out = tmp_path / "m.json"
    proc = subprocess.run(
        [sys.executable, "-m", "greycog", "corpus", "web_fcm", "--out", str(out)],
        capture_output=True, env=SRC_ENV,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert out.exists()


@pytest.mark.parametrize("argv, unbuffered", [
    (argv, unbuffered) for argv in (["check", "--model", "web_fggcm.json"], ["--help"],
                                    ["check", "--help"]) for unbuffered in (False, True)
], ids=["buffered", "unbuffered", "help-buffered", "help-unbuffered", "check-help-buffered",
        "check-help-unbuffered"])
def test_a_closed_stdout_exits_141_with_nothing_on_stderr(tmp_path, argv, unbuffered):
    # Output written to a pipe whose reader has gone stops the run as
    # SIGPIPE would (128 + 13), not as an unwritable output path (2). A
    # buffered stdout meets the closed pipe at main's one flush, which a
    # report and argparse's --help exit both reach; an unbuffered one at
    # the write: a report's print raises there, while argparse drops the
    # error of its --help write and exits 0.
    export(tmp_path, "web_fggcm")
    env = {k: v for k, v in SRC_ENV.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "greycog", *argv], cwd=tmp_path,
                              stdout=write_end, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write_end)
    code = 0 if unbuffered and "--help" in argv else 141
    assert (proc.returncode, proc.stderr.decode()) == (code, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["check", "--model", "web_fggcm.json"], ["--help"]],
                         ids=["check", "help"])
def test_a_full_stdout_exits_2_with_one_line_on_stderr(tmp_path, argv, unbuffered):
    # A stdout whose device refuses the bytes is an output that cannot be
    # written (2), reported once: the process ends without the
    # interpreter's own flush of stdout, which would fail a second time.
    # Unbuffered, argparse drops the error of its --help write and exits
    # 0, as it does into a closed pipe.
    export(tmp_path, "web_fggcm")
    env = dict(BUFFERED_ENV, PYTHONUNBUFFERED="1") if unbuffered else BUFFERED_ENV
    with open("/dev/full", "wb") as full:
        proc = subprocess.run([sys.executable, "-m", "greycog", *argv], cwd=tmp_path,
                              stdout=full, stderr=subprocess.PIPE, env=env)
    if unbuffered and argv == ["--help"]:
        assert (proc.returncode, proc.stderr.decode()) == (0, "")
    else:
        enospc = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        assert (proc.returncode, proc.stderr.decode()) == (2, f"greycog: error: {enospc}\n")


def run_both(tmp_path, monkeypatch, capsys, commands, stdout, files=None):
    """Each command's (exit code, stdout, stderr), the streams as bytes,
    from in-process `main` and from a `python -m greycog` process whose
    stdout, buffered, is a "pipe" or a regular "file", and every file each
    side wrote. Each side runs in its own directory, which starts with files
    ({name: text})."""
    runs, trees = {}, {}
    for side in ("main", "process"):
        cwd = tmp_path / side
        cwd.mkdir()
        for name, text in (files or {}).items():
            (cwd / name).write_text(text)
        monkeypatch.chdir(cwd)
        runs[side] = []
        for argv in commands:
            if side == "main":
                code = main(argv)
                out, err = (text.encode() for text in capsys.readouterr())
            else:
                with open(tmp_path / "stdout", "w+b") as sink:
                    proc = subprocess.run([sys.executable, "-m", "greycog", *argv],
                                          stdout=sink if stdout == "file" else subprocess.PIPE,
                                          stderr=subprocess.PIPE, env=BUFFERED_ENV)
                    sink.seek(0)
                    out = sink.read() if stdout == "file" else proc.stdout
                code, err = proc.returncode, proc.stderr
            runs[side].append((code, out, err))
        trees[side] = {p.relative_to(cwd).as_posix(): p.read_bytes()
                       for p in sorted(cwd.rglob("*")) if p.is_file()}
    return runs, trees


@pytest.mark.parametrize("stdout", ["pipe", "file"])
@pytest.mark.parametrize("variant", ["web_fcm", "web_fgcm", "web_fggcm"])
def test_a_process_writes_what_main_writes(tmp_path, monkeypatch, capsys, variant, stdout):
    # A process ends as soon as main returns, without the interpreter's
    # teardown, so every byte main writes must be out by then.
    runs, trees = run_both(tmp_path, monkeypatch, capsys, [
        ["corpus", variant, "--out", "m.json"], ["check", "--model", "m.json"],
        ["simulate", "--model", "m.json", "--out", "t.csv"],
        ["sweep", "--model", "m.json", "--lambdas", "0.5,1", "--out-dir", "sweep"],
    ], stdout)
    assert runs["process"] == runs["main"]
    assert [(code, err) for code, _, err in runs["main"]] == [(0, b"")] * 4
    assert json.loads(runs["main"][1][1])["family"] == variant[4:]
    assert trees["process"] == trees["main"]
    assert sorted(trees["main"]) == ["m.json", "sweep/report_lam0.5.json", "sweep/report_lam1.json",
                                     "sweep/summary.csv", "sweep/trajectory_lam0.5.csv",
                                     "sweep/trajectory_lam1.csv", "t.csv"]


RUN = [["check", "--model", "m.json"], ["simulate", "--model", "m.json", "--out", "t.csv"],
       ["sweep", "--model", "m.json", "--lambdas", "0.5,1", "--out-dir", "sweep"]]


# Each failure: the model file it starts from, the commands run on it and
# each one's exit code.
FAILURES = {
    "malformed": ({"m.json": '{"family": "fcm"'}, RUN, [2, 2, 2]),
    "validation": ({"m.json": json.dumps({"family": "fcm", "lambda": -1, "nodes": ["a"],
                                          "weights": [[0.5]], "initial": [0.5]})},
                   RUN, [3, 3, 3]),
    "mixed-sign": ({}, [["corpus", "web_case1_fgcm", "--out", "m.json"], RUN[0], RUN[2]],
                   [0, 4, 4]),
}


@pytest.mark.parametrize("case", FAILURES)
def test_a_failing_process_writes_what_main_writes(tmp_path, monkeypatch, capsys, case):
    # A parse or validation failure is one complete stderr line; a check
    # whose criterion is inapplicable prints its refusal as JSON.
    files, commands, codes = FAILURES[case]
    runs, trees = run_both(tmp_path, monkeypatch, capsys, commands, "pipe", files)
    assert runs["process"] == runs["main"]
    assert trees["process"] == trees["main"]
    assert [code for code, *_ in runs["main"]] == codes
    for code, out, err in runs["main"]:
        if code in (2, 3):
            assert out == b"" and err.startswith(b"greycog: ") and err.count(b"\n") == 1
            assert err.endswith(b"\n")
        else:
            assert err == b""
    if case == "mixed-sign":
        assert json.loads(runs["main"][1][1])["error"] == "MixedSignWeight"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
@pytest.mark.parametrize("stderr, unbuffered, argv, code", [
    ("closed", False, ["check", "--model", "web_fggcm.json"], 0),
    ("closed", False, ["check", "--model", "missing.json"], 2),
    ("closed", True, ["check", "--model", "missing.json"], 2),
    ("closed", False, ["check", "--steps", "0"], 2),
    ("closed", False, ["frobnicate"], 2),
    ("full", False, ["check", "--model", "web_fggcm.json"], 0),
    ("full", False, ["check", "--model", "web_fggcm.json", "--steps", "0"], 2),
    ("full", False, ["check", "--model", "missing.json"], 2),
    ("full", True, ["check", "--model", "missing.json"], 2),
], ids=["closed-ok", "closed-parse-error", "closed-parse-error-unbuffered", "closed-usage-error",
        "closed-unknown-command", "full-ok", "full-usage-error", "full-parse-error",
        "full-parse-error-unbuffered"])
def test_a_stderr_that_cannot_be_written_keeps_the_exit_code(tmp_path, stderr, unbuffered,
                                                             argv, code):
    # Started with descriptor 2 closed, the interpreter sets sys.stderr to
    # None, and main points it at os.devnull, so neither argparse's usage
    # text nor a library error line lands on stdout. On /dev/full, a write
    # to stderr fails, at once unbuffered or at the flush that follows
    # buffered. None of these may replace the code main chose.
    export(tmp_path, "web_fggcm")
    env = dict(BUFFERED_ENV, PYTHONUNBUFFERED="1") if unbuffered else BUFFERED_ENV
    with open("/dev/full", "wb") as full:
        proc = subprocess.run([sys.executable, "-m", "greycog", *argv], cwd=tmp_path,
                              stdout=subprocess.PIPE, env=env,
                              **({"preexec_fn": lambda: os.close(2)} if stderr == "closed"
                                 else {"stderr": full}))
    assert proc.returncode == code
    if code == 0:
        assert json.loads(proc.stdout)["model"] == "web_fggcm"
    else:
        assert proc.stdout == b""


@pytest.mark.parametrize("command", [
    ["check"], ["simulate", "--out", "out.csv"], ["sweep", "--lambdas", "1", "--out-dir", "out"],
], ids=lambda argv: argv[0])
def test_a_model_file_nested_past_the_decoder_depth_is_a_parse_error(tmp_path, command):
    # Run apart, so a RecursionError would show as the traceback it prints.
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    proc = subprocess.run([sys.executable, "-m", "greycog", *command, "--model", "deep.json"],
                          cwd=tmp_path, capture_output=True, env=SRC_ENV)
    err = proc.stderr.decode()
    assert proc.returncode == 2, err
    assert err.startswith("greycog: parse error: deep.json is not valid JSON: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == ["deep.json"]


# open takes a bool as the file descriptor 0 or 1, which it would read
# or write, then close; run apart, so the closed descriptor is not this
# process's.
BOOL_PATHS = """
import greycog as gc
for call in (lambda: gc.load_model(True), lambda: gc.save_doc({"a": 1}, False)):
    try:
        call()
    except gc.InvalidParameterError:
        print("refused", flush=True)
"""


def test_a_bool_path_is_refused_not_taken_as_a_standard_stream():
    proc = subprocess.run([sys.executable, "-c", BOOL_PATHS], capture_output=True,
                          stdin=subprocess.DEVNULL, env=SRC_ENV)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().split() == ["refused", "refused"]


def test_cli_import_loads_only_the_standard_library():
    # -S leaves out the site hooks of the interpreter running the suite
    # (with what they import), so every top-level module then loaded is one
    # that importing greycog.cli asked for: each must be standard library,
    # and none numpy, typing, pathlib, dataclasses or inspect. greycog's
    # records are all `Record`s and the CLI keeps its paths as strings;
    # dataclasses imports inspect (with ast, dis and tokenize), which with
    # it took most of the time of `import greycog.cli`.
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import greycog.cli; "
            "top = {name.partition('.')[0] for name in sys.modules}; "
            "print(sorted(top - set(sys.stdlib_module_names) - {'greycog', '__main__'}), "
            "sorted(top & {'numpy', 'typing', 'pathlib', 'dataclasses', 'inspect'}))")
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(src)], capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().strip() == "[] []"


# Checks each model file given, then prints each report's label and which
# of typing and pathlib the process has loaded.
CHECK_LABELS = """
import contextlib, io, json, sys
from greycog import cli
labels = []
for path in sys.argv[1:]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["check", "--model", path])
    labels.append((code, json.loads(buf.getvalue())["model"]))
print(json.dumps({"labels": labels, "loaded": sorted({"typing", "pathlib"} & set(sys.modules))}))
"""


def test_check_labels_each_report_by_its_file_stem_without_pathlib(tmp_path):
    # A report's label is the file name without its last suffix, where a
    # dot that begins or ends the name starts none: `PurePath(p).stem` up
    # to Python 3.13 (3.14 takes a final "." as a suffix). A CLI process
    # under -S loads neither typing nor pathlib while it checks the files.
    (tmp_path / "d.e").mkdir()
    paths = [str(tmp_path / "d.e" / name) for name in ("x.", ".x", "a.b.json")]
    for path in paths:
        gc.save_doc(gc.export_variant("web_fcm"), path)
    proc = subprocess.run([sys.executable, "-S", "-c", CHECK_LABELS, *paths],
                          capture_output=True, env=SRC_ENV)
    assert proc.returncode == 0, proc.stderr.decode()
    result = json.loads(proc.stdout)
    assert result == {"labels": [[0, "x."], [0, ".x"], [0, "a.b"]], "loaded": []}
    if sys.version_info < (3, 14):
        assert [label for _, label in result["labels"]] == [PurePath(p).stem for p in paths]


# A caller that replays CLI calls in-process under redirect_stdout prints
# its own result after them, so the package may write to no stdout but
# the one in effect at call time, during the call or at interpreter exit.
REDIRECTED_CALLS = """
import contextlib, io, json, sys
from greycog import cli
model, out_dir, result = sys.argv[1:]
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    codes = [cli.main(["check", "--model", model]),
             cli.main(["sweep", "--model", model, "--lambdas", "0.5,1", "--out-dir", out_dir])]
with open(result, "w") as fh:
    json.dump({"codes": codes, "stdout": buf.getvalue()}, fh)
"""


def test_a_redirected_cli_call_writes_only_to_the_redirected_stdout(tmp_path):
    model = export(tmp_path, "web_fggcm")
    result = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, "-c", REDIRECTED_CALLS, model, str(tmp_path / "sweep"), str(result)],
        capture_output=True, env=SRC_ENV,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == b""
    got = json.loads(result.read_text())
    assert got["codes"] == [0, 0]
    report = json.loads(got["stdout"])  # check's report, and nothing after it
    assert report["model"] == "web_fggcm" and report["family"] == "fggcm"
    assert (tmp_path / "sweep" / "summary.csv").exists()


@pytest.mark.parametrize("family", ["fcm", "fgcm", "fggcm"])
def test_check_oversized_initial_integer_is_a_parse_error(tmp_path, capsys, family):
    path = tmp_path / "big.json"
    path.write_text('{"family": "%s", "lambda": 1, "nodes": ["a", "b"], '
                    '"weights": [[0.5, 0], [0, 0.5]], "initial": [%s, 0]}' % (family, BIG))
    assert main(["check", "--model", str(path)]) == 2
    assert "initial[1]: integer too large for a float" in capsys.readouterr().err


@pytest.mark.parametrize("family, cell, match", [
    ("fgcm", {"interval": [0.5, 1.5]}, "interval escapes"),
    ("fggcm", {"kernel": 1.5, "greyness": 0.0}, "kernel 1.5 outside"),
])
def test_check_weight_outside_the_value_domain_exits_three(tmp_path, capsys, family, cell, match):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"family": family, "lambda": 1, "nodes": ["a", "b"],
                                "weights": [[0.5, 0], [cell, 0.5]], "initial": [0.5, 0]}))
    assert main(["check", "--model", str(path)]) == 3
    assert f"weights[2][1]: {match}" in capsys.readouterr().err


INTERVAL_SHAPE = "fgcm cells take an 'interval' object"
GREY_SHAPE = "fggcm cells take 'kernel'/'greyness' or 'union' objects"


# Each malformed cell's whole stderr line, per family and place. The
# parsers test a cell's keys by count and membership, so a wanted key
# beside an unknown one is refused like a missing key.
@pytest.mark.parametrize("family, cell, message", [
    ("fgcm", {"interval": [0.1, 0.2], "x": 1}, INTERVAL_SHAPE),
    ("fgcm", {}, INTERVAL_SHAPE),
    ("fgcm", {"kernel": 0.1}, INTERVAL_SHAPE),
    ("fgcm", {"union": 5}, INTERVAL_SHAPE),
    ("fggcm", {"interval": [0.1, 0.2], "x": 1}, GREY_SHAPE),
    ("fggcm", {}, GREY_SHAPE),
    ("fggcm", {"kernel": 0.1}, GREY_SHAPE),
    ("fggcm", {"union": 5}, "'union' must be a list of [lo, hi]"),
    ("fggcm", {"kernel": 0.1, "greyness": 0.1, "x": 1}, GREY_SHAPE),
    ("fggcm", {"union": [[0.1, 0.2]], "x": 1}, GREY_SHAPE),
])
@pytest.mark.parametrize("place", ["weights[2][1]", "initial[2]"])
def test_a_malformed_cell_keeps_its_message_and_exit_code(tmp_path, capsys, family, cell,
                                                         message, place):
    doc = {"family": family, "lambda": 1, "nodes": ["a", "b"],
           "weights": [[0.5, 0], [0, 0.5]], "initial": [0.5, 0]}
    if place == "initial[2]":
        doc["initial"][1] = cell
    else:
        doc["weights"][1][0] = cell
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "--model", str(path)]) == 2
    assert capsys.readouterr().err == f"greycog: parse error: {place}: {message}\n"


# Model files with one fault each, and the whole stderr line of each.
@pytest.mark.parametrize("change, message", [
    ({"weights": [[0.5, 0], [1.5, 0.5]]}, "weights[2][1]: weight 1.5 outside [-1, 1]"),
    ({"weights": [[0.5, 0], [0, 0.5], [0, 0]]}, "weight matrix has 3 rows, expected 2"),
    ({"weights": [[0.5, 0], [0]]}, "weight row 2 has 1 entries, expected 2"),
    ({"initial": [0.5]}, "initial state has 1 entries, expected 2"),
    ({"nodes": ["a", "a"]}, "node name 'a' is repeated"),
    ({"lambda": -1}, "lambda must be a positive finite number, got -1.0"),
], ids=["range", "rows", "row length", "initial length", "repeated name", "lambda"])
def test_a_single_model_fault_keeps_its_message_and_exit_code(tmp_path, capsys, change, message):
    doc = {"family": "fcm", "lambda": 1, "nodes": ["a", "b"],
           "weights": [[0.5, 0], [0, 0.5]], "initial": [0.5, 0], **change}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "--model", str(path)]) == 3
    assert capsys.readouterr().err == f"greycog: validation error: {message}\n"


@pytest.mark.parametrize("family, cell, nodes, repeated", [
    ("fcm", 0.5, ["a", "a"], "a"),
    ("fgcm", gc.Ign(0.5, 0.5), ["x", "y", "x"], "x"),
    ("fggcm", gc.Ggn(0.5, 0.0), ["n1", "n2", "n3", "n2"], "n2"),
])
def test_a_repeated_node_name_is_refused(tmp_path, capsys, family, cell, nodes, repeated):
    # Two nodes of one name would share the trajectory CSV's `node` rows.
    n = len(nodes)
    message = f"node name {repeated!r} is repeated"
    with pytest.raises(gc.ValidationError, match=message):
        gc.Model(family, tuple(nodes), ((cell,) * n,) * n, (cell,) * n, 1.0)
    path = tmp_path / "twice.json"
    path.write_text(json.dumps({"family": family, "lambda": 1, "nodes": nodes,
                                "weights": [[0.5] * n] * n, "initial": [0.5] * n}))
    assert main(["check", "--model", str(path)]) == 3
    assert message in capsys.readouterr().err


def test_simulate_oversized_lambda_integer_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text('{"family": "fcm", "lambda": %s, "nodes": ["a"], '
                    '"weights": [[0.5]], "initial": [0.5]}' % BIG)
    out = tmp_path / "t.csv"
    assert main(["simulate", "--model", str(path), "--out", str(out)]) == 2
    assert "'lambda': integer too large for a float" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_exit_code_follows_the_error_type(tmp_path, capsys):
    # Row 1 of the first step overflows to inf: a MalformedInputError,
    # which exits 2 under simulate and check too.
    doc = {"family": "fcm", "nodes": ["a", "b"], "weights": [[1, 1], [-1, 1]],
           "initial": [1e308, 1e308], "lambda": 1.0}
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "--model", str(path)]) == 2
    out = tmp_path / "sweep"
    assert main(["sweep", "--model", str(path), "--lambdas", "1,2",
                 "--out-dir", str(out)]) == 2
    rows = read_csv(out / "summary.csv")
    assert [r[3] for r in rows[1:]] == ["error(MalformedInputError)"] * 2


def test_check_of_an_overflowing_greyness_mass_is_a_parse_error(tmp_path, capsys):
    cell = {"kernel": 1e308, "greyness": 0.5}
    doc = {"family": "fggcm", "nodes": ["a", "b"], "lambda": 1.0, "initial": [cell, cell],
           "weights": [[{"kernel": 1, "greyness": 0.5}, {"kernel": -1, "greyness": 0.5}]] * 2}
    path = tmp_path / "mass.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "--model", str(path)]) == 2
    assert capsys.readouterr().err == (
        "greycog: parse error: greyness mass sum must be finite, got inf\n")


# Weight greyness so large that the weighted greyness mass overflows
# while the kernel sums and the |kernel product| mass stay finite: over
# it, the greyness read inf (kernels 1.0) or nan (each kernel sum is
# -1000, whose activation underflows to 0.0, and 0.0 * inf is nan).
OVERFLOWING_WEIGHTED_MASS = {
    "inf": ({"kernel": 1.0, "greyness": 1e308}, {"kernel": 1.0, "greyness": 0.0}),
    "nan": ({"kernel": -1.0, "greyness": 1e308}, {"kernel": 500.0, "greyness": 0.0}),
}


@pytest.mark.parametrize("command", ["check", "simulate"])
@pytest.mark.parametrize("weight,initial", OVERFLOWING_WEIGHTED_MASS.values(),
                         ids=list(OVERFLOWING_WEIGHTED_MASS))
def test_an_overflowing_weighted_greyness_mass_is_a_parse_error(tmp_path, capsys, command,
                                                               weight, initial):
    doc = {"family": "fggcm", "nodes": ["a", "b"], "lambda": 1.0,
           "weights": [[weight, weight]] * 2, "initial": [initial, initial]}
    path = tmp_path / "mass.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "t.csv"
    argv = [command, "--model", str(path)] + (["--out", str(out)] if command == "simulate" else [])
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "greycog: parse error: greyness mass sum must be finite, got inf\n")
    assert not out.exists()


@pytest.mark.parametrize("errors,code", [
    ((gc.MalformedInputError("x"), None, gc.ValidationError("x")), 3),
    ((None, gc.MalformedInputError("x"), None), 2),
    ((gc.MixedSignWeightError(1, 1), gc.InsufficientDataError("x"),
      gc.MalformedInputError("x")), 4),
], ids=["parse-ok-validation", "ok-parse-ok", "mixedsign-data-parse"])
def test_sweep_exits_with_the_largest_code_of_its_rows(tmp_path, monkeypatch, errors, code):
    model = export(tmp_path, "web_fcm")
    by_lam = dict(zip((1.0, 2.0, 3.0), errors))

    def failing_simulate(m, *args, **kwargs):
        if by_lam[m.lam] is not None:
            raise by_lam[m.lam]
        return gc.simulate(m, *args, **kwargs)

    monkeypatch.setattr(cli, "simulate", failing_simulate)
    out = tmp_path / "sweep"
    assert main(["sweep", "--model", model, "--lambdas", "1,2,3",
                 "--out-dir", str(out)]) == code
    rows = read_csv(out / "summary.csv")
    assert [r[3].startswith("error(") for r in rows[1:]] == [e is not None for e in errors]
    for tag, e in zip("123", errors):
        if e is None:
            report = json.loads((out / f"report_lam{tag}.json").read_text())
            assert report["model"] == "web_fcm"
