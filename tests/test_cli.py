"""Command line surface: files written, JSON shape, exit codes."""

import ast
import csv
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import greycog as gc
from greycog import cli
from greycog.cli import main


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


def test_corpus_unknown_variant_is_usage_error(tmp_path, capsys):
    rc = main(["corpus", "web_nope", "--out", str(tmp_path / "x.json")])
    assert rc == 2
    assert "web_fcm" in capsys.readouterr().err


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


def test_simulate_rejects_bad_steps(tmp_path):
    model = export(tmp_path, "web_fcm")
    rc = main(["simulate", "--model", model, "--steps", "0",
               "--out", str(tmp_path / "t.csv")])
    assert rc == 2


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
    model = export(tmp_path, "web_fcm")
    rc = main(["check", "--model", model, "--steps", "10"])
    assert rc == 3


def test_check_rejects_bad_eps(tmp_path):
    model = export(tmp_path, "web_fcm")
    assert main(["check", "--model", model, "--eps", "0"]) == 2
    assert main(["check", "--model", model, "--max-period", "1"]) == 2


@pytest.mark.parametrize("eps", ["inf", "1e400", "nan"])
def test_check_non_finite_eps_is_usage_error(tmp_path, capsys, eps):
    # At lambda 2 the T=100 run is chaotic; an infinite eps must not make
    # it a fixed point, nor write "epsilon": Infinity.
    model = export(tmp_path, "web_fcm")
    assert main(["check", "--model", model, "--lambda", "2", "--eps", eps]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "--eps must be a finite number > 0" in err


def test_sweep_non_finite_eps_is_usage_error_before_writing(tmp_path, capsys):
    model = export(tmp_path, "web_fcm")
    out = tmp_path / "s"
    rc = main(["sweep", "--model", model, "--lambdas", "1,2", "--eps", "inf",
               "--out-dir", str(out)])
    assert rc == 2
    assert "--eps must be a finite number > 0" in capsys.readouterr().err
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


def test_sweep_rejects_malformed_lambda_list(tmp_path):
    model = export(tmp_path, "web_fcm")
    out = str(tmp_path / "s")
    assert main(["sweep", "--model", model, "--lambdas", "0.5,abc",
                 "--out-dir", out]) == 2
    assert main(["sweep", "--model", model, "--lambdas", "-1",
                 "--out-dir", out]) == 2
    assert main(["sweep", "--model", model, "--lambdas", ",",
                 "--out-dir", out]) == 2


@pytest.mark.parametrize("lambdas", ["0.5,inf,1", "1,1e400"])
def test_sweep_rejects_non_finite_lambda_before_writing(tmp_path, capsys, lambdas):
    model = export(tmp_path, "web_fcm")
    out = tmp_path / "s"
    out.mkdir()
    rc = main(["sweep", "--model", model, "--lambdas", lambdas, "--out-dir", str(out)])
    assert rc == 2
    assert "every lambda must be finite" in capsys.readouterr().err
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
    assert "every lambda must be finite" in capsys.readouterr().err
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
    post_init = gc.Model.__post_init__
    calls = []

    def counting(self):
        calls.append(self.lam)
        post_init(self)

    monkeypatch.setattr(gc.Model, "__post_init__", counting)
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


def test_module_entry_point(tmp_path):
    out = tmp_path / "m.json"
    proc = subprocess.run(
        [sys.executable, "-m", "greycog", "corpus", "web_fcm", "--out", str(out)],
        capture_output=True, env=SRC_ENV,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert out.exists()


def test_cli_import_does_not_load_numpy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import greycog.cli, sys; assert 'numpy' not in sys.modules"],
        capture_output=True, env=SRC_ENV,
    )
    assert proc.returncode == 0, proc.stderr.decode()


@pytest.mark.parametrize("family", ["fcm", "fgcm", "fggcm"])
def test_check_oversized_initial_integer_is_a_parse_error(tmp_path, capsys, family):
    path = tmp_path / "big.json"
    path.write_text('{"family": "%s", "lambda": 1, "nodes": ["a", "b"], '
                    '"weights": [[0.5, 0], [0, 0.5]], "initial": [%s, 0]}' % (family, BIG))
    assert main(["check", "--model", str(path)]) == 2
    assert "initial[1]: integer too large for a float" in capsys.readouterr().err


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
