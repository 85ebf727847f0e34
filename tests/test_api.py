"""The package surface, pinned: a deletion that something still relies on
fails here rather than in a benchmark run."""

import ast
import dataclasses
import inspect
from pathlib import Path

import greycog as gc
from greycog import _modelio, cli, cogmap, convergence, dynamics

SRC = Path(__file__).resolve().parent.parent / "src" / "greycog"

PUBLIC = {
    "AT_LEAST_ONE", "Classification", "Corollary3Result", "DegenerateRowError",
    "DimensionError", "FAMILIES", "FggcmReport", "Ggn",
    "GreyUnion", "GreycogError", "INCONCLUSIVE", "Ign", "InsufficientDataError",
    "InvalidParameterError", "MalformedInputError", "MixedSignWeightError",
    "Model", "Trajectory", "UNIQUE", "VARIANTS", "ValidationError", "Verdict",
    "build", "check_fcm", "check_fgcm", "check_fggcm", "classify",
    "corollary3_check", "export_variant", "fcm_step", "frobenius_norm",
    "ggn_from_union", "grey_condition_matrix", "inject_greyness", "load_model",
    "model_to_doc", "parse_model", "save_doc", "simulate", "state_distance",
    "w_star",
}

# The module attributes perfbench/run.py::trace_targets wraps by name.
TRACED = [
    (cli, "simulate"), (cli, "classify"),
    (cogmap, "simulate"), (dynamics, "classify"),
    (_modelio, "load_model"), (_modelio, "parse_model"),
    (convergence, "check_fcm"), (convergence, "check_fgcm"), (convergence, "check_fggcm"),
]


def test_public_names_are_pinned_and_resolve():
    assert set(gc.__all__) == PUBLIC
    for name in PUBLIC:
        getattr(gc, name)


def test_benchmark_trace_targets_exist():
    for module, name in TRACED:
        assert callable(getattr(module, name)), f"{module.__name__}.{name}"
    # The workloads read a run's states.
    assert "states" in {f.name for f in dataclasses.fields(gc.Trajectory)}


# The settable surface: dataclass fields and the parameters of the entry
# points that take a model or a run's settings.
FIELDS = {
    gc.Model: ["family", "node_names", "weights", "initial", "lam"],
    gc.Trajectory: ["family", "states"],
    gc.Classification: ["verdict", "t_alpha", "period", "final_state", "epsilon",
                        "max_period"],
}
PARAMETERS = {
    gc.simulate: ["m", "steps"],
    gc.export_variant: ["variant"],
    gc.parse_model: ["doc", "lam"],
    gc.load_model: ["path", "lam"],
}


def test_settable_surface_is_pinned():
    for cls, names in FIELDS.items():
        assert [f.name for f in dataclasses.fields(cls)] == names, cls.__name__
    for func, names in PARAMETERS.items():
        assert list(inspect.signature(func).parameters) == names, func.__name__
    assert gc.VARIANTS and all(isinstance(v, str) for v in gc.VARIANTS.values())


def test_cli_calls_simulate_with_the_model_and_steps_positionally(tmp_path, monkeypatch):
    # trace_targets reads args[0].n and args[1] of each cli.simulate call.
    calls = []

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return cogmap.simulate(*args, **kwargs)

    monkeypatch.setattr(cli, "simulate", recording)
    path = tmp_path / "m.json"
    _modelio.save_doc(gc.export_variant("web_fcm"), path)
    assert cli.main(["check", "--model", str(path), "--steps", "60"]) == 0
    [(args, kwargs)] = calls
    assert kwargs == {} and len(args) == 2
    model, steps = args
    assert isinstance(model, gc.Model) and model.n == 7
    assert type(steps) is int and steps == 60


def unused_imports(source):
    """Names a module imports but never reads; names listed in its
    __all__ count as read (re-exports)."""
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_no_module_imports_a_name_it_never_uses():
    found = {p.name: unused_imports(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert found and {name: names for name, names in found.items() if names} == {}
