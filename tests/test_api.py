"""The package surface, pinned: a deletion that something still relies on
fails here rather than in a benchmark run."""

import ast
import copy
import inspect
import pickle
from collections import Counter
from pathlib import Path

import pytest

import greycog as gc
from greycog import _modelio, cli, cogmap, convergence, dynamics

SRC = Path(__file__).resolve().parent.parent / "src" / "greycog"

PUBLIC = {
    "AT_LEAST_ONE", "Classification", "DegenerateRowError",
    "DimensionError", "FAMILIES", "FggcmReport", "Ggn",
    "GreyUnion", "GreycogError", "INCONCLUSIVE", "Ign", "InsufficientDataError",
    "InvalidParameterError", "MalformedInputError", "MixedSignWeightError",
    "Model", "Trajectory", "UNIQUE", "VARIANTS", "ValidationError", "Verdict",
    "build", "check_fcm", "check_fgcm", "check_fggcm", "classify",
    "export_variant", "fcm_step", "frobenius_norm",
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
    assert "states" in inspect.signature(gc.Trajectory).parameters


# The settable surface: record constructor fields and the parameters of
# the entry points that take a model or a run's settings.
FIELDS = {
    gc.Model: ["family", "node_names", "weights", "initial", "lam"],
    gc.Trajectory: ["family", "states"],
    # classify's epsilon and max_period are the caller's own; no echo.
    gc.Classification: ["verdict", "t_alpha", "period", "final_state"],
    # outcome is set from these two (see DERIVED).
    gc.Verdict: ["criterion_value", "threshold"],
    # overall is set from the two verdicts (see DERIVED); greyness_value is
    # a read-only property over greyness_verdict.
    gc.FggcmReport: ["kernel_verdict", "greyness_verdict", "evaluation_state",
                     "kernel_converged"],
}
# Fields a record sets from its others when it is built: no constructor
# argument, but in repr and equality.
DERIVED = {gc.Verdict: ["outcome"], gc.FggcmReport: ["overall"]}
PARAMETERS = {
    gc.simulate: ["m", "steps"],
    gc.export_variant: ["variant"],
    gc.parse_model: ["doc", "lam"],
    gc.load_model: ["path", "lam"],
    # One builder: a_grey=None opens every gate, so no gate switch is needed.
    gc.grey_condition_matrix: ["w", "a_hat", "a_grey", "lam"],
}


def test_settable_surface_is_pinned():
    for cls, names in FIELDS.items():
        assert list(inspect.signature(cls).parameters) == names, cls.__name__
        derived = [f for f in cls.__slots__ if f not in names]
        assert derived == DERIVED.get(cls, []), cls.__name__
    for func, names in PARAMETERS.items():
        assert list(inspect.signature(func).parameters) == names, func.__name__
    assert gc.VARIANTS and all(isinstance(v, str) for v in gc.VARIANTS.values())


# One record of each class beside the cells (tests/test_grey_num.py), with
# its repr text.
RECORDS = [
    (gc.GreyUnion(((-0.5, 0), (0.25, 1))), "GreyUnion(intervals=((-0.5, 0.0), (0.25, 1.0)))"),
    (gc.Model("fgcm", ("a", "b"), ((gc.Ign(0, 0.5), gc.Ign(-0.5, 0)),
                                   (gc.Ign(0.25, 0.25), gc.Ign(0, 0))),
              (gc.Ign(0, 1), gc.Ign(0.5, 0.5)), 2),
     "Model(family='fgcm', node_names=('a', 'b'), weights=((Ign(lo=0.0, hi=0.5), "
     "Ign(lo=-0.5, hi=0.0)), (Ign(lo=0.25, hi=0.25), Ign(lo=0.0, hi=0.0))), "
     "initial=(Ign(lo=0.0, hi=1.0), Ign(lo=0.5, hi=0.5)), lam=2.0)"),
    (gc.Trajectory("fcm", [(0.5, -0.0), (0.25, 1.0)]),
     "Trajectory(family='fcm', states=((0.5, -0.0), (0.25, 1.0)))"),
    (gc.Classification("LimitCycle", 3, 2, None),
     "Classification(verdict='LimitCycle', t_alpha=3, period=2, final_state=None)"),
    (gc.Verdict(3.9, 4.0),
     "Verdict(criterion_value=3.9, threshold=4.0, outcome='UniqueFixedPoint')"),
    (gc.FggcmReport(gc.Verdict(5.0, 4.0), gc.Verdict(0.5, 1.0), (gc.Ggn(0.5, 0.01),), False),
     "FggcmReport(kernel_verdict=Verdict(criterion_value=5.0, threshold=4.0, "
     "outcome='Inconclusive'), greyness_verdict=Verdict(criterion_value=0.5, threshold=1.0, "
     "outcome='UniqueFixedPoint'), evaluation_state=(Ggn(kernel=0.5, greyness=0.01),), "
     "kernel_converged=False, overall='Inconclusive')"),
]


@pytest.mark.parametrize("record, text", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_records_are_immutable_values(record, text):
    assert repr(record) == text
    cls = type(record)
    fields = [getattr(record, f) for f in inspect.signature(cls).parameters]
    twin = cls(*fields)
    assert twin == record and hash(twin) == hash(record)
    # Equal only within one class: not to a subclass with the same fields.
    sub = type("Sub", (cls,), {"__slots__": ()})(*fields)
    assert sub != record and record != sub and record != tuple(fields)
    for name in (*cls.__slots__, "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == text
    copies = [pickle.loads(pickle.dumps(record, proto))
              for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies + [copy.copy(record), copy.deepcopy(record)]:
        assert type(other) is cls and other == record and repr(other) == text


def test_no_module_uses_dataclasses_exec_eval_or_a_metaclass():
    # A record is a `_family.Record` with a written-out constructor, the
    # family table's `Family` too, so no module imports typing (for a
    # NamedTuple, say) or dataclasses.
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                assert {"dataclasses", "typing"}.isdisjoint(a.name for a in node.names), path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module not in {"dataclasses", "typing"}, path.name
            elif isinstance(node, ast.Call):
                assert getattr(node.func, "id", None) not in {"exec", "eval"}, path.name
            elif isinstance(node, ast.ClassDef):
                assert "metaclass" not in {k.arg for k in node.keywords}, path.name
                bases = {getattr(b, "attr", getattr(b, "id", None)) for b in node.bases}
                assert "NamedTuple" not in bases, path.name


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


def counted(counts, key, func):
    """func, counting its calls in counts[key]."""
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return func(*args, **kwargs)
    return wrapper


def test_each_traced_attribute_is_reached_once_per_analysis_and_per_command(tmp_path,
                                                                            monkeypatch):
    # trace_targets wraps these attributes as this test does; one that a
    # command stops reaching leaves its span group empty, and the traced
    # run then prints a null per-layer value.
    paths = {}
    for variant in ("web_fcm", "web_fgcm", "web_fggcm"):
        paths[variant] = str(tmp_path / f"{variant}.json")
        _modelio.save_doc(gc.export_variant(variant), paths[variant])
    counts = Counter()
    for module, name in TRACED:
        key = f"{module.__name__.rsplit('.', 1)[1]}.{name}"
        monkeypatch.setattr(module, name, counted(counts, key, getattr(module, name)))
    # Per command; each command also loads and parses its model file once.
    runs = [(["check", "--model", paths[f"web_{family}"]],
             {"cli.simulate": 1, "cli.classify": 1, f"convergence.check_{family}": 1})
            for family in ("fcm", "fgcm", "fggcm")]
    runs += [(["sweep", "--model", paths["web_fgcm"], "--lambdas", "1,2",
               "--out-dir", str(tmp_path / "sweep")],
              {"cli.simulate": 2, "cli.classify": 2, "convergence.check_fgcm": 2}),
             (["simulate", "--model", paths["web_fggcm"], "--out", str(tmp_path / "t.csv")],
              {"cli.simulate": 1})]
    for argv, analyses in runs:
        counts.clear()
        assert cli.main(argv) == 0, argv
        assert dict(counts) == {"_modelio.load_model": 1, "_modelio.parse_model": 1,
                                **analyses}, argv


def walk(node, where="<module>"):
    """(node, where) for node and every node below it, where being the
    qualified name of the function or class it is in ("<module>" outside
    any; a lambda is no function here)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        where = node.name if where == "<module>" else f"{where}.{node.name}"
    yield node, where
    for child in ast.iter_child_nodes(node):
        yield from walk(child, where)


def references(tree):
    """(line, name, where) for each name a node of tree refers to: a bare
    name, an attribute, or an import, both as imported (its last dotted
    part) and by its alias; where is as in `walk`. Every guard below that
    looks for a name reads it here, so an alias or an attribute access is
    seen by all of them alike."""
    for node, where in walk(tree):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [part for a in node.names for part in (a.name.split(".")[-1], a.asname)]
        else:
            continue
        yield from ((node.lineno, name, where) for name in names if name is not None)


def lookup_sites(source):
    """(line, what) for each raise of an "unknown family" message and each
    name, attribute or import that refers to `located`."""
    tree = ast.parse(source)
    found = [(node.lineno, "unknown family") for node in ast.walk(tree)
             if isinstance(node, ast.Raise) for c in ast.walk(node)
             if isinstance(c, ast.Constant) and "unknown family" in str(c.value)]
    return sorted(found + [(line, name) for line, name, _ in references(tree)
                           if name == "located"])


def test_only_the_family_module_looks_a_family_up_by_name():
    # `_family.family_of` is the one lookup, and `_family.vector` the one
    # reader that names the place of a refused value; a second copy of
    # either would be a second rule to keep in step.
    found = {p.name: lookup_sites(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert [what for _, what in found.pop("_family.py")] == ["unknown family"]
    assert {name: sites for name, sites in found.items() if sites} == {}
    probe = ('from ._family import located\nimport x.located\n'
             'def f(x):\n    raise ValueError(f"unknown family {x!r}")\n'
             'g = _family.located\nprint("unknown family")\n')
    assert lookup_sites(probe) == [(1, "located"), (2, "located"), (4, "unknown family"),
                                   (5, "located")]
    # The one lookup tests membership, so an unhashable name is refused.
    for call, error in [
        (lambda: gc.Model(["fcm"], ("a",), ((0.0,),), (0.0,), 1.0), gc.ValidationError),
        (lambda: gc.Trajectory(["fcm"], ((0.0,),)), gc.ValidationError),
        (lambda: gc.parse_model({"family": ["fcm"], "lambda": 1, "nodes": ["a"],
                                 "weights": [[0.0]], "initial": [0.0]}), gc.MalformedInputError),
    ]:
        with pytest.raises(error, match=r"unknown family \['fcm'\]"):
            call()


def name_sites(source, names):
    """(line, name) for each name, attribute or import (as imported, or
    its alias) in source that is one of names."""
    return sorted((line, name) for line, name, _ in references(ast.parse(source))
                  if name in names)


def test_only_the_row_readers_model_and_sweep_name_the_read_row_marker():
    # A model-file weight row is read in one place, its family's row
    # reader, which marks a row it took whole `_Read`; Model keeps such a
    # row and cli's sweep marks the rows of the Model it rebuilds. Any other
    # module naming the marker, or any module naming the folded-away
    # `_model_of_read_rows`, would be a second path for reading a row.
    markers = {"_family.py", "cogmap.py", "cli.py"}
    found = {p.name: [(line, name) for line, name
                      in name_sites(p.read_text(), {"_Read", "_model_of_read_rows"})
                      if name == "_model_of_read_rows" or p.name not in markers]
             for p in sorted(SRC.glob("*.py"))}
    assert {name: sites for name, sites in found.items() if sites} == {}
    assert all(name_sites((SRC / name).read_text(), {"_Read"}) for name in markers)
    probe = ('from ._family import _Read as R\nimport x._model_of_read_rows\n'
             'm = cogmap._model_of_read_rows(1)\nprint("_Read")\nrow = _Read(())\n')
    assert name_sites(probe, {"_Read", "_model_of_read_rows"}) == [
        (1, "_Read"), (2, "_model_of_read_rows"), (3, "_model_of_read_rows"), (5, "_Read")]


def test_only_the_core_module_names_the_logistic():
    # The logistic is written once, `_core.sigmoids`, and reached through
    # the engines' updates: any other module naming `sigmoids` or `exp`
    # would be a second activation path, free to drift from their bits.
    names = {"sigmoids", "exp"}
    found = {p.name: name_sites(p.read_text(), names) for p in sorted(SRC.glob("*.py"))
             if p.name != "_core.py"}
    assert found and {name: sites for name, sites in found.items() if sites} == {}
    assert name_sites((SRC / "_core.py").read_text(), names)
    probe = ("from ._core import sigmoids as act\nimport math\nfrom math import exp\n"
             "y = math.exp(1.0)\nprint('sigmoids')\nz = act((y,), 1.0)\n")
    assert name_sites(probe, names) == [(1, "sigmoids"), (3, "exp"), (4, "exp")]


def test_only_the_core_module_names_the_subnormal_greyness_redo():
    # The greyness update and the condition matrix take a row's shares by
    # one rule, `_core.row_masses`, which alone decides when a row's
    # products lost bits: any other module naming the threshold or the
    # folded-away `scaled_products` would be a second redo beside it.
    names = {"TINY_MASS", "scaled_products"}
    found = {p.name: name_sites(p.read_text(), names) for p in sorted(SRC.glob("*.py"))
             if p.name != "_core.py"}
    assert found and {name: sites for name, sites in found.items() if sites} == {}
    assert name_sites((SRC / "_core.py").read_text(), names)
    probe = ("from ._core import TINY_MASS, blocks\nimport x.scaled_products\n"
             "print('TINY_MASS')\nif d < _core.TINY_MASS:\n    s = scaled_products(r, a)\n")
    assert name_sites(probe, names) == [(1, "TINY_MASS"), (2, "scaled_products"),
                                        (4, "TINY_MASS"), (5, "scaled_products")]


def exact_type_sites(source):
    """(line, where, test) for each comparison in source that tests a
    `type(...)` call by `is` or `is not`; where is as in `walk`, and test
    is the comparison's source."""
    return sorted((node.lineno, where, ast.unparse(node))
                  for node, where in walk(ast.parse(source))
                  if isinstance(node, ast.Compare)
                  and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
                  and any(isinstance(o, ast.Call) and getattr(o.func, "id", None) == "type"
                          for o in (node.left, *node.comparators)))


def test_only_the_family_module_trusts_an_exact_type():
    # A value of the exact type a rule returns as it is may skip the rule
    # only in `_family`: `vector`'s `_KEPT` table and the row readers. The
    # two tests elsewhere are Model's, which keeps a row a row reader
    # marked `_Read`, and Trajectory's, which keeps the state list simulate
    # marked so; another would be a second shortcut beside that table.
    found = {p.name: [(where, test) for _, where, test in exact_type_sites(p.read_text())]
             for p in sorted(SRC.glob("*.py")) if p.name != "_family.py"}
    assert {name: sites for name, sites in found.items() if sites} == {
        "cogmap.py": [("Model.__init__", "type(row) is _Read"),
                      ("Trajectory.__init__", "type(states) is _Read")]}
    probe = ("def f(s):\n    if type(s) is tuple:\n        return s\n"
             "class C:\n    def g(self, x):\n"
             "        return float is not type(x) or type(x) == int\n"
             "named = type(1).__name__ is str\n")
    assert exact_type_sites(probe) == [(2, "f", "type(s) is tuple"),
                                       (6, "C.g", "float is not type(x)")]


def whole_row_type_sites(source):
    """(line, where) for each `set(map(type, ...))` call in source, the test
    that every entry of a row is of one exact type; where is as in `walk`."""
    def called(node, name):
        return (isinstance(node, ast.Call)
                and getattr(node.func, "attr", getattr(node.func, "id", None)) == name)
    return sorted((node.lineno, where) for node, where in walk(ast.parse(source))
                  if called(node, "set") and node.args and called(node.args[0], "map")
                  and node.args[0].args and getattr(node.args[0].args[0], "id", None) == "type")


def test_only_vector_tests_a_whole_row_for_one_exact_type():
    # `_family.vector` takes a row whole when every entry is of the exact
    # type its rule returns as it is (`_KEPT`); a row reader with its own
    # copy of that test would be a second rule to keep in step with it.
    found = {(p.name, where) for p in sorted(SRC.glob("*.py"))
             for _, where in whole_row_type_sites(p.read_text())}
    assert found == {("_family.py", "vector")}
    probe = ("def f(row):\n    return set(map(type, row)) == {float}\n"
             "class C:\n    def g(self, r):\n"
             "        return builtins.set(map(type, r)), set(map(len, r)), set(r)\n"
             "kinds = {type(v) for v in ()}\n")
    assert whole_row_type_sites(probe) == [(2, "f"), (5, "C.g")]


# The cell builders that skip a constructor call: `_family._new` and the
# slot setters. Each fast path that uses them is one a workload pays for
# (the interval and grey row readers and the fggcm `box`, which build
# cells in a loop), and `_family`'s module level only defines them.
BUILDERS = {"_new", "_set_lo", "_set_hi", "_set_kernel", "_set_greyness"}
BUILDER_USERS = {"_interval_row", "_grey_row", "_grey_box"}


def builder_sites(source):
    """(where, name) for each reference in source to one of `BUILDERS`;
    where is as in `walk`."""
    return sorted((where, name) for _, name, where in references(ast.parse(source))
                  if name in BUILDERS)


def test_only_the_paid_fast_paths_build_a_cell_without_its_constructor():
    # A cell built without its constructor skips the constructor's
    # checks, so each such builder is a fast path kept only while a
    # workload pays for it; a deleted one (the fgcm slot loop, `Ign`'s and
    # `Ggn`'s own setter calls) coming back would be a fork nobody measured.
    found = {p.name: builder_sites(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    own = found.pop("_family.py")
    assert {name: sites for name, sites in found.items() if sites} == {}
    assert sorted(name for where, name in own if where == "<module>") == sorted(BUILDERS)
    assert {where for where, _ in own} - {"<module>"} == BUILDER_USERS
    probe = ("from ._family import _new as fresh\n_set_lo = Ign.lo.__set__\n"
             "class Ign:\n    def __init__(self, lo):\n        _set_lo(self, lo)\n"
             "box = lambda planes: _family._set_hi(fresh(Ign), planes)\n")
    assert builder_sites(probe) == [("<module>", "_new"), ("<module>", "_set_hi"),
                                    ("<module>", "_set_lo"), ("Ign.__init__", "_set_lo")]


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


def number_rule_sites(tree):
    """The functions, by qualified name (see `walk`), that refer to
    isfinite (see `references`, so an alias of it is seen where it is
    made) or test isinstance(..., bool): the checks `_family`'s number
    rules own."""
    yield from (where for _, name, where in references(tree) if name == "isfinite")
    for node, where in walk(tree):
        if (isinstance(node, ast.Call)
                and getattr(node.func, "attr", getattr(node.func, "id", None)) == "isinstance"):
            types = node.args[1:2]
            types = types[0].elts if types and isinstance(types[0], ast.Tuple) else types
            if any(isinstance(t, ast.Name) and t.id == "bool" for t in types):
                yield where


def test_only_the_family_module_writes_a_number_rule():
    # A new flag or entry point reuses `_family.finite`, `positive` or
    # `at_least` instead of growing a private copy of the rule.
    found = {(p.name, where) for p in sorted(SRC.glob("*.py"))
             for where in number_rule_sites(ast.parse(p.read_text()))}
    own = {where for name, where in found if name == "_family.py"}
    assert {"is_number", "finite", "at_least"} <= own
    # sigmoids' guard is no number rule: it reports an overflowed row sum.
    assert {site for site in found if site[0] != "_family.py"} <= {("_core.py", "sigmoids")}
    # An alias of isfinite is seen where it is made, whatever it is called.
    probe = ("import math\nfrom math import isfinite as fin\n_isfinite = math.isfinite\n"
             "def f(x):\n    return _isfinite(x) or fin(x)\n"
             "def g(x):\n    return isinstance(x, (int, bool))\n")
    assert sorted(number_rule_sites(ast.parse(probe))) == ["<module>", "<module>", "g"]


def caught_names(source):
    """The exception names the except clauses of source catch."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            found |= {getattr(t, "attr", getattr(t, "id", None)) for t in types}
    return found


def test_only_the_family_module_translates_shape_and_cell_errors():
    # A matrix or vector argument is read by `_family.matrix` or
    # `_family.vector`, which turn a value that is no sequence into
    # DimensionError and a refused entry into its rule's error; a
    # module catching TypeError or AttributeError itself would be a second
    # copy of that rule.
    found = {p.name: caught_names(p.read_text()) & {"TypeError", "AttributeError"}
             for p in sorted(SRC.glob("*.py")) if p.name != "_family.py"}
    assert "dynamics.py" in found and {name: c for name, c in found.items() if c} == {}
    probe = "try:\n    pass\nexcept (builtins.TypeError, KeyError):\n    pass\n"
    assert caught_names(probe) == {"TypeError", "KeyError"}


# Summation functions whose rounding is not the engines' left-to-right
# float adds: CPython 3.12's builtin sum of floats is compensated
# (sum([1e16, 1.0, -1e16]) is 0.0 on 3.11 and 1.0 on 3.12), fsum and
# sumprod round differently again, and reduce hides which add it applies.
SUMMATIONS = {"sum", "fsum", "sumprod", "reduce"}


def summation_sites(source):
    """(line, name) for each place source names a summation function, as
    a bare name, an attribute or an import (see `name_sites`)."""
    return name_sites(source, SUMMATIONS)


def test_the_engine_kernels_sum_only_by_left_to_right_adds():
    # The bit-equality contract holds on every interpreter only while
    # `_core`'s sums are plain `+=` loops.
    assert summation_sites((SRC / "_core.py").read_text()) == []
    assert summation_sites("import math\nx = math.fsum(v) + sum(v)\n") == [(2, "fsum"), (2, "sum")]
