"""The package surface, pinned: a deletion that something still relies on
fails here rather than in a benchmark run."""

import ast
import copy
import inspect
import pickle
import re
from collections import Counter
from pathlib import Path

import pytest

import greycog as gc
from greycog import _modelio, cli, cogmap, convergence, dynamics
import golden

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "greycog"

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


def called(node, name):
    """Whether node calls a function named name, bare or as an attribute."""
    return (isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) == name)


def node_sites(node, raising):
    """(kind, key) for each site node itself holds (see `sites`)."""
    if isinstance(node, ast.Name):
        yield "name", node.id
    elif isinstance(node, ast.Attribute):
        yield "name", node.attr
    elif isinstance(node, (ast.Import, ast.ImportFrom)):
        dotted = [getattr(node, "module", None) or ""]
        dotted += [name for a in node.names for name in (a.name, a.asname or "")]
        yield from (("name", part) for name in dotted for part in name.split(".") if part)
    elif isinstance(node, ast.Constant) and raising and isinstance(node.value, str):
        yield "raise", node.value
    elif isinstance(node, ast.Compare):
        if (any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
                and any(called(o, "type") for o in (node.left, *node.comparators))):
            yield "type-is", ast.unparse(node)
    elif (called(node, "set") and node.args and called(node.args[0], "map")
          and node.args[0].args and getattr(node.args[0].args[0], "id", None) == "type"):
        yield "set-map-type", ast.unparse(node)
    elif called(node, "isinstance") and len(node.args) == 2:
        types = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else node.args[1:]
        yield from (("isinstance", t.id) for t in types if isinstance(t, ast.Name))
    elif isinstance(node, ast.ExceptHandler) and node.type is not None:
        types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        yield from (("except", getattr(t, "attr", getattr(t, "id", None))) for t in types)
    elif isinstance(node, ast.ClassDef):
        yield from (("keyword", k.arg) for k in node.keywords)


def sites(tree, place):
    """(kind, key, place) for each site in a module's tree, in one walk;
    place starts as the module's name and becomes "module:qualified
    function" inside a function or class ("cogmap:Model.__init__"; a
    lambda is no function). The kinds: name (a bare name, an attribute,
    each dotted part of an import and its alias, so an alias is seen where
    it is made), raise (a string constant in a raise statement), type-is
    (a `type(...)` call tested by `is` or `is not`) and set-map-type (a
    `set(map(type, ...))` call, the test that a row is of one exact type),
    both keyed by their source, isinstance (each type name tested), except
    (each exception name caught) and keyword (of a class statement)."""
    def visit(node, place, raising):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            place = f"{place}.{node.name}" if ":" in place else f"{place}:{node.name}"
        raising = raising or isinstance(node, ast.Raise)
        yield from ((kind, key, place) for kind, key in node_sites(node, raising))
        for child in ast.iter_child_nodes(node):
            yield from visit(child, place, raising)
    return visit(tree, place, False)


PROBE = '''\
import x.located, math as m
from ._core import sigmoids as act
fin = m.isfinite
named = type(1).__name__ is str, type(m) == int, {type(v) for v in ()}
class C(Base, metaclass=type):
    def g(self, r):
        if type(r) is not tuple or float is type(r) or isinstance(r, (int, bool)):
            raise ValueError(f"unknown family {r!r}")
        return set(map(type, r)), builtins.set(map(type, r)), set(map(len, r)), set(r)
try:
    print(lambda: "unknown family")
except (builtins.TypeError, KeyError):
    pass
'''


def test_the_site_finder_sees_each_kind_where_it_is_held():
    found = list(sites(ast.parse(PROBE), "probe"))
    assert [site for site in found if site[0] != "name"] == [
        ("keyword", "metaclass", "probe:C"),
        ("type-is", "type(r) is not tuple", "probe:C.g"),
        ("type-is", "float is type(r)", "probe:C.g"),
        ("isinstance", "int", "probe:C.g"), ("isinstance", "bool", "probe:C.g"),
        ("raise", "unknown family ", "probe:C.g"),
        ("set-map-type", "set(map(type, r))", "probe:C.g"),
        ("set-map-type", "builtins.set(map(type, r))", "probe:C.g"),
        ("except", "TypeError", "probe"), ("except", "KeyError", "probe"),
    ]
    names = {place: {k for kind, k, p in found if kind == "name" and p == place}
             for *_, place in found}
    assert names == {
        "probe": {"x", "located", "math", "m", "_core", "sigmoids", "act", "fin", "isfinite",
                  "named", "type", "__name__", "str", "int", "v", "print", "builtins",
                  "TypeError", "KeyError"},
        "probe:C": {"Base", "type"},
        "probe:C.g": {"r", "type", "tuple", "float", "isinstance", "int", "bool", "ValueError",
                      "set", "map", "builtins", "len"},
    }


# Each "written once" rule: the pattern its sites match (as "kind key",
# see `sites`), a pattern of the places allowed to hold it (`m(:.*)?` is
# anywhere in module m), the places that must hold it, and why. A site
# anywhere else would be a second copy of the rule, free to drift.
NOWHERE = "(?!)"
RULES = {
    "records": (
        r"name (dataclasses|typing|NamedTuple|exec|eval)|keyword metaclass", NOWHERE, (),
        "A record is a `_family.Record` with a written-out constructor, the family table's "
        "`Family` too: no dataclass, NamedTuple, metaclass, exec or eval."),
    "family-lookup": (
        r"raise .*unknown family.*", NOWHERE, (),
        "`_family.family_of` is the one lookup of a family by name (its raise is pinned)."),
    "located": (
        r"name located", NOWHERE, (),
        "`_family.vector` alone names the place of a refused value, not a folded-away `located`."),
    "read-row-marker": (
        r"name _Read", r"(_family|cogmap|cli)(:.*)?",
        ("_family:_crisp_row", "_family:_interval_row", "_family:_grey_row",
         "cogmap:Model.__init__", "cogmap:Trajectory.__init__", "cogmap:simulate",
         "cli:_cmd_sweep"),
        "A weight row is read once, by its family's row reader, which marks a row it took "
        "whole `_Read`; Model keeps it, sweep marks a rebuilt Model's rows, and simulate "
        "marks the states Trajectory keeps."),
    "folded-row-rebuild": (
        r"name _model_of_read_rows", NOWHERE, (),
        "Model rebuilds a `_Read` row itself, not a folded-away second path for reading a row."),
    "logistic": (
        r"name (sigmoids|exp)", r"_core(:.*)?", ("_core:sigmoids",),
        "The logistic is written once, `_core.sigmoids`; a second one could drift from its bits."),
    "subnormal-redo": (
        r"name (TINY_MASS|scaled_products)", r"_core(:.*)?", ("_core", "_core:row_masses"),
        "`_core.row_masses` alone decides when a row's greyness products lost bits; naming "
        "its threshold or the folded-away `scaled_products` elsewhere would be a second redo."),
    "exact-type": (
        r"type-is .*", r"_family(:.*)?", (),
        "A value of the exact type a rule returns as it is skips the rule only in `_family`; "
        "Model's `_Read` row test and Trajectory's `_Read` state list test are pinned."),
    "whole-row-type": (
        r"set-map-type .*", "_family:vector", ("_family:vector",),
        "`_family.vector` alone takes a row whole when all its entries are of one `_KEPT` type."),
    "cell-builders": (
        r"name (_new|_set_lo|_set_hi|_set_kernel|_set_greyness)",
        r"_family:(_interval_row|_grey_row|_grey_box)",
        ("_family:_interval_row", "_family:_grey_row", "_family:_grey_box"),
        "A cell built without its constructor skips its checks, so only the fast paths a "
        "workload pays for (the interval and grey row readers and the fggcm `box`) use the "
        "builders `_family`'s module level defines (pinned)."),
    "number-rule": (
        r"name isfinite|isinstance bool", r"_family(:.*)?|_core:sigmoids",
        ("_family:is_number", "_family:finite", "_family:at_least"),
        "A new flag or entry point reuses `_family.finite`, `positive` or `at_least`; "
        "sigmoids' test is no number rule, it reports an overflowed row sum."),
    "shape-translation": (
        r"except (TypeError|AttributeError)", r"_family(:.*)?", ("_family:sequence",),
        "`_family.matrix` and `vector` alone turn a non-sequence or refused entry into an error."),
    "left-to-right-sums": (
        r"name (sum|fsum|sumprod|reduce)", r"(?!_core\b).*", (),
        "The bit-equality contract holds on every interpreter only while `_core` sums by "
        "`+=` loops: builtin sum is compensated from CPython 3.12, fsum and sumprod round "
        "otherwise, and reduce hides the add."),
    "analysis-chain": (
        r"name check_(fcm|fgcm|fggcm)", r"(convergence|__init__)(:.*)?|cli:_analyze",
        ("cli:_analyze",),
        "`cli._analyze` alone chains simulate, classify and the family's criterion, so one "
        "place knows which criterion belongs to which family; the CLI and the scripts call it."),
}
# The sites a rule's row leaves out: each is its rule's one copy, held
# exactly once where it is (a row judges places, so it would pass a second
# copy beside the first).
PINNED = [
    ("raise", "unknown family ", "_family:family_of"),
    ("type-is", "type(row) is _Read", "cogmap:Model.__init__"),
    ("type-is", "type(states) is _Read", "cogmap:Trajectory.__init__"),
    *(("name", b, "_family") for b in "_new _set_lo _set_hi _set_kernel _set_greyness".split()),
]
SITES = [site for p in sorted(SRC.glob("*.py"))
         for site in sites(ast.parse(p.read_text()), p.stem)]


@pytest.mark.parametrize("pattern, allowed, required, reason", RULES.values(), ids=list(RULES))
def test_each_rule_is_held_only_where_it_is_owned(pattern, allowed, required, reason):
    held = {place for kind, key, place in SITES
            if (kind, key, place) not in PINNED and re.fullmatch(pattern, f"{kind} {key}", re.S)}
    assert sorted(p for p in held if not re.fullmatch(allowed, p)) == [], reason
    assert sorted(set(required) - held) == [], reason


def test_each_pinned_site_is_held_once():
    held = Counter(SITES)
    assert {site: held[site] for site in PINNED if held[site] != 1} == {}


def test_the_family_lookup_refuses_an_unhashable_name():
    # `_family.family_of` tests membership, so an unhashable name is refused.
    for call, error in [
        (lambda: gc.Model(["fcm"], ("a",), ((0.0,),), (0.0,), 1.0), gc.ValidationError),
        (lambda: gc.Trajectory(["fcm"], ((0.0,),)), gc.ValidationError),
        (lambda: gc.parse_model({"family": ["fcm"], "lambda": 1, "nodes": ["a"],
                                 "weights": [[0.0]], "initial": [0.0]}), gc.MalformedInputError),
    ]:
        with pytest.raises(error, match=r"unknown family \['fcm'\]"):
            call()


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


def test_each_bit_pin_is_written_once_in_the_golden_table():
    # An md5 or sha256 literal anywhere in the suite but tests/golden.py is
    # a second copy of a pin, and a group of its table (the pin names before
    # their first "/") that no test module names is read by no test.
    strings = {p.name: [n.value for n in ast.walk(ast.parse(p.read_text()))
                        if isinstance(n, ast.Constant) and isinstance(n.value, str)]
               for p in sorted(TESTS.glob("*.py")) if p.name != "golden.py"}
    digests = {name: [s for s in found if re.fullmatch(r"[0-9a-f]{32}|[0-9a-f]{64}", s)]
               for name, found in strings.items()}
    assert {name: found for name, found in digests.items() if found} == {}
    named = [s for name, found in strings.items() if name.startswith("test_") for s in found]
    groups = {pin.split("/")[0] for pin in golden.GOLDEN}
    assert sorted(g for g in groups if not any(s.startswith(g + "/") for s in named)) == []
