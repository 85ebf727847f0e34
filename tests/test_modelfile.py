"""JSON model files: parsing, lifting, rejection."""

import copy
import json
import math
import os
import pickle
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import greycog as gc
from greycog import cli
from greycog._family import FAMILY, family_of, finite, positive, vector


def doc_fcm():
    return {
        "family": "fcm",
        "nodes": ["a", "b"],
        "weights": [[0.0, 0.5], [-0.25, 0.0]],
        "initial": [1.0, 0.0],
        "lambda": 1.0,
    }


def test_parse_crisp_doc():
    m = gc.parse_model(doc_fcm())
    assert m.family == "fcm"
    assert m.weights[0][1] == 0.5
    assert m.lam == 1.0


def test_interval_doc_lifts_bare_numbers():
    doc = doc_fcm()
    doc["family"] = "fgcm"
    doc["weights"][0][1] = {"interval": [0.4, 0.6]}
    m = gc.parse_model(doc)
    assert m.weights[0][1] == gc.Ign(0.4, 0.6)
    # A bare number becomes a width-zero interval.
    assert m.weights[1][0] == gc.Ign(-0.25, -0.25)
    assert m.initial[0] == gc.Ign(1.0, 1.0)


def test_ggn_doc_lifts_bare_numbers_and_reduces_unions():
    doc = doc_fcm()
    doc["family"] = "fggcm"
    doc["weights"][0][1] = {"kernel": 0.5, "greyness": 0.05}
    doc["weights"][1][0] = {"union": [[-0.4, -0.2], [0.0, 0.2]]}
    m = gc.parse_model(doc)
    assert m.weights[0][1] == gc.Ggn(0.5, 0.05)
    want = gc.ggn_from_union(gc.GreyUnion(((-0.4, -0.2), (0.0, 0.2))))
    assert m.weights[1][0] == want
    assert m.weights[0][0] == gc.Ggn(0.0, 0.0)


def test_parse_rejects_interval_cell_in_crisp_doc():
    doc = doc_fcm()
    doc["weights"][0][1] = {"interval": [0.4, 0.6]}
    with pytest.raises(gc.MalformedInputError):
        gc.parse_model(doc)


def test_parse_rejects_unknown_cell_shape():
    doc = doc_fcm()
    doc["family"] = "fggcm"
    doc["weights"][0][1] = {"midpoint": 0.5}
    with pytest.raises(gc.MalformedInputError):
        gc.parse_model(doc)


# Cell containers the parser reads before it calls a constructor.
@pytest.mark.parametrize("family, cell", [
    ("fgcm", {"lo": 0.5, "hi": 0.6}),
    ("fgcm", {"interval": [0.5]}),
    ("fgcm", {"interval": [0.1, 0.2, 0.3]}),
    ("fgcm", {"interval": 0.5}),
    ("fggcm", {"union": 0.5}),
    ("fggcm", {"union": [[0.1, 0.2, 0.3]]}),
    ("fggcm", {"union": []}),
], ids=["no interval key", "interval of one", "interval of three", "interval not a list",
        "union not a list", "union entry of three", "empty union"])
def test_parse_rejects_a_cell_container_of_the_wrong_shape(family, cell):
    doc = doc_fcm()
    doc["family"] = family
    doc["weights"][1][0] = cell
    with pytest.raises(gc.MalformedInputError, match=r"weights\[2\]\[1\]"):
        gc.parse_model(doc)


@pytest.mark.parametrize("doc, match", [
    ([doc_fcm()], "JSON object"),
    ({**doc_fcm(), "initial": {"a": 1.0}}, "'initial' must be a list"),
], ids=["doc a list", "initial a dict"])
def test_parse_rejects_a_document_of_the_wrong_shape(doc, match):
    with pytest.raises(gc.MalformedInputError, match=match):
        gc.parse_model(doc)


def test_parse_rejects_missing_field():
    doc = doc_fcm()
    del doc["initial"]
    with pytest.raises(gc.MalformedInputError):
        gc.parse_model(doc)


def test_parse_rejects_non_numeric_weight():
    doc = doc_fcm()
    doc["weights"][0][0] = "zero"
    with pytest.raises(gc.MalformedInputError):
        gc.parse_model(doc)


def test_out_of_range_weight_is_a_validation_error():
    doc = doc_fcm()
    doc["weights"][0][1] = 1.5
    with pytest.raises(gc.ValidationError):
        gc.parse_model(doc)


def test_load_model_missing_file(tmp_path):
    with pytest.raises(gc.MalformedInputError):
        gc.load_model(str(tmp_path / "absent.json"))


def test_load_model_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(gc.MalformedInputError):
        gc.load_model(str(p))


@pytest.mark.parametrize("call", [gc.load_model, lambda fd: gc.save_doc({"a": 1}, fd),
                                  lambda fd: gc.load_model(None)],
                         ids=["load_model fd", "save_doc fd", "load_model None"])
def test_a_path_that_is_no_path_is_refused_before_anything_opens(tmp_path, call):
    # open would take an int as a file descriptor, read or write it, then
    # close it. A bool is an int too; see test_cli for that case, which
    # would name stdin, stdout or stderr.
    p = tmp_path / "m.json"
    p.write_text(json.dumps(doc_fcm()))
    before = p.read_bytes()
    fd = os.open(p, os.O_RDWR)
    try:
        with pytest.raises(gc.InvalidParameterError, match="a path must be"):
            call(fd)
        os.fstat(fd)
    finally:
        os.close(fd)
    assert p.read_bytes() == before


def test_doc_round_trip(tmp_path):
    for vid in gc.VARIANTS:
        m = gc.build(vid, 2.0)
        p = tmp_path / f"{vid}.json"
        gc.save_doc(gc.model_to_doc(m), str(p))
        again = gc.load_model(str(p))
        assert again == m


def test_saved_doc_is_plain_json(tmp_path):
    p = tmp_path / "m.json"
    gc.save_doc(gc.model_to_doc(gc.build("web_fggcm", 1.0)), str(p))
    doc = json.loads(p.read_text())
    assert doc["family"] == "fggcm"
    assert len(doc["weights"]) == 7


# Numbers a JSON document can hold that are no finite float: integer
# literals past the float range, and what json reads for 1e400, Infinity
# and NaN.
NOT_FINITE = [10 ** 400, -(10 ** 400), math.inf, -math.inf, math.nan]

# JSON values that are no number at all: a string, true, null and a list.
NOT_NUMBERS = ["0.5", True, None, [0.5]]

# Every place a model file holds a number, as (family, cell built from x).
NUMBER_SITES = {
    "fcm number": ("fcm", lambda x: x),
    "fgcm number": ("fgcm", lambda x: x),
    "fgcm interval lo": ("fgcm", lambda x: {"interval": [x, 1.0]}),
    "fgcm interval hi": ("fgcm", lambda x: {"interval": [-1.0, x]}),
    "fggcm number": ("fggcm", lambda x: x),
    "fggcm kernel": ("fggcm", lambda x: {"kernel": x, "greyness": 0.0}),
    "fggcm greyness": ("fggcm", lambda x: {"kernel": 0.0, "greyness": x}),
    "fggcm union lo": ("fggcm", lambda x: {"union": [[x, 0.5]]}),
    "fggcm union hi": ("fggcm", lambda x: {"union": [[-0.5, 0.0], [0.5, x]]}),
}


@pytest.mark.parametrize("place", ["weights", "initial"])
@pytest.mark.parametrize("site", sorted(NUMBER_SITES))
def test_number_that_is_no_finite_float_is_malformed(site, place):
    family, cell = NUMBER_SITES[site]
    for x in NOT_FINITE + NOT_NUMBERS:
        doc = doc_fcm()
        doc["family"] = family
        if place == "weights":
            doc["weights"][1][0] = cell(x)
        else:
            doc["initial"][1] = cell(x)
        with pytest.raises(gc.MalformedInputError, match=rf"{place}\[2\]"):
            gc.parse_model(doc)


def test_lambda_that_is_no_finite_float_is_malformed():
    for x in NOT_FINITE + NOT_NUMBERS:
        doc = doc_fcm()
        doc["lambda"] = x
        with pytest.raises(gc.MalformedInputError, match="'lambda'"):
            gc.parse_model(doc)


def test_integer_past_the_digit_limit_is_malformed(tmp_path):
    # json itself refuses an int literal this long (ValueError, not a
    # JSONDecodeError) under the interpreter's int digit limit.
    p = tmp_path / "long.json"
    p.write_text(json.dumps(doc_fcm()).replace("0.5", "9" * 5000))
    with pytest.raises(gc.MalformedInputError):
        gc.load_model(str(p))


json_number = st.one_of(
    st.floats(-1.0, 1.0),
    st.integers(-1, 1),
    st.integers(10 ** 300, 10 ** 400).flatmap(lambda x: st.sampled_from([x, -x])),
    st.floats(),
)
json_leaf = st.one_of(json_number, st.none(), st.booleans(), st.text(max_size=3))
json_cell = st.one_of(
    json_number,
    st.fixed_dictionaries({"interval": st.lists(json_number, max_size=3)}),
    st.fixed_dictionaries({"kernel": json_number, "greyness": json_number}),
    st.fixed_dictionaries({"union": st.lists(st.lists(json_number, max_size=3), max_size=3)}),
    st.dictionaries(st.text(max_size=2), json_leaf, max_size=2),
    st.lists(json_leaf, max_size=2),
    json_leaf,
)


@st.composite
def model_docs(draw):
    """Documents near the model-file shape, holding any JSON value now and
    then: most reach the cell and lambda parsers."""
    n = draw(st.integers(0, 3))

    def mostly(good):
        junk = st.one_of(json_leaf, st.lists(json_cell, max_size=3))
        return draw(good if draw(st.integers(0, 4)) else junk)

    doc = {
        "family": mostly(st.sampled_from(gc.FAMILIES)),
        "lambda": mostly(st.one_of(st.floats(0.1, 5.0), json_number)),
        "nodes": mostly(st.just([f"c{i}" for i in range(n)])),
        "weights": mostly(st.lists(st.lists(json_cell, min_size=n, max_size=n),
                                   min_size=n, max_size=n)),
        "initial": mostly(st.lists(json_cell, min_size=n, max_size=n)),
    }
    for key in draw(st.lists(st.sampled_from(sorted(doc)), max_size=1)):
        del doc[key]
    return doc


@settings(max_examples=200, deadline=None)
@given(model_docs())
def test_parse_model_raises_only_its_documented_errors(doc):
    try:
        gc.parse_model(doc)
    except (gc.MalformedInputError, gc.ValidationError):
        pass


def test_a_top_level_key_beyond_the_five_is_ignored():
    # Only a cell's keys are checked; the document's own extra keys are
    # not (a comment or version field an editor adds reads as before).
    for family in gc.FAMILIES:
        doc = dict(doc_fcm(), family=family)
        assert gc.parse_model(dict(doc, foo=1, notes={"x": [1]})) == gc.parse_model(doc)


def outcome(call):
    """("model", repr) of what call returns, or (type, message) of the
    GreycogError it raises; repr tells -0.0 from 0.0 and 1 from 1.0."""
    try:
        return "model", repr(call())
    except gc.GreycogError as exc:
        return type(exc), str(exc)


def per_cell(doc, lam=None):
    """The outcome of reading doc cell by cell: parse_model as it was
    before the one-pass row readers, kept as the reference they must agree
    with. Each weight cell goes through its family's `parse` rule, then the
    initial state, then `Model`, which reads every weight under the
    family's `weight` rule before it checks lambda, node names and shapes."""
    def read():
        if not isinstance(doc, dict):
            raise gc.MalformedInputError("model file must contain a JSON object")
        missing = {"family", "lambda", "nodes", "weights", "initial"} - set(doc)
        if missing:
            raise gc.MalformedInputError(f"model file missing keys: {', '.join(sorted(missing))}")
        parse = family_of(doc["family"], gc.MalformedInputError).parse
        file_lam = finite(doc["lambda"], gc.MalformedInputError, "'lambda'")
        nodes = doc["nodes"]
        if not (isinstance(nodes, list) and nodes and all(isinstance(s, str) for s in nodes)):
            raise gc.MalformedInputError("'nodes' must be a nonempty list of strings")
        weights = doc["weights"]
        if not (isinstance(weights, list) and all(isinstance(r, list) for r in weights)):
            raise gc.MalformedInputError("'weights' must be a list of rows")
        rows = tuple(vector(row, parse, f"weights[{i}]", gc.MalformedInputError)
                     for i, row in enumerate(weights, 1))
        if not isinstance(doc["initial"], list):
            raise gc.MalformedInputError("'initial' must be a list")
        initial = vector(doc["initial"], parse, "initial", gc.MalformedInputError)
        m = gc.Model(doc["family"], tuple(nodes), rows, initial, file_lam if lam is None else lam)
        positive(file_lam, gc.ValidationError)
        return m
    return outcome(read)


# Numbers at the edges of the rules: the range ends, signed zeros and
# ints, which every rule takes, then bools, the floats just outside the
# range and what JSON reads for Infinity and NaN, which a rule refuses.
EDGES = [0.0, -0.0, 1.0, -1.0, 0, 1, -1, 2, True, False, math.nextafter(1.0, 2.0),
         math.nextafter(-1.0, -2.0), math.inf, -math.inf, math.nan]


def clean_cells(family):
    """Cells of family that every rule takes, all of floats: numbers and
    interval ends within [-1, 1] (points among them), and kernel/greyness
    pairs with a greyness of +0.0 to 0.1 or -0.0."""
    number = st.floats(-1.0, 1.0)
    if family == "fcm":
        return number
    if family == "fgcm":
        ends = st.one_of(st.lists(number, min_size=2, max_size=2).map(sorted),
                         number.map(lambda x: [x, x]))
        return st.one_of(number, st.fixed_dictionaries({"interval": ends}))
    greyness = st.one_of(st.floats(0.0, 0.1), st.just(-0.0))
    return st.one_of(number, st.fixed_dictionaries({"kernel": number, "greyness": greyness}))


@st.composite
def well_formed_docs(draw):
    """Documents of the model-file shape and clean cells, two thirds of
    them with one number of EDGES put at one of the family's number sites
    (see NUMBER_SITES) in a weight row or the initial state, and one in
    ten with a ragged row and one in ten with a lambda of 0, -1.0 or 2."""
    family = draw(st.sampled_from(gc.FAMILIES))
    n = draw(st.integers(1, 4))
    cell = clean_cells(family)
    weights = draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n))
    initial = draw(st.lists(cell, min_size=n, max_size=n))
    if draw(st.integers(0, 2)):
        site = draw(st.sampled_from(sorted(s for s, (f, _) in NUMBER_SITES.items()
                                           if f == family)))
        row = draw(st.sampled_from([*weights, initial]))
        row[draw(st.integers(0, n - 1))] = NUMBER_SITES[site][1](draw(st.sampled_from(EDGES)))
    if draw(st.integers(0, 9)) == 0:
        weights[draw(st.integers(0, n - 1))].append(draw(cell))
    lam = st.sampled_from([0, -1.0, 2]) if draw(st.integers(0, 9)) == 0 else st.floats(0.1, 5.0)
    return {
        "family": family,
        "lambda": draw(lam),
        "nodes": [f"c{i}" for i in range(n)],
        "weights": weights,
        "initial": initial,
    }


@settings(max_examples=300, deadline=None)
@given(st.one_of(model_docs(), well_formed_docs(), well_formed_docs()),
       st.one_of(st.none(), st.floats(0.1, 5.0)))
def test_the_row_readers_agree_with_the_per_cell_rules(doc, lam):
    assert outcome(lambda: gc.parse_model(doc, lam)) == per_cell(doc, lam)


def faults(family, *edits, **keys):
    """doc_fcm as a family's document, with weights[i][j] = cell for each
    (i, j, cell) in edits (a j past the row appends) and keys replaced."""
    doc = dict(doc_fcm(), family=family, **keys)
    for i, j, cell in edits:
        row = doc["weights"][i]
        row[j:j + 1] = [cell]
    return doc


@pytest.mark.parametrize("site", sorted(NUMBER_SITES))
def test_the_row_readers_agree_at_every_edge_number(site):
    # Each edge number at each site, as a row's first cell and as a later
    # one (where a NaN does not lead a max), and in the initial state.
    family, cell = NUMBER_SITES[site]
    for x in EDGES:
        for doc in (faults(family, (0, 0, cell(x))), faults(family, (1, 1, cell(x))),
                    faults(family, initial=[1.0, cell(x)])):
            assert outcome(lambda: gc.parse_model(doc)) == per_cell(doc), (x, doc)


# Documents with two faults: the error raised is the first in the order
# malformed weight cells, malformed initial cells, weight range, then
# lambda, node names and shapes.
MULTI_FAULT = {
    "range in row 1, malformed in row 2": (
        faults("fcm", (0, 1, 1.5), (1, 0, "x")),
        gc.MalformedInputError, "weights[2][1]: expected a number, got str"),
    "grey range in row 1, malformed union in row 2": (
        faults("fggcm", (0, 1, {"kernel": 1.5, "greyness": 0.0}), (1, 0, {"union": 0.5})),
        gc.MalformedInputError, "weights[2][1]: 'union' must be a list of [lo, hi]"),
    "range in row 1, malformed initial": (
        faults("fgcm", (0, 1, {"interval": [0.0, 1.5]}), initial=[1.0, {"interval": [1]}]),
        gc.MalformedInputError, "initial[2]: 'interval' must be [lo, hi]"),
    "range in row 1, ragged row 2": (
        faults("fcm", (0, 1, 1.5), (1, 2, 0.0)),
        gc.ValidationError, "weights[1][2]: weight 1.5 outside [-1, 1]"),
    "ragged row 1, grey range in row 2": (
        faults("fgcm", (0, 2, 0.0), (1, 1, {"interval": [-1.5, 0.0]})),
        gc.ValidationError, "weights[2][2]: interval escapes [-1, 1]"),
    "range, then a bad lambda": (
        faults("fggcm", (1, 1, -1.5), **{"lambda": 0}),
        gc.ValidationError, "weights[2][2]: kernel -1.5 outside [-1, 1]"),
    "range, then a repeated name": (
        faults("fcm", (0, 0, -2), nodes=["a", "a"]),
        gc.ValidationError, "weights[1][1]: weight -2.0 outside [-1, 1]"),
    "a bad lambda, then a ragged row": (
        faults("fgcm", (1, 2, 0.5), **{"lambda": 0}),
        gc.ValidationError, "lambda must be a positive finite number, got 0.0"),
    "a repeated name, then a ragged row": (
        faults("fggcm", (1, 2, 0.5), nodes=["a", "a"]),
        gc.ValidationError, "node name 'a' is repeated"),
}


@pytest.mark.parametrize("case", sorted(MULTI_FAULT))
def test_a_document_with_two_faults_raises_the_first(case):
    doc, error, message = MULTI_FAULT[case]
    assert outcome(lambda: gc.parse_model(doc)) == (error, message)
    assert per_cell(doc) == (error, message)


def seeded_doc(family, n, seed):
    """A seeded well-formed document of family on n nodes, no weight
    interval straddling zero, some cells given as bare numbers."""
    rng = random.Random(seed)
    w = [[rng.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(n)]
    if family == "fgcm":
        w = [[x if j % 5 == 0 else {"interval": sorted([x, x * rng.uniform(0.9, 1.0)])}
              for j, x in enumerate(row)] for row in w]
    elif family == "fggcm":
        w = [[x if j % 5 == 0 else {"kernel": x, "greyness": rng.uniform(0.0, 0.05)}
              for j, x in enumerate(row)] for row in w]
    return {"family": family, "lambda": 1.0, "nodes": [f"N{i + 1}" for i in range(n)],
            "weights": w, "initial": [rng.uniform(0.0, 1.0) for _ in range(n)]}


@pytest.mark.parametrize("family", gc.FAMILIES)
def test_loading_and_checking_reads_no_weight_cell_by_cell(family, tmp_path, monkeypatch,
                                                           capsys):
    # Each weight row is read in one pass by the family's row reader and
    # kept by Model: no weight cell goes through the per-cell parse or
    # weight rule, from loading to the criterion. Only the initial state
    # is parsed cell by cell.
    n = 12
    path = tmp_path / f"{family}.json"
    path.write_text(json.dumps(seeded_doc(family, n, seed=26)))
    calls = Counter()
    fam = FAMILY[family]

    def counting(rule, key):
        def wrapper(x):
            calls[key] += 1
            return rule(x)
        return wrapper

    monkeypatch.setitem(FAMILY, family, fam._replace(parse=counting(fam.parse, "parse"),
                                                     weight=counting(fam.weight, "weight")))
    assert cli.main(["check", "--model", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["family"] == family
    assert calls == {"parse": n}


def test_an_in_range_crisp_row_read_cell_by_cell_is_kept(tmp_path, monkeypatch):
    # The crisp reader reads every row through `vector`, which goes cell by
    # cell past an int. Within [-1, 1] the row still comes back read, so
    # Model reads no weight cell of it; out of range it stays plain, and
    # Model raises the range error naming the cell.
    n = 6
    doc = seeded_doc("fcm", n, seed=34)
    doc["weights"][1][2] = -1.0
    floats = tmp_path / "floats.json"
    floats.write_text(json.dumps(doc))
    doc["weights"][1][2] = -1
    ints = tmp_path / "ints.json"
    ints.write_text(json.dumps(doc))
    doc["weights"][1][4] = 1.5
    out = tmp_path / "out.json"
    out.write_text(json.dumps(doc))
    calls = Counter()
    fam = FAMILY["fcm"]

    def counting(x):
        calls["weight"] += 1
        return fam.weight(x)

    monkeypatch.setitem(FAMILY, "fcm", fam._replace(weight=counting))
    m = gc.load_model(ints)
    assert calls == Counter()
    assert m == gc.load_model(floats) and type(m.weights[1][2]) is float
    with pytest.raises(gc.ValidationError, match=r"^weights\[2\]\[5\]: weight 1.5 outside"):
        gc.load_model(out)
    assert calls == {"weight": 5}


@pytest.mark.parametrize("family", gc.FAMILIES)
@pytest.mark.parametrize("declined", [False, True], ids=["whole rows", "an int in row 2"])
def test_a_model_holds_plain_tuple_rows_however_it_was_built(family, declined, tmp_path,
                                                             monkeypatch):
    # The row readers' marker of a row read already stays inside Model:
    # every row of a Model from parse_model, from a sweep rebuild, and from
    # pickle and copy is a plain tuple, and the Model equals the one built
    # from plain rows, each read under the family's weight rule.
    doc = seeded_doc(family, 6, seed=27)
    if declined:
        doc["weights"][1][0] = 0
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    built = []
    real_simulate = cli.simulate

    def recording(m, steps):
        built.append(m)
        return real_simulate(m, steps)

    monkeypatch.setattr(cli, "simulate", recording)
    assert cli.main(["sweep", "--model", str(path), "--lambdas", "0.5,2",
                     "--out-dir", str(tmp_path / "sweep")]) == 0
    assert [m.lam for m in built] == [0.5, 2.0]
    read = gc.parse_model(doc)
    models = [read, *built, pickle.loads(pickle.dumps(read)), copy.copy(read),
              copy.deepcopy(read)]
    for m in models:
        assert {type(row) for row in m.weights} == {tuple}
        plain = gc.Model(family, list(m.node_names), [list(row) for row in m.weights],
                         list(m.initial), m.lam)
        assert m == plain and hash(m) == hash(plain)
        assert repr(m) == repr(plain)
