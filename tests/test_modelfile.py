"""JSON model files: parsing, lifting, rejection."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

import greycog as gc


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
