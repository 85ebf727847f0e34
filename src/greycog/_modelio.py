"""Model-file codec.

A model file is a JSON document:

    {
      "family":  "fcm" | "fgcm" | "fggcm",
      "lambda":  number,
      "nodes":   [name, ...],
      "weights": [[cell, ...], ...],
      "initial": [cell, ...]
    }

Cell encodings by family:

    fcm     number
    fgcm    number (lifts to [x, x]) or {"interval": [lo, hi]}
    fggcm   number (lifts to kernel x, greyness 0),
            {"kernel": k, "greyness": g},
            or {"union": [[lo, hi], ...]} reduced on load

Within a cell, unknown keys, encodings that do not match the family, and
values that are no finite number (`"0.5"`, `true`, `null`, `[0.5]`, an
integer literal beyond the float range, `1e400`, `NaN`) are parse errors.
A top-level key beyond the five above is ignored.

A path is a str, bytes or `os.PathLike`; any other value (an int, which
`open` would take as a file descriptor and close, a bool or None) raises
InvalidParameterError before anything is opened.

A document is read in one pass: each weight row, then the initial state,
by its family's `row` reader (see `_family`), then `Model`, which keeps
the rows the reader took whole and range-checks the others.
So the first error is the one the per-cell rules raise: malformed
weights, malformed initial cells, the weight range, then lambda, node
names and shapes.
"""

from __future__ import annotations

import json
import os

from ._family import FAMILY, family_of, finite, positive
from .cogmap import Model, _paused
from .errors import InvalidParameterError, MalformedInputError, ValidationError

__all__ = ["load_model", "model_to_doc", "parse_model", "save_doc"]


@_paused
def parse_model(doc, lam=None) -> Model:
    """Parse a model document into a validated Model.

    Structural problems raise MalformedInputError; a structurally sound
    document that violates model invariants raises ValidationError from
    the Model constructor. Only the JSON shape is checked here (dict
    keys, interval arity, a union being a list); each number is checked
    once, where it becomes a float: in the family's `row` reader, a cell
    constructor, the fcm cell parser or, for `lambda`, `finite`.

    A lam given overrides the document's `lambda`, so the Model is built
    and checked once. The document's own value must still be a positive
    finite number.
    """
    if not isinstance(doc, dict):
        raise MalformedInputError("model file must contain a JSON object")
    missing = {"family", "lambda", "nodes", "weights", "initial"} - set(doc)
    if missing:
        raise MalformedInputError(f"model file missing keys: {', '.join(sorted(missing))}")
    family = doc["family"]
    fam = family_of(family, MalformedInputError)
    file_lam = finite(doc["lambda"], MalformedInputError, "'lambda'")
    nodes = doc["nodes"]
    if not (isinstance(nodes, list) and nodes
            and all(isinstance(s, str) for s in nodes)):
        raise MalformedInputError("'nodes' must be a nonempty list of strings")
    weights = doc["weights"]
    if not (isinstance(weights, list) and all(isinstance(r, list) for r in weights)):
        raise MalformedInputError("'weights' must be a list of rows")
    rows = tuple(fam.row(row, f"weights[{i}]") for i, row in enumerate(weights, 1))
    if not isinstance(doc["initial"], list):
        raise MalformedInputError("'initial' must be a list")
    initial = fam.row(doc["initial"], "initial")
    m = Model(family, tuple(nodes), rows, initial, file_lam if lam is None else lam)
    positive(file_lam, ValidationError)
    return m


def model_to_doc(m: Model) -> dict:
    """Document for an existing Model, full double precision."""
    enc = FAMILY[m.family].encode
    return {
        "family": m.family,
        "lambda": m.lam,
        "nodes": list(m.node_names),
        "weights": [list(map(enc, row)) for row in m.weights],
        "initial": list(map(enc, m.initial)),
    }


def _path(path):
    """path as `os.fspath` reads it; any other value raises InvalidParameterError."""
    if isinstance(path, os.PathLike):
        path = type(path).__fspath__(path)
    if isinstance(path, (str, bytes)):
        return path
    raise InvalidParameterError(
        f"a path must be a str, bytes or os.PathLike, got {type(path).__name__}")


@_paused
def load_model(path, lam=None) -> Model:
    """The model in a model file; lam as in `parse_model`."""
    path = _path(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise MalformedInputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, an integer literal past the interpreter's digit
        # limit for int(), or arrays or objects nested past the decoder's depth.
        raise MalformedInputError(f"{path} is not valid JSON: {exc}") from exc
    return parse_model(doc, lam)


def save_doc(doc: dict, path) -> None:
    """doc as indented JSON in the file at path (see `_path`)."""
    with open(_path(path), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
