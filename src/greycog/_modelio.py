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

Unknown keys, encodings that do not match the family, and numbers that do
not convert to a finite float (an integer literal beyond the float range,
`1e400`, `Infinity`, `NaN`) are parse errors.
"""

from __future__ import annotations

import json
import math

from .cogmap import Model
from .errors import MalformedInputError
from .grey_num import Ggn, GreyUnion, ggn_from_union
from .interval_num import Ign

__all__ = ["load_model", "model_to_doc", "parse_model", "save_doc"]


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _finite(x, where):
    """A number that passed `_is_number`, as a finite float."""
    try:
        v = float(x)
    except OverflowError:
        raise MalformedInputError(f"{where}: integer too large for a float") from None
    if not math.isfinite(v):
        raise MalformedInputError(f"{where}: non-finite number {v}")
    return v


def _parse_cell(family, raw, where):
    if _is_number(raw):
        v = _finite(raw, where)
        if family == "fcm":
            return v
        if family == "fgcm":
            return Ign(v, v)
        return Ggn(v, 0.0)
    if family == "fcm":
        raise MalformedInputError(f"{where}: fcm cells must be plain numbers")
    if not isinstance(raw, dict):
        raise MalformedInputError(f"{where}: expected a number or an object")
    if family == "fgcm":
        if set(raw) != {"interval"}:
            raise MalformedInputError(f"{where}: fgcm cells take an 'interval' object")
        pair = raw["interval"]
        if not (isinstance(pair, list) and len(pair) == 2
                and all(_is_number(v) for v in pair)):
            raise MalformedInputError(f"{where}: 'interval' must be [lo, hi]")
        lo, hi = (_finite(v, where) for v in pair)
        try:
            return Ign(lo, hi)
        except MalformedInputError as exc:
            raise MalformedInputError(f"{where}: {exc}") from exc
    if set(raw) == {"kernel", "greyness"}:
        if not (_is_number(raw["kernel"]) and _is_number(raw["greyness"])):
            raise MalformedInputError(f"{where}: kernel and greyness must be numbers")
        k, g = (_finite(raw[f], where) for f in ("kernel", "greyness"))
        try:
            return Ggn(k, g)
        except MalformedInputError as exc:
            raise MalformedInputError(f"{where}: {exc}") from exc
    if set(raw) == {"union"}:
        ivs = raw["union"]
        if not (isinstance(ivs, list) and ivs
                and all(isinstance(p, list) and len(p) == 2
                        and all(_is_number(v) for v in p) for p in ivs)):
            raise MalformedInputError(f"{where}: 'union' must be a list of [lo, hi]")
        ivs = tuple((_finite(p[0], where), _finite(p[1], where)) for p in ivs)
        try:
            return ggn_from_union(GreyUnion(ivs))
        except MalformedInputError as exc:
            raise MalformedInputError(f"{where}: {exc}") from exc
    raise MalformedInputError(
        f"{where}: fggcm cells take 'kernel'/'greyness' or 'union' objects"
    )


def parse_model(doc) -> Model:
    """Parse a model document into a validated Model.

    Structural problems raise MalformedInputError; a structurally sound
    document that violates model invariants raises ValidationError from
    the Model constructor.
    """
    if not isinstance(doc, dict):
        raise MalformedInputError("model file must contain a JSON object")
    missing = {"family", "lambda", "nodes", "weights", "initial"} - set(doc)
    if missing:
        raise MalformedInputError(f"model file missing keys: {', '.join(sorted(missing))}")
    family = doc["family"]
    if family not in ("fcm", "fgcm", "fggcm"):
        raise MalformedInputError(f"unknown family {family!r}")
    if not _is_number(doc["lambda"]):
        raise MalformedInputError("'lambda' must be a number")
    lam = _finite(doc["lambda"], "'lambda'")
    nodes = doc["nodes"]
    if not (isinstance(nodes, list) and nodes
            and all(isinstance(s, str) for s in nodes)):
        raise MalformedInputError("'nodes' must be a nonempty list of strings")
    weights = doc["weights"]
    if not (isinstance(weights, list) and all(isinstance(r, list) for r in weights)):
        raise MalformedInputError("'weights' must be a list of rows")
    rows = tuple(
        tuple(_parse_cell(family, cell, f"weights[{i + 1}][{j + 1}]")
              for j, cell in enumerate(row))
        for i, row in enumerate(weights)
    )
    initial_raw = doc["initial"]
    if not isinstance(initial_raw, list):
        raise MalformedInputError("'initial' must be a list")
    initial = tuple(
        _parse_cell(family, cell, f"initial[{i + 1}]")
        for i, cell in enumerate(initial_raw)
    )
    return Model(family, len(nodes), tuple(nodes), rows, initial, lam)


def model_to_doc(m: Model) -> dict:
    """Document for an existing Model, full double precision."""

    def enc(cell):
        if m.family == "fcm":
            return cell
        if m.family == "fgcm":
            return {"interval": [cell.lo, cell.hi]}
        return {"kernel": cell.kernel, "greyness": cell.greyness}

    return {
        "family": m.family,
        "lambda": m.lam,
        "nodes": list(m.node_names),
        "weights": [[enc(c) for c in row] for row in m.weights],
        "initial": [enc(c) for c in m.initial],
    }


def load_model(path) -> Model:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise MalformedInputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        # JSONDecodeError, or an integer literal past the interpreter's
        # digit limit for int().
        raise MalformedInputError(f"{path} is not valid JSON: {exc}") from exc
    return parse_model(doc)


def save_doc(doc: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
