"""Problem-file parsing and canonical JSON serialization.

Input documents describe a manifold, a Spin^c class and a bundle, plus
optional curvature bounds and run options.  Their format is stated once, in
:func:`problem_schema`; the parser walks it and names the first field that
breaks it by its JSON path, quoting the offending value as its JSON token
(``null``, ``true``, ``"Identity"``), cut short past 40 characters.
Unknown keys are refused, a boolean is no integer, every float is refused
where an integer is expected, a number must convert to a finite float, and
rationals may be written as integers or ``{"num": p, "den": q}`` objects.

Serialization is canonical so identical inputs and seeds produce
byte-identical reports: keys are sorted, exact rationals are emitted as
``{"num", "den"}`` objects rather than corrupted to floats, complex numbers
as ``{"re", "im"}``, and floats through their shortest round-trip repr.
Reports are strict JSON: ``NaN`` and infinities are refused on input and
output alike.  :func:`canonical_dumps` is a direct encoder that walks each
report once and builds every container with one ``str.join``; it calls
:func:`to_jsonable` only for a value it cannot encode, which the hook
turns into one level of encodable structure.  Its text is, byte for byte,
that of ``json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": "),
allow_nan=False, default=to_jsonable)``, whose indented form runs the
stdlib's pure-Python encoder at about twice the cost;
``tests/test_jsonio_cli.py::TestEncoderOracle`` holds it to that call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .cohomology import BundleData, CohClass2, FourManifold, SpincStructure
from .reductions import CurvatureBounds, identity_metric

__all__ = [
    "ValidationError",
    "Problem",
    "RunOptions",
    "parse_problem",
    "parse_metric",
    "load_problem",
    "problem_schema",
    "to_jsonable",
    "canonical_dumps",
    "input_sha256",
]


class ValidationError(ValueError):
    """Invalid problem document; ``path`` names the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


# the JSON types problem_schema names: the Python types json.load gives them, and their noun
_JSON_TYPES = {
    "object": (dict, "a JSON object"),
    "array": (list, "a JSON array"),
    "string": (str, "a string"),
    "integer": (int, "an integer"),
    "number": ((int, float), "a finite number"),
}


def _fits(schema: dict, value) -> bool:
    """Whether ``value`` has the schema's JSON ``type`` and is its ``const`` or in its ``enum``.

    A boolean is no number and equals none, and ``2.0`` is no integer.
    """
    kind = schema.get("type")
    if kind is not None and (type(value) is bool or not isinstance(value, _JSON_TYPES[kind][0])):
        return False
    allowed = [schema["const"]] if "const" in schema else schema.get("enum")
    if allowed is not None and not any(type(value) is type(x) and value == x for x in allowed):
        return False
    if kind != "number":
        return True
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _describe(schema: dict) -> str:
    """What ``schema`` admits, in words, for an error message."""
    if "const" in schema:
        return json.dumps(schema["const"])
    return f"one of {json.dumps(schema['enum'])}" if "enum" in schema else _JSON_TYPES[schema["type"]][1]


# an offending value is quoted in an error message up to this many characters
_TOKEN_CHARS = 40


def _token(value) -> str:
    """``value`` as its JSON token for an error message, cut with ``...`` past :data:`_TOKEN_CHARS`."""
    text = json.dumps(value)
    return text if len(text) <= _TOKEN_CHARS else text[: _TOKEN_CHARS - 3] + "..."


def _validate(schema: dict, value, path: str) -> None:
    """Raise :class:`ValidationError` at the JSON path where ``value`` first breaks ``schema``.

    Reads the keywords :func:`problem_schema` uses: ``oneOf``, whose
    branches differ in their ``type`` or ``const`` (the branch that fits
    the value is walked), ``type``, ``const``, ``enum``, ``minimum``,
    ``items``, and ``properties`` with its ``required`` and
    ``additionalProperties: false``.  Annotations such as ``title`` are
    ignored.
    """
    if "oneOf" in schema:
        branches = [b for b in schema["oneOf"] if _fits(b, value)]
        if not branches:
            wanted = " or ".join(_describe(b) for b in schema["oneOf"])
            raise ValidationError(path, f"expected {wanted}, got {_token(value)}")
        _validate(branches[0], value, path)
    if not _fits(schema, value):
        raise ValidationError(path, f"expected {_describe(schema)}, got {_token(value)}")
    if "minimum" in schema and value < schema["minimum"]:
        raise ValidationError(path, f"must be >= {schema['minimum']}, got {_token(value)}")
    if "items" in schema:
        for i, item in enumerate(value):
            _validate(schema["items"], item, f"{path}[{i}]")
    known = schema.get("properties")
    if known is not None:
        if schema.get("additionalProperties") is False:
            unknown = sorted(set(value) - set(known))
            if unknown:
                raise ValidationError(
                    path, f"unknown keys {_token(unknown)}; allowed keys {json.dumps(sorted(known))}"
                )
        for key in schema.get("required", ()):
            if key not in value:
                raise ValidationError(f"{path}.{key}", "missing required field")
        for key, sub in known.items():
            if key in value:
                _validate(sub, value[key], f"{path}.{key}")


def _rational(value, path: str) -> Fraction:
    """A rational the schema admitted: an integer, or ``{"num", "den"}`` with a nonzero ``den``."""
    if isinstance(value, int):
        return Fraction(value)
    if value["den"] == 0:
        raise ValidationError(f"{path}.den", "denominator must be nonzero")
    return Fraction(value["num"], value["den"])


@dataclass(frozen=True)
class RunOptions:
    """Optional knobs a problem file may carry; CLI flags override these."""

    dirac_multiplicity: int = 2
    kmax: int = 0


@dataclass(frozen=True)
class Problem:
    manifold: FourManifold
    spinc: SpincStructure
    bundle: BundleData
    bounds: CurvatureBounds | None
    options: RunOptions
    raw: dict


def problem_schema() -> dict:
    """The published JSON schema for problem documents."""
    rational = {
        "oneOf": [
            {"type": "integer"},
            {
                "type": "object",
                "properties": {"num": {"type": "integer"}, "den": {"type": "integer"}},
                "required": ["num", "den"],
                "additionalProperties": False,
            },
        ]
    }
    return {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "title": "monopoles problem description",
        "type": "object",
        "additionalProperties": False,
        "required": ["manifold", "spinc", "bundle"],
        "properties": {
            "manifold": {
                "type": "object",
                "additionalProperties": False,
                "required": ["name", "b1", "intersection_form"],
                "properties": {
                    "name": {"type": "string"},
                    "b1": {"type": "integer", "minimum": 0},
                    "b2plus": {"type": "integer", "minimum": 0},
                    "intersection_form": {
                        "type": "array",
                        "items": {"type": "array", "items": {"type": "integer"}},
                    },
                },
            },
            "spinc": {
                "type": "object",
                "additionalProperties": False,
                "required": ["c1"],
                "properties": {"c1": {"type": "array", "items": {"type": "integer"}}},
            },
            "bundle": {
                "type": "object",
                "additionalProperties": False,
                "required": ["rank", "c1", "c2"],
                "properties": {
                    "rank": {"type": "integer", "minimum": 1},
                    "c1": {"type": "array", "items": {"type": "integer"}},
                    "c2": {"type": "integer"},
                },
            },
            "bounds": {
                "type": "object",
                "additionalProperties": False,
                "required": ["c_trace", "c_plus", "c_minus"],
                "properties": {
                    "c_trace": {"type": "number", "minimum": 0},
                    "c_plus": {"type": "number", "minimum": 0},
                    "c_minus": {"type": "number", "minimum": 0},
                    "g": {
                        "oneOf": [
                            {"const": "identity"},
                            {"type": "array", "items": {"type": "array", "items": rational}},
                        ]
                    },
                },
            },
            "options": {
                "type": "object",
                "additionalProperties": False,
                "properties": {
                    "dirac_multiplicity": {"enum": [1, 2]},
                    "kmax": {"type": "integer", "minimum": 0},
                },
            },
        },
    }


def _metric(g, b2: int, path: str) -> tuple[tuple[Fraction, ...], ...]:
    """The metric the schema admitted at ``path``, as a ``b2 x b2`` matrix of rationals."""
    if g == "identity":
        return identity_metric(b2)
    rows = tuple(tuple(_rational(x, f"{path}[{i}][{j}]") for j, x in enumerate(row)) for i, row in enumerate(g))
    if len(rows) != b2 or any(len(r) != b2 for r in rows):
        raise ValidationError(path, f"expected a {b2}x{b2} matrix")
    return rows


def parse_metric(g: Any, b2: int, path: str) -> tuple[tuple[Fraction, ...], ...]:
    """A ``b2 x b2`` harmonic metric at ``path``, in the form of the schema's ``bounds.g``."""
    _validate(problem_schema()["properties"]["bounds"]["properties"]["g"], g, path)
    return _metric(g, b2, path)


def parse_problem(doc: Any) -> Problem:
    """Validate a problem document against :func:`problem_schema`, then build it.

    The schema walk checks every key, type and minimum.  What a schema
    cannot state is checked while building: class lengths against ``b2``,
    nonzero denominators and the metric's size at their field; ``b2plus``
    against the form, the line-bundle rule and metric positivity in the
    constructors, reported at their block.
    """
    _validate(problem_schema(), doc, "$")
    mdoc, sdoc, bdoc = doc["manifold"], doc["spinc"], doc["bundle"]
    try:
        manifold = FourManifold(mdoc["name"], mdoc["b1"], mdoc["intersection_form"], mdoc.get("b2plus"))
    except ValueError as exc:
        raise ValidationError("$.manifold", str(exc)) from None
    for path, c1 in (("$.spinc.c1", sdoc["c1"]), ("$.bundle.c1", bdoc["c1"])):
        if len(c1) != manifold.b2:
            raise ValidationError(path, f"length {len(c1)} does not match b2={manifold.b2}")
    spinc = SpincStructure(sdoc["c1"])
    try:
        bundle = BundleData(bdoc["rank"], bdoc["c1"], bdoc["c2"])
    except ValueError as exc:
        raise ValidationError("$.bundle", str(exc)) from None

    bounds = None
    if "bounds" in doc:
        kdoc = doc["bounds"]
        metric = _metric(kdoc.get("g", "identity"), manifold.b2, "$.bounds.g")
        try:
            bounds = CurvatureBounds(kdoc["c_trace"], kdoc["c_plus"], kdoc["c_minus"], metric)
        except ValueError as exc:
            raise ValidationError("$.bounds", str(exc)) from None

    return Problem(manifold, spinc, bundle, bounds, RunOptions(**doc.get("options", {})), raw=doc)


def _read_json(path: str, field: str) -> Any:
    """The JSON document in the file at ``path``; text that is not UTF-8 JSON is an error at ``field``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # also an integer literal beyond Python's 4300-digit limit
            raise ValidationError(field, f"malformed JSON: {exc}") from None


def load_problem(path: str) -> Problem:
    return parse_problem(_read_json(path, "$"))


def to_jsonable(obj: Any) -> Any:
    """The ``default`` hook of :func:`canonical_dumps`: one level of encodable structure.

    The encoder calls it only for values it cannot encode itself, and
    encodes what it returns, recursing into it: the hook never recurses.
    Dict keys never reach the hook, so reports key their dicts by strings.
    """
    if isinstance(obj, Fraction):
        if obj.denominator == 1:
            return int(obj)
        return {"num": obj.numerator, "den": obj.denominator}
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    # a numpy value exists only once numpy is imported, so this module never imports it
    np = sys.modules.get("numpy")
    if np is not None and isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    if isinstance(obj, CohClass2):
        return obj.coeffs
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj) if f.name != "raw"}
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# the stdlib encoder's scalar spellings, which canonical_dumps reproduces
_quote = json.encoder.encode_basestring_ascii
_int_text = int.__repr__


def _float_text(x: float) -> str:
    if math.isfinite(x):
        return float.__repr__(x)
    raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")


def _key_text(key) -> str:
    """A dict key that is not exactly a ``str``, quoted as the stdlib encoder spells it."""
    if isinstance(key, str):
        return _quote(key)
    if isinstance(key, float):
        return _quote(_float_text(key))
    if key is True or key is False or key is None:
        return _quote(json.dumps(key))
    if isinstance(key, int):
        return _quote(_int_text(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _encode(obj, nl: str) -> str:
    """The canonical text of ``obj``; ``nl`` is the newline and indent of the line it starts on.

    Exact types are dispatched first; subclasses then take the stdlib
    encoder's ``isinstance`` order, and anything else goes to the hook.
    """
    kind = type(obj)
    if kind is str:
        return _quote(obj)
    if kind is int:
        return _int_text(obj)
    if kind is float:
        return _float_text(obj)
    if kind is list or kind is tuple:
        return _encode_array(obj, nl)
    if kind is dict:
        return _encode_object(obj, nl)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, int):
        return _int_text(obj)
    if isinstance(obj, float):
        return _float_text(obj)
    if isinstance(obj, (list, tuple)):
        return _encode_array(obj, nl)
    if isinstance(obj, dict):
        return _encode_object(obj, nl)
    return _encode(to_jsonable(obj), nl)


_PLAIN_INTS = {int}


def _encode_array(items, nl: str) -> str:
    if not items:
        return "[]"
    inner = nl + "  "
    if set(map(type, items)) == _PLAIN_INTS:  # a class's coefficients: most arrays of a census
        body = map(_int_text, items)
    else:
        body = [_encode(x, inner) for x in items]
    return "[" + inner + ("," + inner).join(body) + nl + "]"


def _encode_object(mapping, nl: str) -> str:
    if not mapping:
        return "{}"
    inner = nl + "  "
    body = [
        (_quote(k) if type(k) is str else _key_text(k)) + ": " + _encode(v, inner)
        for k, v in sorted(mapping.items())
    ]
    return "{" + inner + ("," + inner).join(body) + nl + "}"


def canonical_dumps(obj: Any) -> str:
    """Deterministic strict JSON text: sorted keys, fixed separators, 2-space indent.

    The text is that of ``json.dumps(obj, sort_keys=True, indent=2,
    separators=(",", ": "), allow_nan=False, default=to_jsonable)``, errors
    included: strings are ASCII-escaped as ``encode_basestring_ascii`` does,
    ints and floats spelled by ``int.__repr__`` and ``float.__repr__`` (also
    for their subclasses), non-string keys as the stdlib converts them, and
    a non-finite float raises ``ValueError`` instead of becoming a bare
    ``NaN``/``Infinity`` token that strict JSON parsers reject.
    :func:`to_jsonable` is the hook for package objects, so the report is
    walked once.  The encoder keeps no record of the containers it is
    inside: a circular structure recurses until ``RecursionError``, and only
    then does the stdlib encoder, whose markers find the cycle, take over to
    raise its ``ValueError("Circular reference detected")``, or to encode a
    structure that is merely deep.
    """
    try:
        return _encode(obj, "\n")
    except RecursionError:
        return json.dumps(
            obj, sort_keys=True, indent=2, separators=(",", ": "), allow_nan=False, default=to_jsonable
        )


def input_sha256(doc: Any) -> str:
    """Hash of the canonical form of an input document."""
    return hashlib.sha256(canonical_dumps(doc).encode("utf-8")).hexdigest()
