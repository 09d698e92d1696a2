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
output alike.  :func:`canonical_dumps` indents the envelope, its blocks and
their fields, and writes every value below them (a candidate, a check, a
stratum) on one line through the stdlib's C encoder, with
:func:`to_jsonable` as its ``default`` hook; a census candidate's line comes
from one format string that writes the encoder's text.  :func:`input_sha256` hashes
the input document's fully indented canonical text, which the layout does
not change, with CPython's built-in SHA-256: :mod:`hashlib` would load
OpenSSL's libcrypto into every exact command for one digest.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .cohomology import BundleData, CohClass2, FourManifold, SpincStructure
from .reductions import CurvatureBounds, ReductionCandidate, identity_metric

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


# an array of these items is accepted in one pass when every item is an int
_INTEGER = {"type": "integer"}


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
    if "items" in schema and not (schema["items"] == _INTEGER and all(type(x) is int for x in value)):
        for i, item in enumerate(value):  # also the walk that names the first bad item
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
    if type(obj) is Fraction or isinstance(obj, Fraction):  # the exact type skips the ABC check
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
        return {name: getattr(obj, name) for name in _field_names(type(obj))}
    raise TypeError(f"cannot serialize {type(obj).__name__}")


@functools.cache
def _field_names(cls: type) -> tuple[str, ...]:
    """The fields :func:`to_jsonable` writes of a dataclass type, in order: all but ``raw``."""
    return tuple(f.name for f in dataclasses.fields(cls) if f.name != "raw")


# the stdlib's C encoder, compact: every row of a report, and every scalar
_ROW = json.JSONEncoder(sort_keys=True, separators=(", ", ": "), allow_nan=False, default=to_jsonable).encode
# containers shallower than this are indented; a value at this depth is one row
_ROW_DEPTH = 3
# what the encoder writes without the hook, besides None
_JSON_NATIVE = (str, int, float, list, tuple, dict)


def _field_text(value) -> str | bool:
    """``_ROW(value)`` for a tuple of exact ``int``s, a finite ``float`` or a ``Fraction``; else ``False``.

    Such a value holds nothing but numbers, so its text is the same wherever
    it stands in a row.  ``False`` also stands for a value the encoder
    refuses (an integer past the digit limit), whose error the whole row
    states.
    """
    kind = type(value)
    try:
        if kind is tuple and set(map(type, value)) <= {int}:
            return repr(list(value))  # a list of exact ints prints as its JSON text
        if kind is float and math.isfinite(value):
            return repr(value)
        if kind is Fraction:
            return _ROW(value)
    except ValueError:
        pass
    return False


# a census candidate's fields in the encoder's (sorted) key order
_CANDIDATE_FIELDS = operator.attrgetter(*sorted(_field_names(ReductionCandidate)))


def _candidate_rows(candidates):
    """``_ROW(c)`` for each census candidate ``c`` in turn, most of them from one f-string.

    A candidate whose eight scalar fields are exact ``int``s, whose classes
    are tuples of exact ``int``s, whose ``c1_norm`` is a finite ``float``
    and whose ``tau`` is a ``Fraction`` is written by one f-string in the
    encoder's key order.  Each class, norm and tau object is formatted once
    per call, by :func:`_field_text`, and its text memoized by ``id()``: the
    census shares one class tuple and one norm per ball point and one
    ``tau`` per rank, and ``candidates`` keeps every one alive for the whole
    call.  A key by value would be wrong, since ``(1, 0) == (True, 0)`` and
    ``0.0 == -0.0`` are written differently.  Any other candidate is
    ``_ROW(c)`` itself, text and error alike.
    """
    memo: dict[int, str | bool] = {}
    get = memo.get

    def text(value):
        memo[id(value)] = field = _field_text(value)
        return field

    for c in candidates:
        c1, norm, c2, perp, perp_c2, perp_rank, asd, un, rank, k, tau, total = _CANDIDATE_FIELDS(c)
        c1_text = get(id(c1)) or text(c1)
        norm_text = get(id(norm)) or text(norm)
        perp_text = get(id(perp)) or text(perp)
        tau_text = get(id(tau)) or text(tau)
        if (
            c1_text and norm_text and perp_text and tau_text
            and tuple is type(c1) is type(perp) and float is type(norm) and Fraction is type(tau)
            and int is type(c2) is type(perp_c2) is type(perp_rank) is type(asd) is type(un)
            is type(rank) is type(k) is type(total)
        ):
            # the encoder's key order, so an integer past the digit limit raises where the encoder's would
            yield (
                f'{{"c1": {c1_text}, "c1_norm": {norm_text}, "c2": {c2}, "complement_c1": {perp_text}, '
                f'"complement_c2": {perp_c2}, "complement_rank": {perp_rank}, "dim_asd_part": {asd}, '
                f'"dim_un_part": {un}, "rank": {rank}, "stratum_k": {k}, "tau": {tau_text}, "total_dim": {total}}}'
            )
        else:
            yield _ROW(c)


def _layout(obj, nl: str, depth: int, out: list[str]) -> None:
    """Append the canonical text of ``obj`` to ``out``; ``nl`` is the newline and indent of the line it starts on."""
    if depth < _ROW_DEPTH:
        hooked = []  # what the hook converted here, kept alive so that ``is`` finds a cycle through it
        while not (obj is None or isinstance(obj, _JSON_NATIVE) or any(obj is h for h in hooked)):
            hooked.append(obj)
            obj = to_jsonable(obj)
        inner = nl + "  "
        if isinstance(obj, (list, tuple)) and obj:
            sep, comma = "[" + inner, "," + inner
            if depth == _ROW_DEPTH - 1 and all(type(x) is ReductionCandidate for x in obj):
                for row in _candidate_rows(obj):  # appended in turn: the block is never joined on its own
                    out.append(sep)
                    out.append(row)
                    sep = comma
            else:
                for x in obj:
                    out.append(sep)
                    _layout(x, inner, depth + 1, out)
                    sep = comma
            out.append(nl + "]")
            return
        if isinstance(obj, dict) and obj and all(isinstance(k, str) for k in obj):
            sep, comma = "{" + inner, "," + inner
            for k, v in sorted(obj.items()):
                out.append(sep + _ROW(k) + ": ")
                _layout(v, inner, depth + 1, out)
                sep = comma
            out.append(nl + "}")
            return
    out.append(_ROW(obj))


def canonical_dumps(obj: Any) -> str:
    """Deterministic strict JSON text: sorted keys, fixed separators, one row per line.

    Containers at depths 0-2 (the envelope, its blocks and their fields)
    are indented by 2 spaces.  Every value below them (a candidate, a
    check, a stratum) is one ``_ROW`` line, the stdlib's C encoder, and so
    is a dict whose keys are not all strings; any other value above them
    passes :func:`to_jsonable` first.  Read each line break after a comma
    as a space and drop the other breaks and indents, and the text is the
    C encoder's for the whole ``obj``; so are its errors, among them the
    ``ValueError`` for a non-finite float or a circular structure.

    A census's rows, a list of :class:`ReductionCandidate` one level above
    the rows, come from :func:`_candidate_rows`: one format string per row,
    with each class, norm and tau formatted once per report, and the same
    text as the C encoder's; a candidate of other field types is a
    ``_ROW`` line as above.

    The pieces (the rows and the indents between them) go into one list,
    joined once at the end, so the text is copied once whatever its depth.
    """
    out: list[str] = []
    _layout(obj, "\n", 0, out)
    return "".join(out)


try:
    from _sha2 import sha256 as _sha256  # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256 as _sha256


def input_sha256(doc: Any) -> str:
    """SHA-256 of the input document's fully indented canonical text, whatever the report layout."""
    text = json.dumps(doc, sort_keys=True, indent=2, separators=(",", ": "), allow_nan=False, default=to_jsonable)
    return _sha256(text.encode("utf-8")).hexdigest()
