"""Problem-file parsing and canonical JSON serialization.

Input documents describe a manifold, a Spin^c class and a bundle, plus
optional curvature bounds and run options.  Validation is strict: unknown
keys are rejected with the offending path, integers must be genuine
integers (booleans and floats with fractional part are refused), and
rationals may be written as integers or ``{"num": p, "den": q}`` objects.

Serialization is canonical so identical inputs and seeds produce
byte-identical reports: keys are sorted, exact rationals are emitted as
``{"num", "den"}`` objects rather than corrupted to floats, complex numbers
as ``{"re", "im"}``, and floats through their shortest round-trip repr.
Reports are strict JSON: ``NaN`` and infinities are refused on input and
output alike.  The JSON encoder walks each report once: it recurses
through dicts, lists and tuples itself and calls :func:`to_jsonable` only
for a value it cannot encode, which the hook turns into one level of
encodable structure.
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


def _require_mapping(doc, path):
    if not isinstance(doc, dict):
        raise ValidationError(path, "expected a JSON object")
    return doc


def _reject_unknown(doc: dict, allowed: set[str], path: str):
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ValidationError(path, f"unknown keys {unknown}; allowed keys {sorted(allowed)}")


def _get(doc: dict, key: str, path: str, required=True, default=None):
    if key not in doc:
        if required:
            raise ValidationError(f"{path}.{key}", "missing required field")
        return default
    return doc[key]


def _int_field(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(path, f"expected an integer, got {value!r}")
    return value


def _number_field(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(path, f"expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ValidationError(path, f"expected a finite number, got {value!r}")
    return float(value)


def _rational_field(value, path: str) -> Fraction:
    if isinstance(value, bool):
        raise ValidationError(path, "expected a rational number")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, dict):
        _reject_unknown(value, {"num", "den"}, path)
        num = _int_field(_get(value, "num", path), f"{path}.num")
        den = _int_field(_get(value, "den", path), f"{path}.den")
        if den == 0:
            raise ValidationError(f"{path}.den", "denominator must be nonzero")
        return Fraction(num, den)
    raise ValidationError(path, f"expected an integer or {{num, den}} object, got {value!r}")


def _int_vector(value, path: str) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise ValidationError(path, "expected a list of integers")
    return tuple(_int_field(v, f"{path}[{i}]") for i, v in enumerate(value))


def _int_matrix(value, path: str) -> tuple[tuple[int, ...], ...]:
    if not isinstance(value, list):
        raise ValidationError(path, "expected a list of rows (possibly empty for b2 = 0)")
    return tuple(_int_vector(row, f"{path}[{i}]") for i, row in enumerate(value))


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


def parse_metric(g: Any, b2: int, path: str) -> tuple[tuple[Fraction, ...], ...]:
    """A ``b2 x b2`` harmonic metric: ``"identity"`` or a matrix of rationals at ``path``."""
    if g == "identity":
        return identity_metric(b2)
    if not isinstance(g, list):
        raise ValidationError(path, "expected \"identity\" or a matrix of rationals")
    rows = []
    for i, row in enumerate(g):
        if not isinstance(row, list):
            raise ValidationError(f"{path}[{i}]", "expected a list of rationals")
        rows.append(tuple(_rational_field(x, f"{path}[{i}][{j}]") for j, x in enumerate(row)))
    if len(rows) != b2 or any(len(r) != b2 for r in rows):
        raise ValidationError(path, f"expected a {b2}x{b2} matrix")
    return tuple(rows)


def parse_problem(doc: Any) -> Problem:
    """Validate a problem document against the published schema, strictly."""
    doc = _require_mapping(doc, "$")
    _reject_unknown(doc, {"manifold", "spinc", "bundle", "bounds", "options"}, "$")

    mdoc = _require_mapping(_get(doc, "manifold", "$"), "$.manifold")
    _reject_unknown(mdoc, {"name", "b1", "b2plus", "intersection_form"}, "$.manifold")
    name = _get(mdoc, "name", "$.manifold")
    if not isinstance(name, str):
        raise ValidationError("$.manifold.name", "expected a string")
    b1 = _int_field(_get(mdoc, "b1", "$.manifold"), "$.manifold.b1")
    form = _int_matrix(_get(mdoc, "intersection_form", "$.manifold"), "$.manifold.intersection_form")
    b2plus = _get(mdoc, "b2plus", "$.manifold", required=False)
    if b2plus is not None:
        b2plus = _int_field(b2plus, "$.manifold.b2plus")
    try:
        manifold = FourManifold(name, b1, form, b2plus)
    except ValueError as exc:
        raise ValidationError("$.manifold", str(exc)) from None

    sdoc = _require_mapping(_get(doc, "spinc", "$"), "$.spinc")
    _reject_unknown(sdoc, {"c1"}, "$.spinc")
    c1s = _int_vector(_get(sdoc, "c1", "$.spinc"), "$.spinc.c1")
    if len(c1s) != manifold.b2:
        raise ValidationError("$.spinc.c1", f"length {len(c1s)} does not match b2={manifold.b2}")
    spinc = SpincStructure(CohClass2(c1s))

    bdoc = _require_mapping(_get(doc, "bundle", "$"), "$.bundle")
    _reject_unknown(bdoc, {"rank", "c1", "c2"}, "$.bundle")
    rank = _int_field(_get(bdoc, "rank", "$.bundle"), "$.bundle.rank")
    c1 = _int_vector(_get(bdoc, "c1", "$.bundle"), "$.bundle.c1")
    if len(c1) != manifold.b2:
        raise ValidationError("$.bundle.c1", f"length {len(c1)} does not match b2={manifold.b2}")
    c2 = _int_field(_get(bdoc, "c2", "$.bundle"), "$.bundle.c2")
    try:
        bundle = BundleData(rank, CohClass2(c1), c2)
    except ValueError as exc:
        raise ValidationError("$.bundle", str(exc)) from None

    bounds = None
    if "bounds" in doc:
        kdoc = _require_mapping(doc["bounds"], "$.bounds")
        _reject_unknown(kdoc, {"c_trace", "c_plus", "c_minus", "g"}, "$.bounds")
        c_trace = _number_field(_get(kdoc, "c_trace", "$.bounds"), "$.bounds.c_trace")
        c_plus = _number_field(_get(kdoc, "c_plus", "$.bounds"), "$.bounds.c_plus")
        c_minus = _number_field(_get(kdoc, "c_minus", "$.bounds"), "$.bounds.c_minus")
        metric = parse_metric(kdoc.get("g", "identity"), manifold.b2, "$.bounds.g")
        try:
            bounds = CurvatureBounds(c_trace, c_plus, c_minus, metric)
        except ValueError as exc:
            raise ValidationError("$.bounds", str(exc)) from None

    odoc = doc.get("options", {})
    odoc = _require_mapping(odoc, "$.options")
    _reject_unknown(odoc, {"dirac_multiplicity", "kmax"}, "$.options")
    defaults = RunOptions()
    mult = _int_field(
        odoc.get("dirac_multiplicity", defaults.dirac_multiplicity),
        "$.options.dirac_multiplicity",
    )
    if mult not in (1, 2):
        raise ValidationError("$.options.dirac_multiplicity", "must be 1 or 2")
    kmax = _int_field(odoc.get("kmax", defaults.kmax), "$.options.kmax")
    if kmax < 0:
        raise ValidationError("$.options.kmax", "must be nonnegative")
    options = RunOptions(mult, kmax)

    return Problem(manifold, spinc, bundle, bounds, options, raw=doc)


def _read_json(path: str, field: str) -> Any:
    """The JSON document in the file at ``path``; text that is not UTF-8 JSON is an error at ``field``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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


def canonical_dumps(obj: Any) -> str:
    """Deterministic strict JSON text: sorted keys, fixed separators, 2-space indent.

    ``obj`` goes to the encoder as it is, with :func:`to_jsonable` as the
    hook for package objects, so the report is walked once.  Non-finite
    floats raise ``ValueError`` instead of becoming the bare
    ``NaN``/``Infinity`` tokens that strict JSON parsers reject.
    """
    return json.dumps(
        obj, sort_keys=True, indent=2, separators=(",", ": "), allow_nan=False, default=to_jsonable
    )


def input_sha256(doc: Any) -> str:
    """Hash of the canonical form of an input document."""
    return hashlib.sha256(canonical_dumps(doc).encode("utf-8")).hexdigest()
