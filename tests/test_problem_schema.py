"""The problem-file format has one statement: the schema walk against the hand-written parser it replaced.

``reference_parse_problem`` is the field-by-field parser the package once
had, kept here as an oracle the way ``oracle_to_jsonable`` is kept for the
serializer.  One mutation at one path of a valid document must be accepted
or refused by both parsers alike: equal problems where both accept, and an
error path of the package at least as deep as the reference's where both
refuse.  The reference's known faults, which the schema walk mends, are
listed as explicit cases.
"""

import copy
import json
import math
import re
from fractions import Fraction
from pathlib import Path
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monopoles import jsonio
from monopoles.cli import main
from monopoles.cohomology import BundleData, CohClass2, FourManifold, SpincStructure
from monopoles.jsonio import (
    Problem,
    RunOptions,
    ValidationError,
    load_problem,
    parse_metric,
    parse_problem,
    problem_schema,
)
from monopoles.reductions import CurvatureBounds, identity_metric

README = Path(__file__).resolve().parents[1] / "README.md"


# --- the reference parser: every key, type and minimum restated by hand ---


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


def reference_parse_metric(g: Any, b2: int, path: str) -> tuple[tuple[Fraction, ...], ...]:
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


def reference_parse_problem(doc: Any) -> Problem:
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
        metric = reference_parse_metric(kdoc.get("g", "identity"), manifold.b2, "$.bounds.g")
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


# --- valid documents, their paths, and one mutation at a path ---

HALF = {"num": 1, "den": 2}
BASES = {
    "hyperbolic, rational metric": {
        "manifold": {"name": "S2xS2", "b1": 0, "b2plus": 1, "intersection_form": [[0, 1], [1, 0]]},
        "spinc": {"c1": [0, 0]},
        "bundle": {"rank": 3, "c1": [1, 0], "c2": 1},
        "bounds": {"c_trace": 6.2832, "c_plus": 3, "c_minus": 9.5, "g": [[1, HALF], [HALF, 2]]},
        "options": {"dirac_multiplicity": 1, "kmax": 2},
    },
    "CP2#2-CP2bar, identity metric": {
        "manifold": {"name": "CP2#2-CP2bar", "b1": 0, "intersection_form": [[1, 0, 0], [0, -1, 0], [0, 0, -1]]},
        "spinc": {"c1": [1, 1, 1]},
        "bundle": {"rank": 2, "c1": [1, 0, 1], "c2": 2},
        "bounds": {"c_trace": 12, "c_plus": 4, "c_minus": 9, "g": "identity"},
        "options": {"kmax": 0},
    },
    "b2 = 0": {
        "manifold": {"name": "S4", "b1": 1, "intersection_form": []},
        "spinc": {"c1": []},
        "bundle": {"rank": 2, "c1": [], "c2": 1},
        "bounds": {"c_trace": 0, "c_plus": 0.5, "c_minus": 0.0},
    },
}
HUGE = 10**400  # an integer beyond the float range
REPLACEMENTS = [True, False, 0.5, 2.0, None, "x", -1, -0.5, HUGE, -HUGE, [], [0], {}, dict(HALF)]


def paths(node, path=()):
    """Every path into a JSON document, the root included, as tuples of keys and indices."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from paths(child, path + (key,))


def json_path(path) -> str:
    return "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)


def mutated(doc, path, mutation):
    """``doc`` with one mutation at ``path``: ``("delete",)``, ``("add",)`` or ``("replace", value)``."""
    doc = copy.deepcopy(doc)
    if mutation[0] == "replace" and not path:
        return copy.deepcopy(mutation[1])
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    if mutation[0] == "delete":
        del parent[path[-1]]
    elif mutation[0] == "add":
        (parent[path[-1]] if path else doc)["unexpected"] = 1
    else:
        parent[path[-1]] = copy.deepcopy(mutation[1])
    return doc


def mutations_at(doc, path):
    node = doc
    for step in path:
        node = node[step]
    found = [("replace", v) for v in REPLACEMENTS]
    if path and isinstance(path[-1], str):
        found.append(("delete",))
    if isinstance(node, dict):
        found.append(("add",))
    return found


def outcome(parse, doc):
    try:
        return parse(doc)
    except (ValueError, ArithmeticError) as exc:  # a ValidationError, or a fault such as OverflowError
        return exc


def deeper_or_same(path: str, than: str) -> bool:
    return path == than or path.startswith((than + ".", than + "["))


def assert_agrees(doc):
    """The package's parser against the reference on one document."""
    old, new = outcome(reference_parse_problem, doc), outcome(parse_problem, doc)
    assert isinstance(new, (Problem, ValidationError)), repr(new)
    if isinstance(old, Problem):
        assert new == old
    elif isinstance(old, ValidationError):
        assert isinstance(new, ValidationError), f"accepted, the reference refused: {old}"
        assert deeper_or_same(new.path, old.path), (str(old), str(new))
    else:
        # the reference let an integer beyond the float range reach float(); the walk refuses it
        assert isinstance(old, OverflowError) and isinstance(new, ValidationError)
        assert new.path in ("$.bounds.c_trace", "$.bounds.c_plus", "$.bounds.c_minus"), str(new)


def is_null_b2plus(doc) -> bool:
    m = doc.get("manifold") if isinstance(doc, dict) else None
    return isinstance(m, dict) and "b2plus" in m and m["b2plus"] is None


def check(doc):
    if is_null_b2plus(doc):  # a deliberate difference, pinned in TestDeliberateDifferences
        return
    assert_agrees(doc)


@pytest.mark.parametrize("base", sorted(BASES))
def test_every_mutation_at_every_path_agrees_with_the_reference(base):
    doc = BASES[base]
    assert isinstance(parse_problem(doc), Problem) and parse_problem(doc) == reference_parse_problem(doc)
    checked = 0
    for path in paths(doc):
        for mutation in mutations_at(doc, path):
            check(mutated(doc, path, mutation))
            checked += 1
    assert checked > 200


# one replacement value, so one defect: any scalar, or a list or object of small integers
# (an object whose entries were faulty too would be several mutations at once)
_SMALL = st.integers(-3, 3)
_JSON_VALUES = st.one_of(
    st.booleans(), st.none(), st.text(max_size=4), _SMALL,
    st.integers(min_value=2**1024) | st.integers(max_value=-(2**1024)),
    st.floats(allow_nan=True, allow_infinity=True),
    st.lists(_SMALL, max_size=3),
    st.dictionaries(st.sampled_from(["num", "den", "c1", "x"]), _SMALL, max_size=2),
)


@settings(max_examples=300, deadline=None)
@given(base=st.sampled_from(sorted(BASES)), data=st.data())
def test_random_mutation_agrees_with_the_reference(base, data):
    doc = BASES[base]
    path = data.draw(st.sampled_from(list(paths(doc))))
    mutation = data.draw(
        st.sampled_from(mutations_at(doc, path)).flatmap(
            lambda m: st.just(m) if m[0] != "replace" else _JSON_VALUES.map(lambda v: ("replace", v))
        )
    )
    check(mutated(doc, path, mutation))


def _with(path, value, base="hyperbolic, rational metric"):
    return mutated(BASES[base], path, ("replace", value))


class TestDeliberateDifferences:
    """Where the reference parser was at fault, and what the schema walk says instead."""

    def test_null_b2plus_is_refused(self):
        doc = _with(("manifold", "b2plus"), None)
        assert reference_parse_problem(doc).manifold.b2plus == 1  # taken as absent
        with pytest.raises(ValidationError, match=r"^\$\.manifold\.b2plus: expected an integer, got null$"):
            parse_problem(doc)

    @pytest.mark.parametrize("field", ["c_trace", "c_plus", "c_minus"])
    @pytest.mark.parametrize("value", [HUGE, -HUGE])
    def test_integer_bound_beyond_the_float_range_is_refused_at_its_field(self, field, value):
        doc = _with(("bounds", field), value)
        with pytest.raises(OverflowError):
            reference_parse_problem(doc)
        with pytest.raises(ValidationError, match=rf"^\$\.bounds\.{field}: expected a finite number, got -?1000"):
            parse_problem(doc)

    @pytest.mark.parametrize(
        "path, value, old, new",
        [
            (("manifold", "b1"), -1, "$.manifold: b1 must be nonnegative", "$.manifold.b1: must be >= 0, got -1"),
            (("manifold", "b2plus"), -1, "$.manifold: b2plus=-1 does not match", "$.manifold.b2plus: must be >= 0, got -1"),
            (("bundle", "rank"), 0, "$.bundle: bundle rank must be >= 1", "$.bundle.rank: must be >= 1, got 0"),
            (("bounds", "c_trace"), -1.0, "$.bounds: c_trace must be a finite", "$.bounds.c_trace: must be >= 0, got -1.0"),
            (("bounds", "c_minus"), -2, "$.bounds: c_minus must be a finite", "$.bounds.c_minus: must be >= 0, got -2"),
        ],
    )
    def test_range_error_sits_at_its_field(self, path, value, old, new):
        doc = _with(path, value)
        with pytest.raises(ValidationError) as ref:
            reference_parse_problem(doc)
        assert str(ref.value).startswith(old)
        with pytest.raises(ValidationError) as got:
            parse_problem(doc)
        assert str(got.value) == new


# --- drift guard: the walk reads every keyword the schema uses, and each can refuse ---

ANNOTATIONS = {"$schema", "title"}
# keyword -> (path, replacement or None to delete, the error the walk reports)
KEYWORD_REFUSALS = {
    "type": (("bundle", "c2"), 2.0, "$.bundle.c2: expected an integer, got 2.0"),
    "properties": (("manifold", "name"), 5, "$.manifold.name: expected a string, got 5"),
    "required": (("bundle", "rank"), None, "$.bundle.rank: missing required field"),
    "additionalProperties": (("spinc",), {"c1": [0, 0], "c2": 0}, '$.spinc: unknown keys ["c2"]; allowed keys ["c1"]'),
    "items": (("spinc", "c1", 1), True, "$.spinc.c1[1]: expected an integer, got true"),
    "minimum": (("options", "kmax"), -1, "$.options.kmax: must be >= 0, got -1"),
    "enum": (("options", "dirac_multiplicity"), 3, "$.options.dirac_multiplicity: expected one of [1, 2], got 3"),
    "const": (("bounds", "g"), "Identity", "$.bounds.g: expected \"identity\" or a JSON array, got \"Identity\""),
    "oneOf": (("bounds", "g", 0, 1), 0.5, "$.bounds.g[0][1]: expected an integer or a JSON object, got 0.5"),
}


def subschemas(schema: dict):
    """``schema`` and every schema nested in it."""
    yield schema
    nested = [*schema.get("properties", {}).values(), *schema.get("oneOf", [])]
    for sub in nested + ([schema["items"]] if "items" in schema else []):
        yield from subschemas(sub)


def schema_keywords(schema: dict) -> set[str]:
    """The keywords used anywhere in ``schema`` (property names are not keywords)."""
    return {key for sub in subschemas(schema) for key in sub}


class _Recording(dict):
    """A schema node that records which keywords are asked of it."""

    def __init__(self, node, read):
        super().__init__(node)
        self.read = read

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def _recording(node, read):
    if isinstance(node, dict):
        return _Recording({k: _recording(v, read) for k, v in node.items()}, read)
    if isinstance(node, list):
        return [_recording(v, read) for v in node]
    return node


def test_every_schema_keyword_is_read_by_the_walk():
    keywords = schema_keywords(problem_schema())
    read = set()
    schema = _recording(problem_schema(), read)
    for doc in BASES.values():
        jsonio._validate(schema, doc, "$")
    assert keywords - ANNOTATIONS <= read, sorted(keywords - ANNOTATIONS - read)
    assert keywords - ANNOTATIONS == set(KEYWORD_REFUSALS)


@pytest.mark.parametrize("keyword", sorted(KEYWORD_REFUSALS))
def test_every_schema_keyword_refuses_a_mutation(keyword):
    path, value, error = KEYWORD_REFUSALS[keyword]
    doc = BASES["hyperbolic, rational metric"]
    doc = mutated(doc, path, ("delete",) if value is None else ("replace", value))
    with pytest.raises(ValidationError) as exc:
        parse_problem(doc)
    assert str(exc.value) == error


def test_one_of_branches_differ_in_type_or_const():
    """The walk picks the ``oneOf`` branch that fits; that needs branches no value fits twice."""
    found = [sub["oneOf"] for sub in subschemas(problem_schema()) if "oneOf" in sub]
    assert len(found) == 2
    for branches in found:
        tags = [json.dumps(b["const"]) if "const" in b else b["type"] for b in branches]
        assert len(set(tags)) == len(tags) and all("const" in b or "type" in b for b in branches)
        assert not ({"integer", "number"} <= set(tags))


def test_metric_file_walks_the_g_subschema():
    assert parse_metric("identity", 2, "$.g") == identity_metric(2)
    assert parse_metric([[1, HALF], [HALF, 1]], 2, "$.g")[0][1] == Fraction(1, 2)
    for g, error in [
        ([[1, {"num": 1}], [0, 1]], "$.g[0][1].den: missing required field"),
        ([[1, 0], [0, {"num": 1, "den": 0}]], "$.g[1][1].den: denominator must be nonzero"),
        ([[1, 0], [0, 1], [0, 0]], "$.g: expected a 2x2 matrix"),
        ({"g": 1}, "$.g: expected \"identity\" or a JSON array, got {\"g\": 1}"),
    ]:
        with pytest.raises(ValidationError) as exc:
            parse_metric(g, 2, "$.g")
        assert str(exc.value) == error


def test_misplaced_large_values_print_a_bounded_message():
    """The offending value is quoted as its JSON token, cut past 40 characters: one short line."""
    form = [[(1 if i < 3 else -1) * (i == j) for j in range(22)] for i in range(22)]  # a K3 form
    doc = _with(("bundle", "c2"), form)
    with pytest.raises(ValidationError) as exc:
        parse_problem(doc)
    assert str(exc.value) == "$.bundle.c2: expected an integer, got [[1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,..."
    doc = _with(("spinc",), {"c1": [0, 0], **{f"k{i}": 0 for i in range(30)}})
    with pytest.raises(ValidationError) as exc:
        parse_problem(doc)
    assert str(exc.value) == '$.spinc: unknown keys ["k0", "k1", "k10", "k11", "k12", "k1...; allowed keys ["c1"]'


# --- the README's example problem file cannot go stale ---


def test_readme_problem_file_example_loads_and_runs(tmp_path, capsys):
    section = README.read_text(encoding="utf-8").split("### Problem files", 1)[1]
    example = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    path = tmp_path / "problem.json"
    path.write_text(example)
    problem = load_problem(str(path))
    assert problem.bounds is not None and problem.options == RunOptions(2, 2)
    assert main(["reductions", "enumerate", "--input", str(path)]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert (result["count"], result["pruned_inconsistent"], result["lattice_points"]) == (5, 10, 5)
