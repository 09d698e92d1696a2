"""Problem-file validation, canonical serialization and the CLI surface."""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from monopoles import cli, jsonio, reductions
from monopoles.cli import main
from monopoles import cohomology
from monopoles.cohomology import CohClass2
from monopoles.mu_kernel import SpinorPair, properness_constant_estimate, zero_divisor_margin
from monopoles.reductions import MAX_BALL_POINTS, MAX_STRATA_ROWS, ReductionCandidate, enumerate_reductions
from monopoles.suites import _KAEHLER_CHECKS, _MU_CHECKS, CheckResult, SuiteReport
from monopoles.jsonio import (
    _ROW,
    ValidationError,
    _candidate_rows,
    canonical_dumps,
    input_sha256,
    load_problem,
    parse_problem,
    problem_schema,
    to_jsonable,
)


def problem_doc(**overrides):
    doc = {
        "manifold": {
            "name": "S2xS2-like",
            "b1": 0,
            "intersection_form": [[0, 1], [1, 0]],
        },
        "spinc": {"c1": [0, 0]},
        "bundle": {"rank": 2, "c1": [0, 0], "c2": 1},
    }
    doc.update(overrides)
    return doc


def k3_doc():
    form = [[0] * 22 for _ in range(22)]
    for i in range(3):
        form[i][i] = 1
    for i in range(3, 22):
        form[i][i] = -1
    return {
        "manifold": {"name": "K3-like", "b1": 0, "b2plus": 3, "intersection_form": form},
        "spinc": {"c1": [0] * 22},
        "bundle": {"rank": 2, "c1": [0] * 22, "c2": 1},
    }


class TestValidation:
    def test_round_trip(self):
        p = parse_problem(problem_doc())
        assert p.manifold.b2plus == 1
        assert p.bundle.rank == 2
        assert p.options.kmax == 0

    def test_unknown_top_level_key(self):
        with pytest.raises(ValidationError, match=r'\$: unknown keys \["extra"\]'):
            parse_problem(problem_doc(extra=1))

    def test_unknown_nested_key_named(self):
        doc = problem_doc()
        doc["bundle"]["color"] = "blue"
        with pytest.raises(ValidationError, match=r"\$\.bundle: unknown keys"):
            parse_problem(doc)

    def test_boolean_is_not_an_integer(self):
        doc = problem_doc()
        doc["bundle"]["c2"] = True
        with pytest.raises(ValidationError, match=r"\$\.bundle\.c2"):
            parse_problem(doc)

    @pytest.mark.parametrize("bad, token", [(True, "true"), (1.0, "1.0"), ("1", '"1"'), ([1], "[1]"), (None, "null")])
    def test_integer_array_names_its_first_bad_item(self, bad, token):
        """An all-int array passes in one check; any other falls back to the walk, which names the item."""
        doc = problem_doc()
        doc["manifold"]["intersection_form"] = [[0, 1], [bad, 0]]
        with pytest.raises(ValidationError) as exc:
            parse_problem(doc)
        assert str(exc.value) == f"$.manifold.intersection_form[1][0]: expected an integer, got {token}"

    def test_class_length_mismatch_named(self):
        doc = problem_doc()
        doc["spinc"]["c1"] = [0, 0, 0]
        with pytest.raises(ValidationError, match=r"\$\.spinc\.c1"):
            parse_problem(doc)

    def test_missing_field_named(self):
        doc = problem_doc()
        del doc["bundle"]["rank"]
        with pytest.raises(ValidationError, match=r"\$\.bundle\.rank: missing"):
            parse_problem(doc)

    def test_rational_metric_entries(self):
        doc = problem_doc()
        doc["bounds"] = {
            "c_trace": 6.2832,
            "c_plus": 0.0,
            "c_minus": 0.0,
            "g": [[1, {"num": 1, "den": 2}], [{"num": 1, "den": 2}, 1]],
        }
        p = parse_problem(doc)
        assert p.bounds.metric[0][1] == Fraction(1, 2)

    def test_zero_denominator_rejected(self):
        doc = problem_doc()
        doc["bounds"] = {
            "c_trace": 1.0,
            "c_plus": 0.0,
            "c_minus": 0.0,
            "g": [[1, 0], [0, {"num": 1, "den": 0}]],
        }
        with pytest.raises(ValidationError, match=r"den"):
            parse_problem(doc)

    @pytest.mark.parametrize("key, value", [("seed", 7), ("starts", 4), ("tol", 1e-6), ("positivity_floor", 0.1)])
    def test_options_nothing_reads_are_unknown_keys(self, key, value):
        with pytest.raises(ValidationError, match=rf'\$\.options: unknown keys \["{key}"\]'):
            parse_problem(problem_doc(options={key: value}))
        assert key not in problem_schema()["properties"]["options"]["properties"]

    def test_negative_kmax_option_names_the_field(self):
        with pytest.raises(ValidationError, match=r"^\$\.options\.kmax: "):
            parse_problem(problem_doc(options={"kmax": -1}))

    def test_schema_document_shape(self):
        schema = problem_schema()
        assert schema["required"] == ["manifold", "spinc", "bundle"]
        assert schema["additionalProperties"] is False


class TestSerialization:
    def test_fraction_encoding(self):
        assert to_jsonable(Fraction(1, 2)) == {"num": 1, "den": 2}
        assert to_jsonable(Fraction(4, 2)) == 2

    def test_complex_encoding(self):
        assert to_jsonable(2j) == {"re": 0.0, "im": 2.0}

    @pytest.mark.parametrize(
        "value, expected",
        [
            (np.int64(3), "3"),
            (np.float32(0.1), "0.10000000149011612"),
            (np.float64(0.1), "0.1"),
            (np.complex64(1 + 2j), '{\n  "im": 2.0,\n  "re": 1.0\n}'),
            (np.array([[1, 2], [3, 4]]), "[\n  [\n    1,\n    2\n  ],\n  [\n    3,\n    4\n  ]\n]"),
        ],
    )
    def test_numpy_values_serialize_as_their_python_values(self, value, expected):
        assert canonical_dumps(value) == expected
        assert canonical_dumps(value) == canonical_dumps(value.tolist())

    def test_zero_dim_array_and_numpy_bool_serialize(self):
        assert canonical_dumps(np.array(0.5)) == "0.5"
        assert canonical_dumps({"ok": np.bool_(True)}) == '{\n  "ok": true\n}'

    def test_unsupported_object_names_its_type(self):
        with pytest.raises(TypeError, match="^cannot serialize object$"):
            to_jsonable(object())

    def test_canonical_dumps_refuses_non_finite_floats(self):
        for bad in (float("nan"), float("inf"), complex(1.0, float("-inf"))):
            with pytest.raises(ValueError):
                canonical_dumps({"x": [bad]})

    def test_canonical_dumps_sorted_and_stable(self):
        a = canonical_dumps({"b": 1, "a": Fraction(1, 3)})
        b = canonical_dumps({"a": Fraction(1, 3), "b": 1})
        assert a == b
        assert a.index('"a"') < a.index('"b"')

    def test_hook_converts_one_level_only(self):
        half = Fraction(1, 2)
        assert to_jsonable(CohClass2((1, -2))) == (1, -2)
        assert to_jsonable(np.array([half], dtype=object)) == [half]  # the encoder converts the Fraction
        for plain in ({"a": 1}, [1], "s", 1, 1.5, None):
            with pytest.raises(TypeError, match="^cannot serialize "):
                to_jsonable(plain)

    def test_input_hash_is_content_hash(self):
        assert input_sha256(problem_doc()) == input_sha256(problem_doc())
        other = problem_doc()
        other["bundle"]["c2"] = 2
        assert input_sha256(other) != input_sha256(problem_doc())


def oracle_to_jsonable(obj):
    """Reference serializer: converts a whole report to plain JSON values before encoding.

    The package's ``to_jsonable`` is a one-level hook that the encoder calls
    while it recurses; this walk does the recursion itself, as the package
    once did, so the two designs can be compared byte for byte.
    """
    if obj is None or isinstance(obj, (bool, int, str, float)):
        return obj
    if isinstance(obj, Fraction):
        return int(obj) if obj.denominator == 1 else {"num": obj.numerator, "den": obj.denominator}
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.generic, np.ndarray)):
        return oracle_to_jsonable(obj.tolist())
    if isinstance(obj, CohClass2):
        return list(obj.coeffs)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: oracle_to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if f.name != "raw"
        }
    if isinstance(obj, dict):
        return {str(k): oracle_to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [oracle_to_jsonable(x) for x in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def oracle_dumps(obj) -> str:
    return json.dumps(oracle_to_jsonable(obj), sort_keys=True, separators=(", ", ": "), allow_nan=False)


def leaf_rows(obj, path=()):
    """``(dotted path, value)`` for every leaf of a parsed JSON document, keys sorted; ``[]`` and ``{}`` are leaves."""
    if isinstance(obj, dict) and obj:
        return [row for k in sorted(obj) for row in leaf_rows(obj[k], path + (k,))]
    if isinstance(obj, list) and obj:
        return [row for i, v in enumerate(obj) for row in leaf_rows(v, path + (str(i),))]
    return [(".".join(path), obj)]


def _cli_report_object(monkeypatch, argv):
    """The report object ``main(argv)`` hands to ``canonical_dumps``, unconverted."""
    seen = []

    def capture(obj):
        seen.append(obj)
        return canonical_dumps(obj)

    with monkeypatch.context() as patch, contextlib.redirect_stdout(io.StringIO()):
        patch.setattr(cli, "canonical_dumps", capture)
        assert main(argv) == 0
    [report] = seen
    return report


def _serializer_corpus(monkeypatch, census_file):
    pair = SpinorPair([1 + 2j, -0.5], [0.25j, 3.0])
    suite = SuiteReport(
        suite="mu:all",
        seed=7,
        checks=(
            CheckResult("quartic", True, 10, 1e-15, 1e-10),
            CheckResult(
                "phase", False, 10, 0.5, 1e-10,
                {"tau": np.float64(0.5), "psi": pair, "lhs": np.array([1.5, -2.0]), "k": np.int64(3)},
            ),
        ),
    )
    properness = properness_constant_estimate(2, 0.5, starts=2, seed=3)
    zero_divisor = zero_divisor_margin(2, 0.5, starts=2, seed=3)
    assert isinstance(properness.argmin, SpinorPair)
    assert isinstance(zero_divisor.argmin, tuple) and len(zero_divisor.argmin) == 2
    census_argv = ["reductions", "enumerate", "--input", census_file, "--c-trace", "6.2832", "--kmax", "1"]
    problem = load_problem(census_file)
    census = enumerate_reductions(problem.manifold, problem.bundle, problem.spinc, problem.bounds, 1)
    return {
        "reductions enumerate report": _cli_report_object(monkeypatch, census_argv),
        "enumeration report with its candidates": census,
        "problem, without its raw document": problem,
        "suite report": suite,
        "optimization report, one spinor pair": properness,
        "optimization report, a pair of them": zero_divisor,
        "numpy scalars": [
            np.bool_(False), np.int8(-3), np.int16(7), np.int32(-9), np.int64(2**40), np.uint8(200),
            np.uint64(2**63), np.float16(0.1), np.float32(0.1), np.float64(1e-300),
            np.complex64(1 - 2j), np.complex128(0.5 + 1e-17j),
        ],
        "0-d array and numpy bool": {"zero_dim": np.array(0.5), "flag": np.bool_(True)},
        "complex and 2-d arrays": [np.array([1j, -2 + 0.5j]), np.arange(6.0).reshape(2, 3)],
        "tuples in lists of fractions": [
            (Fraction(1, 3), Fraction(4, 2)), [Fraction(-7, 5), (Fraction(0), (Fraction(9, 4),))],
        ],
    }


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.json"
    path.write_text(json.dumps(k3_doc()))
    return str(path)


@pytest.fixture
def hyperbolic_file(tmp_path):
    path = tmp_path / "h.json"
    path.write_text(json.dumps(problem_doc()))
    return str(path)


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestSerializerOracle:
    """``canonical_dumps`` against the whole-report walk it replaced, and the table against the JSON."""

    @pytest.fixture
    def census_file(self, tmp_path):
        doc = problem_doc(bundle={"rank": 3, "c1": [1, 0], "c2": 1})
        doc["bounds"] = {"c_trace": 6.2832, "c_plus": 3.0, "c_minus": 9.0,
                         "g": [[1, {"num": 1, "den": 2}], [{"num": 1, "den": 2}, 2]]}
        path = tmp_path / "census.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_canonical_dumps_matches_the_recursive_oracle(self, monkeypatch, census_file):
        corpus = _serializer_corpus(monkeypatch, census_file)
        assert corpus["reductions enumerate report"]["result"]["count"] > 0
        assert corpus["enumeration report with its candidates"].candidates
        for label, obj in corpus.items():
            text = canonical_dumps(obj)
            assert flattened(text) == oracle_dumps(obj), label
            assert deepest_indent(text) <= 6, label

    @pytest.mark.parametrize(
        "argv",
        [
            ["mu", "check", "--samples", "3", "--seed", "7"],
            ["kaehler", "margin", "--n", "2", "--tau", "0.5", "--lambda", "1-2i", "--starts", "2"],
            ["reductions", "enumerate", "--input", "CENSUS", "--kmax", "1"],
        ],
    )
    def test_table_rows_are_the_leaves_of_the_json_report(self, argv, census_file, capsys):
        argv = [census_file if a == "CENSUS" else a for a in argv]
        code, out = run_cli(argv, capsys)
        assert code == 0
        code, table = run_cli(argv + ["--format", "table"], capsys)
        assert code == 0
        report = json.loads(out)
        report["command"] = argv + ["--format", "table"]  # the one field the flag changes
        leaves = leaf_rows(report)
        assert len(leaves) > 10
        width = max(len(k) for k, _ in leaves)
        tokens = [(k, v if isinstance(v, str) else json.dumps(v)) for k, v in leaves]
        assert table == "".join(f"{k.ljust(width)}  {v}\n" for k, v in tokens)

    def test_an_empty_list_or_object_is_a_table_row(self, tmp_path, capsys):
        """A b2 = 0 census keeps no candidate: its empty classes, candidates and warnings each print one row."""
        path = tmp_path / "s4.json"
        path.write_text(json.dumps({
            "manifold": {"name": "S4", "b1": 0, "intersection_form": []},
            "spinc": {"c1": []},
            "bundle": {"rank": 2, "c1": [], "c2": 1},
        }))
        code, table = run_cli(["reductions", "enumerate", "--input", str(path), "--c-trace", "0.1", "--format", "table"],
                              capsys)
        assert code == 0
        rows = dict(line.split(None, 1) for line in table.splitlines())
        for key in ("input.bundle.c1", "input.manifold.intersection_form", "input.spinc.c1", "result.candidates",
                    "warnings"):
            assert rows[key] == "[]"
        assert list(cli._flatten({"a": {}, "b": [[], {"c": {}}]})) == [("a", {}), ("b.0", []), ("b.1.c", {})]


# --- the layout against the stdlib's C encoder ---


def stdlib_dumps(obj) -> str:
    """The fully indented canonical text, which ``input_sha256`` hashes."""
    return json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": "), allow_nan=False, default=to_jsonable)


def c_dumps(obj) -> str:
    """The deliberate oracle: the stdlib's C encoder on the whole of ``obj``, one line."""
    return json.dumps(obj, sort_keys=True, separators=(", ", ": "), allow_nan=False, default=to_jsonable)


def flattened(text: str) -> str:
    """``text`` on one line: each line break after a comma read as a space, every other one and its indent dropped.

    A JSON string holds no raw line break, so every one in ``text`` is layout; no line ends in a space.
    """
    assert " \n" not in text
    return re.sub(r"\n *", "", re.sub(r",\n *", ", ", text))


def deepest_indent(text: str) -> int:
    return max(len(line) - len(line.lstrip(" ")) for line in text.split("\n"))


def flat_dumps(obj) -> str:
    return flattened(canonical_dumps(obj))


def outcome(dumps, obj):
    """The text ``dumps(obj)`` returns, or the type and message of what it raises."""
    try:
        return dumps(obj)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


# subclasses whose repr differs from their JSON token: the encoder must not call it
class _Str(str):
    def __repr__(self):
        return "_Str!"


class _Int(int):
    def __repr__(self):
        return "_Int!"


class _Float(float):
    def __repr__(self):
        return "_Float!"


class _List(list):
    pass


class _Dict(dict):
    pass


@dataclasses.dataclass
class _Record:
    name: object
    value: object
    raw: object = None  # never serialized


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_INTS = st.one_of(st.integers(), st.sampled_from([2**64, -(2**63) - 1, 10**100, -(10**300)]))
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    _INTS,
    _FINITE,
    st.sampled_from([-0.0, 5e-324, 1e308, -1e308, 0.1]),
    st.text(st.characters(), max_size=8),  # non-ASCII and control characters
    st.text(st.characters(codec=None, exclude_categories=()), max_size=4),  # lone surrogates too
    st.builds(_Str, st.text(max_size=4)),
    st.builds(_Int, _INTS),
    st.builds(_Float, _FINITE),
    st.fractions(),
    st.complex_numbers(allow_nan=False, allow_infinity=False),
    st.builds(CohClass2, st.lists(st.integers(-9, 9), max_size=4)),
    st.builds(np.float64, _FINITE),
    st.builds(np.float32, st.floats(width=32, allow_nan=False, allow_infinity=False)),
    st.builds(np.int64, st.integers(-(2**63), 2**63 - 1)),
    st.builds(np.bool_, st.booleans()),
    st.builds(np.complex128, st.complex_numbers(allow_nan=False, allow_infinity=False)),
    hnp.arrays(np.int64, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=3)),
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=3), elements=_FINITE),
)
# what the stdlib refuses: non-finite floats, unknown types, and keys it cannot convert or sort
_FAULTS = st.sampled_from([
    math.nan, math.inf, -math.inf, np.float64("nan"), _Float("-inf"), complex(1.0, math.inf),
    object(), {1, 2}, b"bytes", {(1,): 0}, {math.nan: 0}, {"a": 0, 1: 0}, {None: 0, "b": 0},
])

_FAULTY_LEAVES = st.integers(0, 3).flatmap(lambda i: _FAULTS if i == 0 else _SCALARS)  # one leaf in four


def _dicts(children):
    """Dicts keyed one way each: strings, numbers and booleans (which compare), or a lone ``None``."""
    return st.one_of(
        st.dictionaries(st.one_of(st.text(max_size=4), st.builds(_Str, st.text(max_size=4))), children, max_size=4),
        st.dictionaries(st.one_of(_INTS, _FINITE, st.booleans(), st.builds(_Int, _INTS)), children, max_size=4),
        st.dictionaries(st.none(), children, max_size=1),
    )


def _trees(leaves):
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.lists(children, max_size=4).map(_List),
            _dicts(children),
            _dicts(children).map(_Dict),
            st.builds(_Record, children, children, children),
            st.lists(_INTS, max_size=6),  # the encoder's all-int path
        ),
        max_leaves=16,
    )


class TestEncoderOracle:
    """``canonical_dumps`` is the C call ``c_dumps`` laid out on lines, error for error; the hash reads the indented text."""

    @settings(max_examples=400, deadline=None)
    @given(tree=_trees(_SCALARS))
    def test_text_and_hash_equal_the_stdlib_call(self, tree):
        expected = outcome(c_dumps, tree)
        assert outcome(flat_dumps, tree) == expected
        if isinstance(expected, str):
            text, indented = canonical_dumps(tree), stdlib_dumps(tree)
            assert deepest_indent(text) <= 6
            assert json.loads(text) == json.loads(indented)
            assert input_sha256(tree) == hashlib.sha256(indented.encode("utf-8")).hexdigest()

    @settings(max_examples=300, deadline=None)
    @given(tree=_trees(_FAULTY_LEAVES))
    def test_errors_equal_the_stdlib_call(self, tree):
        assert outcome(flat_dumps, tree) == outcome(c_dumps, tree)

    @pytest.mark.parametrize("fault", [math.nan, math.inf, -math.inf, np.float64("nan"), _Float("inf")])
    def test_non_finite_float_message(self, fault):
        for obj in (fault, [1, fault], {"x": fault}, {fault: 1}, [[[{"x": [fault]}]]]):
            with pytest.raises(ValueError, match="^Out of range float values are not JSON compliant") as exc:
                canonical_dumps(obj)
            assert outcome(c_dumps, obj) == (ValueError, str(exc.value))

    @pytest.mark.parametrize("obj, name", [(object(), "object"), ([{"a": {1, 2}}], "set"), ([[[{1, 2}]]], "set")])
    def test_unknown_type_message(self, obj, name):
        assert outcome(canonical_dumps, obj) == outcome(c_dumps, obj) == (TypeError, f"cannot serialize {name}")

    def test_circular_structures_are_refused(self):
        lst = [1]
        lst.append(lst)
        dct = {"a": [0]}
        dct["a"].append(dct)
        rec = _Record("r", None)
        rec.value = [rec]  # the cycle runs through the hook
        selfish = np.empty((), dtype=object)
        selfish[()] = selfish  # the hook returns the value it was given
        for obj in (lst, dct, rec, selfish):
            with pytest.raises(ValueError, match=r"^Circular reference detected$"):
                canonical_dumps(obj)
            assert outcome(c_dumps, obj) == (ValueError, "Circular reference detected")

    @pytest.mark.parametrize("fmt, bound", [("json", 2.6), ("table", 5.0)])
    def test_a_census_report_is_copied_once(self, fmt, bound, tmp_path, monkeypatch, capsys):
        """The peak memory of laying out a report is its pieces and one joined text.

        The census is the benchmark's N4-b8-id problem (1 174 candidates).  The JSON
        text peaks at most 2.6x its length: joining each nesting level into a new
        string, as the layout once did, peaked at 3.5x.  The table peaks at most 5x
        its length: a list of one (path, token) row per leaf, as it once held, peaked at 8.1x.
        """
        diag = [1, 1] + [-1] * 6
        energy = math.sqrt(1.25 * 8 * math.pi**2)
        doc = {
            "manifold": {"name": "N4-b8-id", "b1": 0,
                         "intersection_form": [[d if i == j else 0 for j in range(8)] for i, d in enumerate(diag)]},
            "spinc": {"c1": [1] * 8},
            "bundle": {"rank": 4, "c1": [1, 0, 0, 0, 0, 0, 0, 1], "c2": 2},
            "bounds": {"c_trace": 3 * math.pi, "c_plus": energy, "c_minus": energy, "g": "identity"},
        }
        path = tmp_path / "n4.json"
        path.write_text(json.dumps(doc))
        peaks = []

        render = cli._render

        def traced(report, fmt):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                text = render(report, fmt)
                peaks.append((tracemalloc.get_traced_memory()[1] - before, len(text)))
            finally:
                tracemalloc.stop()
            return text

        monkeypatch.setattr(cli, "_render", traced)
        argv = ["reductions", "enumerate", "--input", str(path), "--kmax", "1", "--format", fmt]
        code, out = run_cli(argv, capsys)
        if fmt == "json":
            count = json.loads(out)["result"]["count"]
        else:
            count = int(re.search(r"^result\.count +(\d+)$", out, re.M)[1])
        assert code == 0 and count == 1174
        (peak, chars), = peaks
        assert out.isascii()  # so a character of the text takes one byte
        assert peak <= bound * chars, peak / chars

    def test_deep_structure_that_is_no_cycle_is_encoded(self):
        deep = {"leaf": [1, 2]}
        for _ in range(400):
            deep = [deep]
        text = canonical_dumps(deep)
        assert flattened(text) == c_dumps(deep)
        assert json.loads(text) == json.loads(stdlib_dumps(deep))
        assert deepest_indent(text) == 6  # the row at depth 3


# --- census rows from one format string, against the encoder ---

_BIG_INTS = st.sampled_from([2**64, -(2**64) - 1, 10**30, 10**4300])  # the last is past the digit limit
# what a census field may be instead of its census type: each candidate has at most two such fields
_ODD_SCALARS = st.one_of(
    st.booleans(), st.builds(_Int, st.integers(-5, 5)), _BIG_INTS, st.builds(np.int64, st.integers(-5, 5))
)
_ODD_CLASSES = st.one_of(
    st.sampled_from([(True, 0), (1, False), [1, 0], (1.0, 0), (_Int(1), 0), (2**70, -1), (-(10**4400),), 0.5]),
    st.builds(CohClass2, st.lists(st.integers(-3, 3), max_size=3)),
)
_ODD_NORMS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 2, True, Fraction(3, 2), (1, 0)]),
    st.builds(_Float, _FINITE),
    st.builds(np.float64, _FINITE),
)
_ODD_TAUS = st.one_of(
    st.sampled_from([Fraction(10**4300, 3), 0.5, 1, math.nan, None, (1, 2)]),
    st.builds(lambda q: type("_Fraction", (Fraction,), {})(q), st.fractions()),
)
# the fields of ReductionCandidate in order, and what each is when the census types it
_CENSUS_FIELDS = (
    ("rank", st.integers(1, 5)),
    ("c1", st.lists(st.integers(-3, 3), max_size=3).map(tuple)),
    ("c2", st.integers(-50, 50)),
    ("complement_rank", st.integers(1, 5)),
    ("complement_c1", st.lists(st.integers(-3, 3), max_size=3).map(tuple)),
    ("complement_c2", st.integers(-50, 50)),
    ("tau", st.one_of(
        st.integers(1, 5).map(lambda n: 1 - Fraction(n, 6)), st.sampled_from([Fraction(1), Fraction(-2)]), st.fractions(),
    )),
    ("dim_asd_part", st.integers(-50, 50)),
    ("dim_un_part", st.integers(-50, 50)),
    ("total_dim", st.integers(-50, 50)),
    ("stratum_k", st.integers(0, 3)),
    ("c1_norm", st.floats(0, 20) | st.sampled_from([0.0, -0.0, 5e-324, 1e300])),
)
_ODD = {"c1": _ODD_CLASSES, "complement_c1": _ODD_CLASSES, "tau": _ODD_TAUS, "c1_norm": _ODD_NORMS}


@st.composite
def _candidate_lists(draw):
    """Candidates that share their field objects, as a census does: each field is drawn from a small pool.

    The class pools hold ``(1, 0)`` twice, as two objects, and ``(True, 0)``; the norm pool holds ``0.0``
    twice and ``-0.0``; a tau may be an integral ``Fraction``.
    A candidate has no odd field, one or two.
    """
    pools = {name: draw(st.lists(census, min_size=1, max_size=3)) for name, census in _CENSUS_FIELDS}
    for name in ("c1", "complement_c1"):
        pools[name] += [(1, 0), tuple([1, 0]), (True, 0)]
    pools["c1_norm"] += [0.0, float("0"), -0.0]

    def candidate():
        odd = draw(st.just(()) | st.lists(st.sampled_from([name for name, _ in _CENSUS_FIELDS]), max_size=2))
        return ReductionCandidate(*(
            draw(_ODD.get(name, _ODD_SCALARS)) if name in odd else draw(st.sampled_from(pools[name]))
            for name, _ in _CENSUS_FIELDS
        ))

    return [candidate() for _ in range(draw(st.integers(1, 8)))]


def _census_typed(c) -> bool:
    """Whether ``c`` has the field types a census gives it."""
    ints = (c.rank, c.c2, c.complement_rank, c.complement_c2, c.dim_asd_part, c.dim_un_part, c.total_dim, c.stratum_k)
    classes = (c.c1, c.complement_c1)
    return (
        all(type(x) is int for x in ints)
        and all(type(v) is tuple and all(type(x) is int for x in v) for v in classes)
        and type(c.c1_norm) is float and math.isfinite(c.c1_norm)
        and type(c.tau) is Fraction
    )


def _census_argvs(tmp_path):
    """The two censuses tests/test_pinned_reports.py pins (39 and 31 candidates), and a larger one (339)."""
    from test_pinned_reports import BOUNDED_PROBLEM, COMMANDS, PROBLEM, SHEARED_METRIC

    for name, doc in (("problem.json", PROBLEM), ("g.json", SHEARED_METRIC), ("bounded.json", BOUNDED_PROBLEM)):
        (tmp_path / name).write_text(json.dumps(doc))
    argvs = [
        [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
        for label, argv in COMMANDS.items() if label.startswith("reductions")
    ]
    return argvs + [argvs[0] + ["--c-trace", "20", "--kmax", "7"]]  # the last value of a flag counts


class TestCandidateRows:
    """``jsonio._candidate_rows`` writes each census row as ``_ROW`` does, text for text and error for error."""

    @settings(max_examples=400, deadline=None)
    @given(candidates=_candidate_lists())
    def test_rows_equal_the_encoder_row_by_row(self, candidates):
        expected = outcome(lambda cs: [_ROW(c) for c in cs], candidates)
        handed = []

        def recording(obj, encode=_ROW):
            handed.append(obj)
            return encode(obj)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(jsonio, "_ROW", recording)
            assert outcome(lambda cs: list(_candidate_rows(cs)), candidates) == expected
        if isinstance(expected, list):
            # a candidate the census did not type goes to the encoder whole, and only such a one
            odd = [c for c in candidates if not _census_typed(c)]
            assert [c for c in handed if type(c) is ReductionCandidate] == odd

    @pytest.mark.parametrize(
        "odd",
        [
            {"rank": True}, {"dim_un_part": _Int(3)}, {"stratum_k": np.int64(0)}, {"c2": 2.0},
            {"c1": (True, 0)}, {"complement_c1": [0, 1]}, {"c1": CohClass2([1, 0])}, {"complement_c1": (0, 1.0)},
            {"c1_norm": _Float(0.5)}, {"c1_norm": Fraction(1, 2)}, {"c1_norm": 2}, {"c1_norm": (1, 0)},
            {"tau": 0.5}, {"tau": type("_Fraction", (Fraction,), {})(1, 3)}, {"tau": (1, 3)},
        ],
    )
    def test_a_candidate_the_census_did_not_type_goes_to_the_encoder_whole(self, odd):
        base = ReductionCandidate(2, (1, 0), 1, 1, (0, 1), 0, Fraction(1, 3), 4, 0, 4, 0, 1.0)
        candidate = dataclasses.replace(base, **odd)
        handed = []

        def recording(obj, encode=_ROW):
            handed.append(obj)
            return encode(obj)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(jsonio, "_ROW", recording)
            rows = list(_candidate_rows([base, candidate, base]))
        assert rows == [_ROW(base), _ROW(candidate), _ROW(base)]
        assert [c for c in handed if type(c) is ReductionCandidate] == [candidate]

    def test_a_subclass_of_the_candidate_is_laid_out_by_the_encoder(self):
        @dataclasses.dataclass(frozen=True, slots=True)
        class Labelled(ReductionCandidate):
            label: str = "x"

        row = Labelled(2, (1, 0), 1, 1, (0, 1), 0, Fraction(1, 3), 4, 0, 4, 0, 1.0)
        report = {"result": {"candidates": [row, row]}}
        assert flat_dumps(report) == c_dumps(report)
        assert '"label": "x"' in canonical_dumps(report)

    @pytest.mark.parametrize(
        "odd",
        [
            {"c1_norm": math.nan}, {"c1_norm": -math.inf}, {"c2": 10**4300}, {"c1": (10**4300,)},
            {"tau": Fraction(10**4300, 7)},
            {"c1_norm": math.nan, "complement_c1": (10**4300,)},
            {"c1": (1, math.inf), "c1_norm": (10**4300,)},
            {"c2": 10**4300, "tau": Fraction(1, 10**4400)},
            {"complement_c2": -(10**4300), "tau": math.nan},
            {"c1_norm": -math.inf, "tau": Fraction(10**4300)},
            {"total_dim": 10**4300, "c1_norm": _Float(0.5)},
        ],
    )
    def test_a_row_fails_as_the_encoder_does_whichever_field_fails(self, odd):
        """One faulty field or two: the error is the one the encoder meets first in key order."""
        base = ReductionCandidate(2, (1, 0), 1, 1, (0, 1), 0, Fraction(1, 3), 4, 0, 4, 0, 1.0)
        candidate = dataclasses.replace(base, **odd)
        expected = outcome(_ROW, candidate)
        assert isinstance(expected, tuple)
        assert outcome(lambda c: list(_candidate_rows([base, c])), candidate) == expected

    def test_equal_classes_of_other_types_are_written_apart(self):
        one, other = (1, 0), (True, 0)
        candidates = [
            ReductionCandidate(1, c1, 0, 1, perp, 0, Fraction(1, 2), 0, 0, 0, 0, norm)
            for c1, perp, norm in ((one, other, 0.0), (other, one, -0.0), (one, one, 0.0))
        ]
        rows = list(_candidate_rows(candidates))
        assert rows == [_ROW(c) for c in candidates]
        assert [json.loads(r)["c1_norm"] for r in rows] == [0.0, -0.0, 0.0]
        assert '"c1": [true, 0]' in rows[1] and '"complement_c1": [true, 0]' in rows[0]

    def test_every_pinned_census_row_comes_from_the_format_string(self, tmp_path, monkeypatch):
        """Each row equals ``_ROW(c)``, and ``_ROW`` itself writes only the census's taus, once each."""
        for argv in _census_argvs(tmp_path):
            candidates = _cli_report_object(monkeypatch, argv)["result"]["candidates"]
            assert len(candidates) > 10
            expected = [_ROW(c) for c in candidates]
            calls = []

            def counting(obj, encode=_ROW):
                calls.append(obj)
                return encode(obj)

            with monkeypatch.context() as patch:
                patch.setattr(jsonio, "_ROW", counting)
                assert list(_candidate_rows(candidates)) == expected
            assert all(type(x) is Fraction for x in calls)
            assert len(calls) == len({id(c.tau) for c in candidates}) < len(candidates)

    def test_a_census_report_makes_no_hook_call_per_candidate(self, tmp_path, monkeypatch):
        """The hook calls of a ``reductions enumerate`` report do not grow with its candidate count."""
        argvs = _census_argvs(tmp_path)
        counts = []
        for argv in (argvs[0], argvs[2]):
            calls = [0]
            hook = jsonio.to_jsonable

            def counting(obj):
                calls[0] += 1
                return hook(obj)

            with monkeypatch.context() as patch:
                patch.setattr(jsonio, "to_jsonable", counting)
                patch.setattr(jsonio, "_ROW", json.JSONEncoder(
                    sort_keys=True, separators=(", ", ": "), allow_nan=False, default=counting).encode)
                report = _cli_report_object(monkeypatch, argv)
            counts.append((len(report["result"]["candidates"]), calls[0]))
        (few, few_calls), (many, many_calls) = counts
        assert (few, many) == (39, 339)
        assert many_calls == few_calls


class TestCli:
    def test_dim_pun_k3(self, k3_file, capsys):
        code, out = run_cli(["dim", "pun", "--input", k3_file], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["result"]["expected_dim"] == 2
        assert report["result"]["p1_su"] == -4
        assert report["result"]["dirac_index"] == 3

    def test_dim_pun_multiplicity_flag(self, k3_file, capsys):
        code, out = run_cli(
            ["dim", "pun", "--input", k3_file, "--dirac-multiplicity", "1"], capsys
        )
        assert json.loads(out)["result"]["expected_dim"] == -1

    def test_dim_asd(self, hyperbolic_file, capsys):
        code, out = run_cli(["dim", "asd", "--input", hyperbolic_file], capsys)
        assert code == 0
        assert json.loads(out)["result"]["expected_dim"] == 2  # 8k - 3(1 + b2+)

    def test_tau0(self, k3_file, capsys):
        code, out = run_cli(["tau0", "--input", k3_file], capsys)
        assert code == 0
        assert json.loads(out)["result"]["vanishes_generically"] is True

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"manifold": nope')
        code = main(["dim", "pun", "--input", str(bad)])
        assert code == 2

    @pytest.mark.parametrize(
        "flag, content, field, detail",
        [
            ("--g", b"[[1, 0], [0, 1]", "$.g", "Expecting ','"),
            ("--g", b"[[1, 0], [0, 1]]\xff", "$.g", "'utf-8' codec"),
            ("--input", b"\xff\xfe{}", "$", "'utf-8' codec"),
        ],
    )
    def test_unreadable_json_file_names_the_field(
        self, flag, content, field, detail, hyperbolic_file, tmp_path, capsys
    ):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        files = {"--input": hyperbolic_file, "--g": "identity", flag: str(bad)}
        argv = ["reductions", "enumerate", "--c-trace", "6.2832"]
        for name, path in files.items():
            argv += [name, path]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"error: {field}: malformed JSON: {detail}")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, flag, target",
        [
            (["dim", "pun"], "--input", "missing.json"),
            (["strata"], "--input", "missing.json"),
            (["tau0"], "--input", "a_directory"),
            (["reductions", "enumerate", "--c-trace", "6.2832"], "--input", "a_directory"),
            (["reductions", "enumerate", "--c-trace", "6.2832"], "--g", "missing.json"),
        ],
    )
    def test_a_file_that_cannot_be_opened_names_its_flag(
        self, command, flag, target, hyperbolic_file, tmp_path, capsys
    ):
        (tmp_path / "a_directory").mkdir()
        path = str(tmp_path / target)
        files = {"--input": hyperbolic_file, flag: path}
        code = main(command + [token for item in files.items() for token in item])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"error: {flag}: ") and path in captured.err
        assert captured.err.count("\n") == 1

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        doc = problem_doc(surprise=1)
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        code = main(["dim", "pun", "--input", str(path)])
        assert code == 2

    def test_reductions_enumerate(self, tmp_path, capsys):
        doc = problem_doc()
        doc["bundle"]["c2"] = 0  # rank-1 splittings of a c2=1 bundle all prune
        path = tmp_path / "census.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli(
            [
                "reductions",
                "enumerate",
                "--input",
                str(path),
                "--c-trace",
                "6.2832",
                "--c-plus",
                "0",
                "--c-minus",
                "0",
                "--g",
                "identity",
                "--kmax",
                "0",
            ],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["result"]["count"] == 5
        taus = {json.dumps(c["tau"], sort_keys=True) for c in report["result"]["candidates"]}
        assert taus == {json.dumps({"num": 1, "den": 2}, sort_keys=True)}

    def test_reductions_enumerate_rows_are_the_candidate_fields(self, tmp_path, capsys):
        """The encoder writes each candidate as it is: a row's keys are the fields of ReductionCandidate."""
        doc = problem_doc()
        doc["bundle"]["rank"] = 3
        path = tmp_path / "census.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli(["reductions", "enumerate", "--input", str(path), "--c-trace", "9", "--kmax", "1"], capsys)
        rows = json.loads(out)["result"]["candidates"]
        assert code == 0 and {row["complement_rank"] for row in rows} == {1, 2}
        assert all(sorted(row) == sorted(f.name for f in dataclasses.fields(ReductionCandidate)) for row in rows)

    def test_reductions_enumerate_states_each_warning_once(self, tmp_path, capsys):
        """The problem's warnings, then the census's own b1 note, each once."""
        doc = problem_doc()
        doc["manifold"].update(b1=1, intersection_form=[[2, 0], [0, -1]])
        doc["bundle"]["c2"] = 5  # the ball holds the origin alone, whose rank-1 splitting prunes
        path = tmp_path / "census.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli(["reductions", "enumerate", "--input", str(path), "--c-trace", "1"], capsys)
        assert code == 0
        report = json.loads(out)
        assert (report["result"]["count"], report["result"]["pruned_inconsistent"]) == (0, 1)
        assert report["warnings"] == [
            "intersection form is not unimodular (|det| = 2)",
            "Spin^c class fails the mod-2 characteristic test at basis indices [1]",
            "b1 != 0: simple-connectivity assumptions do not apply",
            "b1 != 0: the product description of fixed-point components assumes a simply connected manifold",
        ]

    def test_strata(self, k3_file, capsys):
        code, out = run_cli(["strata", "--input", k3_file, "--kmax", "2"], capsys)
        rows = json.loads(out)["result"]["strata"]
        assert [r["c2"] for r in rows] == [1, 0, -1]
        assert rows[0]["expected_dim"] - rows[2]["expected_dim"] == (4 * 2 - 2) * 2

    def test_mu_properness(self, capsys):
        code, out = run_cli(
            ["mu", "properness", "--n", "2", "--tau", "0", "--starts", "8", "--seed", "7"],
            capsys,
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["estimate"] == pytest.approx(0.5, abs=1e-8)
        assert result["success"] is True

    def test_mu_check_passes(self, capsys):
        code, out = run_cli(["mu", "check", "--suite", "quartic", "--samples", "50"], capsys)
        assert code == 0
        assert json.loads(out)["result"]["all_passed"] is True

    def test_mu_check_failure_exits_1_with_counterexample(self, capsys, monkeypatch):
        from monopoles import suites
        from monopoles.suites import CheckResult, SuiteReport

        def broken_suite(suite="all", samples=200, seed=0):
            return SuiteReport(
                suite="mu:all",
                seed=seed,
                checks=(
                    CheckResult(
                        "quartic_equals_P2_plus_tau_Q2",
                        False,
                        samples,
                        1.0,
                        1e-10,
                        {"tau": 0.5, "alpha": [1.0], "beta": [0.0]},
                    ),
                ),
            )

        monkeypatch.setattr(suites, "mu_suite", broken_suite)
        code, out = run_cli(["mu", "check", "--suite", "all"], capsys)
        assert code == 1
        report = json.loads(out)
        assert report["result"]["all_passed"] is False
        assert report["result"]["checks"][0]["counterexample"]["alpha"] == [1.0]

    def test_kaehler_margin(self, capsys):
        code, out = run_cli(
            ["kaehler", "margin", "--n", "2", "--tau", "0.5", "--lambda", "1+0i",
             "--starts", "8"],
            capsys,
        )
        result = json.loads(out)["result"]
        assert result["estimate"] == pytest.approx(result["closed_form"], rel=1e-8)

    def test_table_format(self, k3_file, capsys):
        code, out = run_cli(["dim", "pun", "--input", k3_file, "--format", "table"], capsys)
        assert code == 0
        assert "result.expected_dim" in out

    def test_table_spells_literals_as_in_the_json(self, k3_file, capsys):
        for argv, key, token in (
            (["tau0", "--input", k3_file], "result.vanishes_generically", "true"),
            (["schema"], "additionalProperties", "false"),
            (["kaehler", "margin", "--n", "2", "--tau", "0.5", "--lambda", "1", "--starts", "1"],
             "result.success", "null"),
        ):
            _, out = run_cli(argv + ["--format", "table"], capsys)
            assert dict(line.split(None, 1) for line in out.splitlines())[key] == token

    def test_closed_stdout_exits_141_and_prints_nothing(self, capsys):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        with contextlib.redirect_stdout(ClosedPipe()):
            code = main(["schema", "--format", "table"])
        assert code == cli.EXIT_BROKEN_PIPE == 141
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "exc", [RuntimeError("a bug"), OverflowError("int too large to convert to float")], ids=lambda e: type(e).__name__
    )
    def test_internal_error_exits_3_with_one_line(self, exc, monkeypatch, capsys):
        """A bug is no verdict and no bad input: exit 3, one line naming the exception, nothing on stdout."""

        def fail():
            raise exc

        monkeypatch.setattr(cli, "problem_schema", fail)
        code = main(["schema"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_INTERNAL_ERROR == 3
        assert captured.out == ""
        assert captured.err == f"error: internal: {type(exc).__name__}: {exc}\n"

    def test_report_carries_hash_and_version(self, k3_file, capsys):
        _, out = run_cli(["dim", "pun", "--input", k3_file], capsys)
        report = json.loads(out)
        assert set(report) >= {"command", "version", "warnings", "result", "input_sha256"}

    def test_echoed_input_reparses_to_same_canonical_form(self, k3_file, capsys):
        _, out = run_cli(["dim", "pun", "--input", k3_file], capsys)
        report = json.loads(out)
        echoed = report["input"]
        assert input_sha256(echoed) == report["input_sha256"]
        reparsed = parse_problem(echoed)
        assert reparsed.bundle.c2 == 1

    def test_bounds_read_from_problem_file(self, tmp_path, capsys):
        doc = problem_doc()
        doc["bundle"]["c2"] = 0
        doc["bounds"] = {"c_trace": 6.2832, "c_plus": 0.0, "c_minus": 0.0, "g": "identity"}
        path = tmp_path / "census.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli(["reductions", "enumerate", "--input", str(path)], capsys)
        assert code == 0
        assert json.loads(out)["result"]["count"] == 5

    @pytest.mark.parametrize(
        "flags, factorizations, same_bounds",
        [([], 2, True), (["--kmax", "1"], 2, False), (["--c-plus", "0"], 3, True), (["--g", "identity"], 3, False)],
    )
    def test_census_reuses_the_bounds_block_unless_a_flag_overrides_it(
        self, flags, factorizations, same_bounds, tmp_path, monkeypatch, capsys
    ):
        """The block's metric is factored when the problem is parsed and when its ball is walked; a bound flag adds one."""
        doc = problem_doc()
        doc["bounds"] = {"c_trace": 9.0, "c_plus": 0.0, "c_minus": 3.0, "g": [[2, 1], [1, 1]]}
        path = tmp_path / "census.json"
        path.write_text(json.dumps(doc))
        argv = ["reductions", "enumerate", "--input", str(path)]
        _, plain = run_cli(argv, capsys)
        calls = []
        monkeypatch.setattr(reductions, "ldl", lambda g: calls.append(g) or cohomology.ldl(g))
        code, out = run_cli(argv + flags, capsys)
        assert code == 0 and len(calls) == factorizations
        if same_bounds:  # by the block, or by a flag of the block's value
            assert json.loads(out)["result"] == json.loads(plain)["result"]

    def test_metric_file_of_wrong_size_names_the_field(self, hyperbolic_file, tmp_path, capsys):
        g = tmp_path / "g.json"
        g.write_text(json.dumps([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
        argv = ["reductions", "enumerate", "--input", hyperbolic_file, "--c-trace", "6.2832"]
        code = main(argv + ["--g", str(g)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: $.g: ") and "2x2" in err

    def test_metric_file_not_positive_definite_names_the_field(
        self, hyperbolic_file, tmp_path, capsys
    ):
        g = tmp_path / "g.json"
        g.write_text(json.dumps([[1, 2], [2, 1]]))
        argv = ["reductions", "enumerate", "--input", hyperbolic_file, "--c-trace", "6.2832"]
        code = main(argv + ["--g", str(g)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: $.g: ") and "positive definite" in err

    @pytest.mark.parametrize("name, value", [("c_plus", 1e200), ("c_trace", 1e308)])
    @pytest.mark.parametrize("command", [["reductions", "enumerate"], ["dim", "pun"], ["strata"], ["tau0"]])
    def test_bounds_block_whose_square_overflows_exits_2_naming_the_block(
        self, command, name, value, tmp_path, capsys
    ):
        doc = problem_doc()
        doc["bounds"] = {"c_trace": 6.2832, "c_plus": 0.0, "c_minus": 0.0, name: value}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        code = main(command + ["--input", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith(f"error: $.bounds: {name} ")

    @pytest.mark.parametrize("by_flags", [True, False])
    def test_metric_whose_norms_leave_the_float_range_exits_2_naming_the_bound(self, by_flags, tmp_path, capsys):
        """A ball of G = [[10^600]] whose kept classes' norms exceed the float range is refused at its bound."""
        doc = problem_doc(manifold={"name": "CP2", "b1": 0, "intersection_form": [[1]]})
        doc["spinc"], doc["bundle"] = {"c1": [1]}, {"rank": 3, "c1": [0], "c2": 0}
        argv = ["reductions", "enumerate", "--input", str(tmp_path / "p.json")]
        if by_flags:
            (tmp_path / "g.json").write_text(f"[[{10**600}]]")
            argv += ["--g", str(tmp_path / "g.json"), "--c-trace", "1e305", "--c-plus", "1e100", "--c-minus", "1e100"]
        else:
            doc["bounds"] = {"c_trace": 1e305, "c_plus": 1e100, "c_minus": 1e100, "g": [[10**600]]}
        (tmp_path / "p.json").write_text(json.dumps(doc))
        try:
            code = main(argv)
        except SystemExit as exc:  # a flag is refused by the argument parser
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and captured.err.count("\n") == 1
        assert ("argument --c-trace: " if by_flags else "error: $.bounds: c_trace ") in captured.err

    def test_census_with_a_half_integral_dirac_index_exits_2(self, tmp_path, capsys):
        # c1(s) = 0 is not characteristic for diag(1, -1); the first candidate in
        # (c1, rank, stratum, c2) build order is the line subbundle c1(F) = (0, -1), c2 = 0
        # (the ball's first point, (-1, 0), keeps none), whose twisted Dirac index is
        # <c1(F)^2>/2 = -1/2
        doc = problem_doc(manifold={"name": "diag", "b1": 0, "intersection_form": [[1, 0], [0, -1]]})
        doc["bundle"] = {"rank": 3, "c1": [0, 0], "c2": 1}
        path = tmp_path / "odd.json"
        path.write_text(json.dumps(doc))
        code = main(["reductions", "enumerate", "--input", str(path), "--c-trace", "6.2832", "--c-minus", "10"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: $.spinc.c1: inconsistent topological input: twisted Dirac index -1/2 is not an integer\n"

    @pytest.mark.parametrize(
        "command, index",
        [(["dim", "pun"], "-1/4"), (["dim", "un"], "-1/4"), (["strata", "--kmax", "2"], "-1/4"),
         (["reductions", "enumerate", "--c-trace", "3"], "1/4")],
    )
    def test_a_non_integral_dirac_index_names_the_spinc_class(self, command, index, tmp_path, capsys):
        """c1(s) = (1, 1) is not characteristic for the S^2 x S^2 form, so the index is not integral.

        For a characteristic c1(s) on a unimodular form it always is: c1 . c1(s) = c1^2
        mod 2, and c1(s)^2 = sigma mod 8 (van der Blij).
        """
        doc = problem_doc(spinc={"c1": [1, 1]}, bundle={"rank": 3, "c1": [0, 0], "c2": 1})
        path = tmp_path / "s2xs2.json"
        path.write_text(json.dumps(doc))
        code = main([*command, "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (
            f"error: $.spinc.c1: inconsistent topological input: twisted Dirac index {index} is not an integer\n"
        )

    def test_census_too_large_is_refused_before_it_is_built(self, tmp_path, capsys):
        doc = problem_doc()
        doc["bundle"]["rank"] = 4
        path = tmp_path / "rank4.json"
        path.write_text(json.dumps(doc))
        argv = ["reductions", "enumerate", "--input", str(path), "--c-trace", "1", "--c-plus", "0", "--c-minus", "1e6"]
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: census too large: the energy bounds c_plus = 0.0 and c_minus = 1000000.0 ")
        assert elapsed < 1.0

    def test_census_made_large_by_kmax_is_refused_naming_k_max(self, tmp_path, capsys):
        doc = problem_doc()
        doc["bundle"]["rank"] = 3
        path = tmp_path / "rank3.json"
        path.write_text(json.dumps(doc))
        argv = ["reductions", "enumerate", "--input", str(path), "--c-trace", "7", "--c-plus", "3", "--c-minus", "9"]
        assert main(argv + ["--kmax", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["count"] == 25
        start = time.perf_counter()
        code = main(argv + ["--kmax", "100000000"])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.count("\n") == 1 and "k_max = 100000000" in captured.err
        assert elapsed < 1.0

    @pytest.mark.parametrize(
        "flag, options, field",
        [(["--kmax", "200000"], {}, "--kmax"), ([], {"kmax": 10**400}, "$.options.kmax")],
    )
    def test_strata_past_the_row_cap_are_refused_before_they_are_built(self, flag, options, field, tmp_path, capsys):
        path = tmp_path / "strata.json"
        path.write_text(json.dumps(problem_doc(options=options)))  # 10**400 is written as an integer literal
        start = time.perf_counter()
        code = main(["strata", "--input", str(path), *flag])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and elapsed < 1.0
        assert captured.err == (
            f"error: {field}: too many strata: k_max must be below {MAX_STRATA_ROWS}, the cap on strata rows\n"
        )

    @pytest.mark.parametrize(
        "flag, bounds, field",
        [(["--c-trace", "1e5"], None, "--c-trace"),
         ([], {"c_trace": 1e5, "c_plus": 0, "c_minus": 0}, "$.bounds.c_trace")],
    )
    def test_a_ball_past_the_point_cap_exits_2_naming_the_trace_bound(self, flag, bounds, field, tmp_path):
        """In a child with 512 MiB of address space: the uncapped ball of radius^2 ~ 2.5e8 ends in MemoryError."""
        doc = problem_doc(
            manifold={"name": "b3", "b1": 0, "intersection_form": [[1, 0, 0], [0, -1, 0], [0, 0, -1]]},
            spinc={"c1": [1, 1, 1]},
            bundle={"rank": 2, "c1": [0, 0, 0], "c2": 1},
        )
        if bounds is not None:
            doc["bounds"] = bounds
        path = tmp_path / "b3.json"
        path.write_text(json.dumps(doc))
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (2**29, 2**29))

        proc = subprocess.run(
            [sys.executable, "-m", "monopoles", "reductions", "enumerate", "--input", str(path), *flag],
            capture_output=True, text=True, env=env, timeout=60, preexec_fn=limit_address_space, check=False,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            f"error: {field}: ball too large: more than {MAX_BALL_POINTS} lattice points lie in the trace "
            "bound's ball (radius squared 2.53303e+08), the cap on ball points\n"
        )

    @pytest.mark.parametrize(
        "command, block, key, value, field",
        [
            ("reductions enumerate --c-trace 1", "manifold", "b2plus", None, "$.manifold.b2plus"),
            ("reductions enumerate --c-trace 1", "manifold", "b1", -1, "$.manifold.b1"),
            ("reductions enumerate --c-trace 1", "bundle", "rank", 0, "$.bundle.rank"),
            ("reductions enumerate --c-trace 1", "bounds", "c_trace", 10**400, "$.bounds.c_trace"),
            ("reductions enumerate --c-trace 1", "bounds", "c_minus", -10**400, "$.bounds.c_minus"),
            # a line bundle is a valid problem, but no PU(N) bundle
            ("dim pun", "bundle", "rank", 1, "$.bundle.rank"),
            ("dim asd", "bundle", "rank", 1, "$.bundle.rank"),
            ("strata", "bundle", "rank", 1, "$.bundle.rank"),
            ("reductions enumerate --c-trace 1", "bundle", "rank", 1, "$.bundle.rank"),
        ],
    )
    def test_problem_file_fault_exits_2_naming_its_field(self, command, block, key, value, field, tmp_path, capsys):
        doc = problem_doc(bundle={"rank": 2, "c1": [0, 0], "c2": 0})  # c2 = 0 admits rank 1
        doc.setdefault(block, {"c_trace": 6.2832, "c_plus": 0, "c_minus": 0})[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))  # a huge integer is written as an integer literal
        code = main([*command.split(), "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith(f"error: {field}: ")

    def test_integer_literal_beyond_the_digit_limit_is_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "digits.json"
        path.write_text(json.dumps(problem_doc()).replace('"c2": 1', '"c2": ' + "1" * 5000))
        code = main(["dim", "pun", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: $: malformed JSON: Exceeds the limit")

    def test_census_walks_no_stratum_past_the_last_kept(self, tmp_path, monkeypatch, capsys):
        """Rank N-1 keeps at most one stratum per class; the strata past the last are counted as pruned."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "problem.json").write_text(json.dumps(problem_doc()))
        argv = ["reductions", "enumerate", "--input", "problem.json", "--c-trace", "6.2832", "--kmax", "100000"]
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0
        # the report of the census that walked all 100 001 strata, re-taken once each candidate
        # took one line; it parses equal to the indented report of digest 6aa55e45...
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "ef9ec15873961b6e9e7ecb56f37b97db089d5c9ef39f34b9e50456861e1fe4d6"
        )
        assert json.loads(out)["result"]["pruned_inconsistent"] == 5 * 100000
        (tmp_path / "huge.json").write_text(json.dumps(problem_doc(options={"kmax": 10**400})))
        start = time.perf_counter()
        code = main(["reductions", "enumerate", "--input", "huge.json", "--c-trace", "6.2832"])
        elapsed = time.perf_counter() - start
        result = json.loads(capsys.readouterr().out)["result"]
        assert code == 0 and elapsed < 1.0
        assert result["count"] == 5 and result["pruned_inconsistent"] == 5 * 10**400

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["mu", "properness", "--n", "2", "--tau", "nan"], "--tau"),
            (["mu", "properness", "--n", "2", "--tau", "0.5", "--tol", "inf"], "--tol"),
            (["kaehler", "margin", "--n", "2", "--tau", "inf", "--lambda", "1"], "--tau"),
            (["kaehler", "margin", "--n", "2", "--tau", "0.5", "--lambda", "nan"], "--lambda"),
            (["mu", "check", "--samples", "0"], "--samples"),
            (["kaehler", "check", "--samples", "-1"], "--samples"),
            (["reductions", "enumerate", "--input", "p.json", "--c-trace", "inf"], "--c-trace"),
            (["reductions", "enumerate", "--input", "p.json", "--c-plus", "nan"], "--c-plus"),
            (["reductions", "enumerate", "--input", "p.json", "--c-minus", "-1"], "--c-minus"),
            (["reductions", "enumerate", "--input", "p.json", "--c-plus", "1e200"], "--c-plus"),  # square overflows
            (["reductions", "enumerate", "--input", "p.json", "--c-minus", "1e200"], "--c-minus"),
            (["reductions", "enumerate", "--input", "p.json", "--kmax", "-1"], "--kmax"),
            (["strata", "--input", "p.json", "--kmax", "-1"], "--kmax"),
            (["kaehler", "margin", "--n", "1", "--tau", "0.5", "--lambda", "1"], "--n"),
            (["kaehler", "margin", "--n", "2", "--tau", "0", "--lambda", "1"], "--tau"),
            (["kaehler", "margin", "--n", "2", "--tau", "1.5", "--lambda", "1"], "--tau"),
            (["mu", "properness", "--n", "0", "--tau", "0.5"], "--n"),
            (["kaehler", "margin", "--n", "2", "--tau", "0.5", "--lambda", "--starts", "2"], "--lambda"),
            (["mu", "properness", "--n", "2", "--tau", "0.5", "--seed", "-1"], "--seed"),
            (["mu", "check", "--seed", "-1"], "--seed"),
            (["kaehler", "check", "--seed", "-1"], "--seed"),
            (["kaehler", "margin", "--n", "2", "--tau", "0.5", "--lambda", "1", "--seed", "-1"], "--seed"),
            (["mu", "properness", "--n", "2", "--tau", "0.5", "--tol", "-1"], "--tol"),
            (["mu", "check", "--suite", "bogus"], "--suite"),
            (["kaehler", "check", "--suite", "nope"], "--suite"),
            (["reductions", "enumerate", "--input", "p.json", "--c-trace", "1e155"], "--c-trace"),  # square overflows
        ],
    )
    def test_bad_numeric_flag_exits_2_naming_the_flag(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and f"argument {flag}: " in captured.err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["kaehler", "margin", "--n", "2", "--tau", "0.5", "--lambda", "1e300"], "--lambda"),
            (["mu", "properness", "--n", "2", "--tau", "1e300"], "--tau"),
        ],
    )
    def test_overflowing_estimate_exits_2_naming_the_flag(self, argv, flag, capsys):
        code = main(argv + ["--starts", "2"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: argument {flag}: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["kaehler", "margin", "--n", "2", "--tau", "0.5", "--lambda", "-3-4i"],
            ["kaehler", "margin", "--n", "2", "--tau", "0.5", "--lambda", "-1e3"],
            ["kaehler", "margin", "--n", "2", "--tau", "0.5", "--lambda", "-2i"],
            ["mu", "properness", "--n", "2", "--tau", "-1e-3"],
        ],
    )
    def test_negative_value_in_exponent_or_complex_form_reaches_its_flag(self, argv, capsys):
        argv = argv + ["--starts", "2"]
        flag, value = argv[-4], argv[-3]
        code, out = run_cli(argv, capsys)
        assert code == 0
        report = json.loads(out)
        assert report["command"] == argv  # echoed as typed
        attached = argv[:-4] + [f"{flag}={value}"] + argv[-2:]
        code, out = run_cli(attached, capsys)
        assert code == 0 and json.loads(out)["result"] == report["result"]

    def test_non_finite_number_in_problem_file_names_the_field(self, tmp_path, capsys):
        doc = problem_doc()
        doc["bounds"] = {"c_trace": 1.0, "c_plus": float("nan"), "c_minus": 0.0}
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))  # Python writes the non-standard NaN token
        code = main(["dim", "pun", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: $.bounds.c_plus: ")

    def test_schema_command(self, capsys):
        code, out = run_cli(["schema"], capsys)
        assert code == 0
        schema = json.loads(out)
        assert schema["required"] == ["manifold", "spinc", "bundle"]

    def test_timing_is_opt_in(self, k3_file, hyperbolic_file, capsys):
        """Every command: ``--timing`` adds ``timing_seconds`` to the report and changes nothing else."""
        for command in (
            ["dim", "pun", "--input", k3_file],
            ["dim", "un", "--input", k3_file],
            ["dim", "asd", "--input", k3_file],
            ["strata", "--input", hyperbolic_file, "--kmax", "2"],
            ["reductions", "enumerate", "--input", hyperbolic_file, "--c-trace", "6.2832", "--c-minus", "8.89"],
            ["tau0", "--input", k3_file],
            ["schema"],
            ["mu", "properness", "--n", "2", "--tau", "0.5", "--starts", "1"],
            ["mu", "check", "--suite", "quartic", "--samples", "1"],
            ["kaehler", "check", "--suite", "brace", "--samples", "1"],
            ["kaehler", "margin", "--n", "2", "--tau", "0.5", "--lambda", "1+0i", "--starts", "1"],
        ):
            _, out = run_cli(command, capsys)
            untimed = json.loads(out)
            assert "timing_seconds" not in untimed
            _, out = run_cli(command + ["--timing"], capsys)
            timed = json.loads(out)
            assert timed.pop("timing_seconds") >= 0.0
            if "command" in untimed:  # the envelope echoes the arguments
                untimed["command"].append("--timing")
            assert timed == untimed, command

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "monopoles" in capsys.readouterr().out


def test_python_dash_m_runs_the_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "monopoles", "--version"], capture_output=True, check=False
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().startswith("monopoles ")


def test_cached_parser_leaks_nothing_between_calls(tmp_path, monkeypatch):
    """One process, many ``main`` calls on one parser tree: each prints what a fresh process prints."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p.json").write_text(json.dumps(problem_doc()))
    cases = [
        ["strata", "--input", "p.json", "--kmax", "2", "--dirac-multiplicity", "1"],
        ["strata", "--input", "p.json"],  # neither flag carries over
        ["dim", "pun", "--input", "p.json", "--format", "table"],
        ["dim", "pun", "--input", "p.json"],
        ["reductions", "enumerate", "--input", "p.json", "--c-trace", "6.2832", "--kmax", "1"],
        ["reductions", "enumerate", "--input", "p.json"],  # exit 2: no --c-trace this time
        ["strata", "--input", "p.json", "--kmax", "-1"],  # usage error, exit 2
        ["--version"],
        ["no-such-command"],
        [],
        ["kaehler", "margin", "--n", "2", "--tau", "0.5", "--lambda", "-1-2i", "--starts", "2", "--format", "table"],
        ["schema"],
        ["strata", "--input", "p.json", "--kmax", "2", "--dirac-multiplicity", "1"],
    ]

    def in_process(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    parser = cli._build_parser()
    got = [in_process(argv) for argv in cases]
    assert cli._build_parser() is parser
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for argv, result in zip(cases, got):
        proc = subprocess.run(
            [sys.executable, "-m", "monopoles", *argv], capture_output=True, text=True, env=env, check=False
        )
        assert result == (proc.returncode, proc.stdout, proc.stderr), argv
    assert {code for code, _, _ in got} == {0, 2}


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_pipe_exits_141_with_empty_stderr(unbuffered):
    """Buffered, the error surfaces at the flush; unbuffered, in the write itself."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "monopoles", "schema"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONUNBUFFERED=unbuffered),
    )
    proc.stdout.close()  # long before the interpreter has started and written
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


class TestDeterminism:
    def _run_subprocess(self, argv, threads):
        env = dict(os.environ, MONOPOLES_THREADS=str(threads))
        proc = subprocess.run(
            [sys.executable, "-m", "monopoles.cli", *argv],
            capture_output=True,
            env=env,
            check=False,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    def test_byte_identical_reports_across_runs_and_thread_settings(self):
        argv = ["mu", "properness", "--n", "3", "--tau", "0.25", "--starts", "6", "--seed", "11"]
        a = self._run_subprocess(argv, threads=1)
        b = self._run_subprocess(argv, threads=8)
        c = self._run_subprocess(argv, threads=1)
        assert a == b == c

    def test_census_reports_byte_identical(self, tmp_path):
        doc = problem_doc()
        doc["bundle"]["c2"] = 0
        doc["bounds"] = {"c_trace": 7.0, "c_plus": 3.0, "c_minus": 9.0, "g": "identity"}
        path = tmp_path / "census.json"
        path.write_text(json.dumps(doc))
        argv = ["reductions", "enumerate", "--input", str(path), "--kmax", "1"]
        a = self._run_subprocess(argv, threads=1)
        b = self._run_subprocess(argv, threads=4)
        assert a == b

    def test_different_seed_changes_per_start_values(self):
        a = self._run_subprocess(
            ["mu", "properness", "--n", "3", "--tau", "0", "--starts", "4", "--seed", "1"], 1
        )
        b = self._run_subprocess(
            ["mu", "properness", "--n", "3", "--tau", "0", "--starts", "4", "--seed", "2"], 1
        )
        assert json.loads(a)["result"]["values_per_start"] != json.loads(b)["result"]["values_per_start"]


def _reject_constant(token):
    raise ValueError(f"non-strict JSON constant {token}")


# every suite check except the two that run multistart optimizations
FUZZ_SUITES = [("mu", name) for name, _ in _MU_CHECKS if name != "properness"] + [
    ("kaehler", name) for name, _ in _KAEHLER_CHECKS if name != "margin"
]


@settings(max_examples=15, deadline=None)
@given(
    suite=st.sampled_from(FUZZ_SUITES),
    samples=st.integers(1, 4),
    seed=st.integers(0, 50),
)
def test_suite_check_cli_fuzz(suite, samples, seed):
    """Small `mu check`/`kaehler check` runs end in exit 0/1 with strict JSON, or exit 2."""
    kind, name = suite
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([kind, "check", "--suite", name, "--samples", str(samples), "--seed", str(seed)])
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        return
    report = json.loads(out.getvalue(), parse_constant=_reject_constant)["result"]
    assert report["all_passed"] is (code == 0)
    assert len(report["checks"]) == 1 and report["checks"][0]["samples"] >= 1


# small census problems: the hyperbolic plane with rank-2 and rank-3 bundles
FUZZ_PROBLEMS = [
    problem_doc(),
    problem_doc(bundle={"rank": 2, "c1": [0, 0], "c2": 0}),
    problem_doc(bundle={"rank": 3, "c1": [1, 0], "c2": 1}),
]


@pytest.fixture(scope="module")
def fuzz_problem_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    paths = []
    for i, doc in enumerate(FUZZ_PROBLEMS):
        path = root / f"p{i}.json"
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    return paths


_FUZZ_TAUS = ("0", "0.05", "0.5", "1", "1.5")
_fuzz_argv = st.one_of(
    st.tuples(
        st.just(("mu", "properness")),
        st.integers(1, 4), st.sampled_from(_FUZZ_TAUS), st.integers(1, 4), st.integers(0, 50),
    ).map(lambda t: [*t[0], "--n", str(t[1]), "--tau", t[2], "--starts", str(t[3]), "--seed", str(t[4])]),
    st.tuples(
        st.just(("kaehler", "margin")),
        st.integers(1, 4), st.sampled_from(_FUZZ_TAUS), st.sampled_from(("0", "1", "2i", "3-4i", "-1e3")),
        st.integers(1, 4), st.integers(0, 50),
    ).map(lambda t: [*t[0], "--n", str(t[1]), "--tau", t[2], f"--lambda={t[3]}",
                     "--starts", str(t[4]), "--seed", str(t[5])]),
    st.tuples(
        st.integers(0, len(FUZZ_PROBLEMS) - 1),
        st.sampled_from(("0", "3", "6.2832", "9.5")),
        st.sampled_from(("0", "3", "9", "1e200")),
        st.sampled_from(("0", "3", "9", "1e200")),
        st.integers(-1, 2),
        st.booleans(),
    ).map(lambda t: ["reductions", "enumerate", "--input", t[0], "--c-trace", t[1], "--c-plus", t[2],
                     "--c-minus", t[3], "--kmax", str(t[4])] + (["--g", "identity"] if t[5] else [])),
)


@settings(max_examples=25, deadline=None)
@given(argv=_fuzz_argv)
def test_optimizer_and_census_cli_fuzz(fuzz_problem_files, argv):
    """Small `mu properness`/`kaehler margin`/`reductions enumerate` runs end in exit 0/1 with
    strict JSON, or in exit 2 with one `error:` line."""
    if argv[0] == "reductions":
        argv = [*argv[:3], fuzz_problem_files[argv[3]], *argv[4:]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # a usage error, reported by the argument parser
            code = exc.code
    assert code in (0, 1, 2)
    if code == 2:
        message = err.getvalue()
        assert message.startswith(("error: ", "monopoles ")) and "error: " in message
        assert message.count("\n") == 1 and out.getvalue() == ""
        return
    report = json.loads(out.getvalue(), parse_constant=_reject_constant)
    assert report["command"] == argv
