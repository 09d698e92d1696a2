"""The exact commands' reports, pinned byte for byte by their sha256.

A refactor must leave the reports byte-identical, or explain every byte
that changed (ROADMAP aim 2). The commands run from a fixed relative path,
so the echoed ``command`` does not vary. The floating-point commands
(``mu``, ``kaehler``) are left out: their bytes depend on the BLAS build.
Every report echoes the package version, so a version bump moves every
digest; so does any change of the report format, which must be deliberate.
"""

import hashlib
import json

import pytest

from monopoles.cli import main

# CP2 # 2(-CP2): an odd form of signature -1 with a characteristic Spin^c class; the
# options make ``dim`` and ``strata`` read the multiplicity and kmax from the file
PROBLEM = {
    "manifold": {"name": "CP2#2-CP2bar", "b1": 0, "intersection_form": [[1, 0, 0], [0, -1, 0], [0, 0, -1]]},
    "spinc": {"c1": [1, 1, 1]},
    "bundle": {"rank": 3, "c1": [1, 0, 1], "c2": 2},
    "options": {"kmax": 2, "dirac_multiplicity": 1},
}
# S^T D S with S = [[1, 1/2, 0], [0, 1, -1], [0, 0, 1]] and D = diag(1, 1, 2)
SHEARED_METRIC = [
    [1, {"num": 1, "den": 2}, 0],
    [{"num": 1, "den": 2}, {"num": 5, "den": 4}, -1],
    [0, -1, 3],
]
# the census path of the benchmark: the problem file carries its own bounds block
BOUNDED_PROBLEM = {**PROBLEM, "bounds": {"c_trace": 12, "c_plus": 4, "c_minus": 9, "g": SHEARED_METRIC}}

COMMANDS = {
    "dim pun": ["dim", "pun", "--input", "problem.json"],
    "dim un": ["dim", "un", "--input", "problem.json"],
    "dim asd": ["dim", "asd", "--input", "problem.json"],
    "strata": ["strata", "--input", "problem.json"],
    "tau0": ["tau0", "--input", "problem.json"],
    "schema": ["schema"],
    "reductions enumerate": [
        "reductions", "enumerate", "--input", "problem.json", "--c-trace", "12", "--c-plus", "4",
        "--c-minus", "9", "--g", "g.json", "--kmax", "1",
    ],
    "reductions enumerate (file bounds)": ["reductions", "enumerate", "--input", "bounded.json"],
}

# taken with the serializer that converted a whole report before encoding it; the
# tau0 and schema tables again once a table printed true/false/null as JSON tokens,
# and the dim pun/un reports again once they dropped dirac_index_exact, which always
# equalled dirac_index
DIGESTS = {
    ("dim asd", "json"): "e0532cbe71e4d9ac9cbbf8df7ba6647bec80c37dd8901c798ea09af42b437571",
    ("dim asd", "table"): "ecc3dbe2b57135fa3b987f7e1fdea1eca6989c2adca6acfaa7def9505ce1a79e",
    ("dim pun", "json"): "54951e0d573a134b5443700e432eae2e86b9bf8f88bc3dd24568bc1ff715302d",
    ("dim pun", "table"): "bc54e25aa52b5262ffec2a33a78e26cfe23de2049213575b4de0b766cd8d2422",
    ("dim un", "json"): "9717e087b5cc9da2cb5e50df61951c4e87e9a91b8bfb73b99a5d59dc6a161364",
    ("dim un", "table"): "d4ea6661fb3389a07ffa73059af4ad4923f38d4b21f51063f525b3a8d1c5abc7",
    ("reductions enumerate", "json"): "014961bdfeacf8250876db7661ff0bd0ac1fd56d34cd94ff59279d2e20894876",
    ("reductions enumerate", "table"): "725c7ed2d75f726635cb9872d4d72716a0b5f820ba97f56d77e06faeb4b0328e",
    ("reductions enumerate (file bounds)", "json"): "5ca8ee0d7b389ea75e8712cc589d6008cc446dc483d7abfee56f06527aea7055",
    ("reductions enumerate (file bounds)", "table"): "4a60646a2cdf3a061e6d8525288e851ec3927f5212f77c789ca7787491dc4c6d",
    ("schema", "json"): "d8d78b5d2e9057b537d3d7224e59cdab049e69a574dbedf3b98a828c77699bad",
    ("schema", "table"): "525bf48a0c3f832e7ebf789d67ebf8fbd73727ab966875cc8cfdf75806d7f583",
    ("strata", "json"): "f1dd3e33336d2c12e2ef2a28ea3dd4ac33f4fa0b37e2a4604a53bcd35befd912",
    ("strata", "table"): "3b1f1aec3043cdfa7bc8ee75b33198632845b5148644bf9842bab1043db09274",
    ("tau0", "json"): "562fb5e9979649a151c9096f02015489c4fe65cb16ec73dfd61f941838806246",
    ("tau0", "table"): "77e7f657f20b598e69eb93f17722cb93a24d3404afa257968d075a1f6747b596",
}


@pytest.fixture
def problem_dir(tmp_path, monkeypatch):
    (tmp_path / "problem.json").write_text(json.dumps(PROBLEM))
    (tmp_path / "g.json").write_text(json.dumps(SHEARED_METRIC))
    (tmp_path / "bounded.json").write_text(json.dumps(BOUNDED_PROBLEM))
    monkeypatch.chdir(tmp_path)


def report_digest(argv, capsys) -> str:
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return hashlib.sha256(captured.out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("label", sorted(COMMANDS))
def test_exact_report_is_byte_identical(label, fmt, problem_dir, capsys):
    argv = COMMANDS[label] + ([] if fmt == "json" else ["--format", fmt])
    assert report_digest(argv, capsys) == DIGESTS[label, fmt]
