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
# (the json reports again once each row took one line; each parses equal to its old report)
# (the envelope tables again once an empty list or object printed as a row: each gained `warnings  []`)
DIGESTS = {
    ("dim asd", "json"): "a925d4ddae5d416ae60156db58f39138255536d44ef9ff5dc8ebde570bf90632",
    ("dim asd", "table"): "257d23f6d9d6cd56c2c8606b89cff100fa82e11c5463aec4c7ba7c4ea7fc2158",
    ("dim pun", "json"): "9917c70e89ef9d196c1556d7b497dd399cc7f4e8d98c5efe1737044c61ac62ab",
    ("dim pun", "table"): "86dcc4b13763487fa1ec29dbc8acc0c77acd8ad01feb08c32c343a6f73422662",
    ("dim un", "json"): "de95cabfcd4aad048939d38cc04676713c1807fc2e28554b15fe7a56251756ce",
    ("dim un", "table"): "59ec733f5d4819d72d78a8e6353a1a55fed0119826613962bbf080fbea6cad78",
    ("reductions enumerate", "json"): "b377ff2721196cafc0bd923542e1b08f9566222e0179b594c0deffda16f3f173",
    ("reductions enumerate", "table"): "19f69160f54085490438bb21c8b743093fbeb8774098077589e300f1989dc6c0",
    ("reductions enumerate (file bounds)", "json"): "48bfeda17bae5f06c7c03ef78df9e48cf781ff58abf1adbd40f627f576dba096",
    ("reductions enumerate (file bounds)", "table"): "f0977ad440981d6670682c7936766013e17f1569b34e12b7262356c4fa9d4c8e",
    ("schema", "json"): "168c6b8d8005b408063876ddd5c08555dea2c60332c6e9d1e671926da4773299",
    ("schema", "table"): "525bf48a0c3f832e7ebf789d67ebf8fbd73727ab966875cc8cfdf75806d7f583",
    ("strata", "json"): "1b8e8edbe7908de26374140b0b2f23d7aa905fb6e906e7846a1087d51fbd3a9f",
    ("strata", "table"): "54c835fa16bcacbebd27678a60b03996f723dfe1499372c495aa19070dd730cb",
    ("tau0", "json"): "71edbc6fa13ec3f97cb46f132680e457b5ac1cb69ec1baca37afd759ea87404c",
    ("tau0", "table"): "7795ebb79f144f30c703bccf2ff79cae931ca4eb3d0083362a57b366a1439e12",
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
