"""The package surface: lazy exports, and numpy kept off the exact paths."""

import ast
import hashlib
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import monopoles


def test_every_export_is_its_submodules_object():
    for name in monopoles.__all__:
        module = importlib.import_module(f"monopoles.{monopoles._SOURCE[name]}")
        value = getattr(monopoles, name)
        assert value is getattr(module, name)
        assert value.__module__ == module.__name__
        assert vars(monopoles)[name] is value  # cached after the first read


def test_all_is_sorted_and_complete():
    assert monopoles.__all__ == sorted(set(monopoles.__all__))
    assert len(monopoles.__all__) == 40
    assert set(dir(monopoles)) >= set(monopoles.__all__)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from monopoles import *", namespace)
    for name in monopoles.__all__:
        assert namespace[name] is getattr(monopoles, name)


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        monopoles.no_such_name  # noqa: B018


def test_no_export_shadows_a_submodule():
    submodules = {info.name for info in pkgutil.iter_modules(monopoles.__path__)}
    assert submodules >= {"cohomology", "kaehler", "mu_kernel", "optim", "reductions"}
    assert not submodules & set(monopoles.__all__)


def _top_level_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield from (t.id for t in ast.walk(target) if isinstance(t, ast.Name))


def test_every_private_top_level_name_is_used():
    """A private function, class or constant that only its definition names is dead code."""
    sources = {p.name: p.read_text() for p in sorted(Path(monopoles.__file__).parent.glob("*.py"))}
    text = "\n".join(sources.values())
    unused = [
        f"{file}: {name}"
        for file, source in sources.items()
        for name in _top_level_names(ast.parse(source))
        if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
        and len(re.findall(rf"\b{re.escape(name)}\b", text)) < 2
    ]
    assert not unused, unused


# imported for the benchmark tracer alone, which wraps them under these names
_TRACER_IMPORTS = {("reductions.py", "p1_su"), ("suites.py", "properness_constant_estimate")}


def test_every_imported_name_is_used():
    """A name a module imports but never uses outside its imports is a leftover."""
    unused = set()
    for path in sorted(Path(monopoles.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                # "import a.b" binds "a"
                bound = (alias.asname or alias.name.partition(".")[0] for alias in node.names)
                unused.update((path.name, name) for name in bound if name not in used)
    assert unused == _TRACER_IMPORTS, sorted(unused ^ _TRACER_IMPORTS)


# Runs in a fresh interpreter: this test process has numpy loaded already.
_BOUNDARY_SCRIPT = """
import contextlib, io, json, sys

import monopoles, monopoles.cli, monopoles.cohomology, monopoles.jsonio, monopoles.reductions

def loaded_now():
    return sorted(m for m in ("numpy", "_hashlib") if m in sys.modules)

loaded = {"import": loaded_now()}
path = sys.argv[1]
commands = {
    "dim pun": ["dim", "pun", "--input", path],
    "dim un": ["dim", "un", "--input", path],
    "dim asd": ["dim", "asd", "--input", path],
    "reductions enumerate": ["reductions", "enumerate", "--input", path, "--c-trace", "6.2832"],
    "strata": ["strata", "--input", path, "--kmax", "2"],
    "tau0": ["tau0", "--input", path],
    "schema": ["schema"],
    "dim pun --format table": ["dim", "pun", "--input", path, "--format", "table"],
    "mu check": ["mu", "check", "--suite", "quartic", "--samples", "2"],
}
codes = {}
for label, argv in commands.items():
    with contextlib.redirect_stdout(io.StringIO()):
        codes[label] = monopoles.cli.main(argv)
    loaded[label] = loaded_now()
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_exact_commands_never_import_numpy(tmp_path):
    """Nor OpenSSL: the input digest comes from CPython's built-in SHA-256, where ``hashlib`` would load ``_hashlib``."""
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({
        "manifold": {"name": "S2xS2-like", "b1": 0, "intersection_form": [[0, 1], [1, 0]]},
        "spinc": {"c1": [0, 0]},
        "bundle": {"rank": 2, "c1": [0, 0], "c2": 1},
    }))
    src = str(Path(monopoles.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", _BOUNDARY_SCRIPT, str(problem)],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert set(out["codes"].values()) == {0}, out["codes"]
    loaded = out["loaded"]
    assert "numpy" in loaded.pop("mu check")
    assert not any(loaded.values()), loaded


def test_benchmark_self_tests_pass():
    """The benchmark patches and calls the package by name; a rename fails its tests."""
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "perfbench/tests", "-q"],
        capture_output=True, text=True, cwd=root, check=False,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


_DEMOS = Path(__file__).resolve().parents[1] / "demos"


def _run_demo(demo: str) -> subprocess.CompletedProcess:
    src = str(Path(monopoles.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, str(_DEMOS / demo)], capture_output=True, text=True, env=env, check=False,
    )


@pytest.mark.parametrize("demo", sorted(p.name for p in _DEMOS.glob("*.py")))
def test_demo_runs_cleanly(demo):
    """Each demo script exits 0 and writes nothing to stderr."""
    proc = _run_demo(demo)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


# The exact demos' stdout, by sha256; the two floating-point demos are left out, as
# their bytes depend on the BLAS build.
_DEMO_DIGESTS = {
    "expected_dimensions.py": "a98ac3c21d3e86d51699992cecf2b04a958209d00ced3c8fffd7fc17adf84559",
    "reduction_census.py": "24292dc8877928431ebf3780ce1d9c97e91270b525525618537f43ba1ca6a54d",
}


@pytest.mark.parametrize("demo", sorted(_DEMO_DIGESTS))
def test_exact_demo_prints_pinned_bytes(demo):
    """Covers ``pun_dimension_report``, ``uhlenbeck_strata`` and ``ReductionCandidate.F``, which no report pin reaches."""
    proc = _run_demo(demo)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest() == _DEMO_DIGESTS[demo]
