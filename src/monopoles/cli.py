"""Command-line entry point.

One executable, subcommands per computation:

    monopoles dim pun --input problem.json
    monopoles dim un --input problem.json --dirac-multiplicity 1
    monopoles dim asd --input problem.json
    monopoles reductions enumerate --input problem.json --c-trace 6.2832 \
        --c-plus 0 --c-minus 8.89 --g identity --kmax 2
    monopoles strata --input problem.json --kmax 3
    monopoles mu properness --n 3 --tau 0 --starts 64 --seed 7
    monopoles mu check --suite all --samples 1000 --seed 7
    monopoles kaehler check --suite all --seed 7
    monopoles kaehler margin --n 2 --tau 0.5 --lambda 1+0i
    monopoles tau0 --input problem.json

Reports go to stdout as canonical JSON (``--format table`` prints the
leaves of that same document as aligned rows).  Exit codes: 0 success, 1 a
checked property failed (the counterexample is serialized in the report), 2
invalid input, 3 an internal error (one line on stderr, ``error: internal:
<Type>: <message>``, and nothing on stdout), 141 (128 + SIGPIPE) stdout was
closed before the report was written, which prints nothing.  Reports are
byte-identical given the same input, seed and package version; wall-clock
timing is only attached on request (``--timing``, which every command
takes), since it would break that reproducibility.  The environment variable ``MONOPOLES_THREADS`` is
ignored: nothing reads it, so it cannot affect results.

Each ``_run_*`` handler returns ``(report, exit code)`` and writes nothing:
:func:`main` is the one writer, which adds ``timing_seconds`` under
``--timing`` and prints the report once.

The exact commands (``dim``, ``reductions``, ``strata``, ``tau0``,
``schema``) run without numpy.  The numeric layers behind ``mu`` and
``kaehler`` (``mu_kernel``, ``kaehler``, ``suites``) are imported by their
handlers on first use, which is when numpy loads.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import functools
import io
import json
import math
import os
import re
import sys
import time
import warnings

from . import __version__
from .cohomology import (
    InconsistentTopologyError,
    asd_dimension_report,
    characteristic_defects,
    pun_dimension_report,
    un_dimension_report,
)
from .jsonio import (
    Problem,
    ValidationError,
    _read_json,
    canonical_dumps,
    input_sha256,
    load_problem,
    parse_metric,
    problem_schema,
    to_jsonable,
)
from .reductions import (
    MAX_STRATA_ROWS,
    BallTooLargeError,
    CurvatureBounds,
    enumerate_reductions,
    generic_tau0_vanishing,
    identity_metric,
    uhlenbeck_strata,
)

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_INVALID_INPUT = 2
EXIT_INTERNAL_ERROR = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, the status of a writer killed by a closed pipe


def _flag_type(parse, accept, expected: str):
    """An argparse ``type``: ``parse`` the text, then insist on ``accept(value)``."""

    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return convert


_finite_float = _flag_type(float, math.isfinite, "a finite number")
_nonnegative_float = _flag_type(
    float, lambda v: math.isfinite(v) and v >= 0.0, "a finite nonnegative number"
)
_positive_int = _flag_type(int, lambda v: v >= 1, "an integer >= 1")
_nonnegative_int = _flag_type(int, lambda v: v >= 0, "an integer >= 0")
# '1+0i', '2i', '-0.5-1.5i' (also 'j' notation)
_finite_complex = _flag_type(
    lambda text: complex(text.strip().replace("i", "j")), cmath.isfinite, "a finite complex number"
)


def _suite_flag(kind: str):
    """The ``--suite`` type of ``mu check`` or ``kaehler check``: ``all`` or one of the suite's checks.

    The names live in the numpy layer, imported here only for a name other than ``all``.
    """

    def convert(text: str):
        if text == "all":
            return text
        from . import suites

        checks = suites._MU_CHECKS if kind == "mu" else suites._KAEHLER_CHECKS
        names = ["all", *(name for name, _ in checks)]
        return _flag_type(str, names.__contains__, f"one of {names}")(text)

    return convert


class _Parser(argparse.ArgumentParser):
    """Usage errors as one line on stderr, exit 2: ``<prog>: error: argument --flag: ...``."""

    def error(self, message):
        self.exit(EXIT_INVALID_INPUT, f"{self.prog}: error: {message}\n")


# argparse takes a '-' token for an option unless it is a plain negative decimal;
# no option here starts with '-' and a digit, so such a token is always a value
_NEGATIVE_VALUE = re.compile(r"-\.?\d")


def _attach_negative_values(argv: list[str]) -> list[str]:
    """``--flag -3-4i`` as ``--flag=-3-4i``, for negative values in exponent or complex form."""
    out = []
    for token in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and _NEGATIVE_VALUE.match(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on the first :func:`main` call.

    Parsing reads the tree and never changes it, so one tree serves every
    call.  Each command's handler is bound when the tree is built, through
    ``set_defaults(run=...)``: rebinding a ``_run_*`` name afterwards does
    not reach ``main``.  What the handlers call (``load_problem``,
    ``canonical_dumps``, ...) they still look up at call time.
    """
    parser = _Parser(
        prog="monopoles",
        description="expected dimensions, spinor-map certificates, Kahler fiber "
        "algebra and reduction censuses for higher-rank monopole theory",
    )
    parser.add_argument("--version", action="version", version=f"monopoles {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # the flags several commands take, each declared once
    shared = {
        "--dirac-multiplicity": dict(type=int, choices=(1, 2), default=None),
        "--kmax": dict(type=_nonnegative_int, default=None),
        "--seed": dict(type=_nonnegative_int, default=0),
        "--starts": dict(type=_positive_int, default=64),
        "--samples": dict(type=_positive_int, default=200),
    }

    def group(name: str, dest: str, help: str):
        return sub.add_parser(name, help=help).add_subparsers(dest=dest, required=True)

    def command(parent, name: str, run, *flags, input_file=False, **kwargs) -> None:
        """Subcommand ``name`` bound to its handler ``run``: ``--format``, ``--timing``, ``--input``
        if it reads a problem file, then ``flags``, each a name in ``shared`` or an ``(option, spec)`` pair."""
        p = parent.add_parser(name, **kwargs)
        p.set_defaults(run=run)
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.add_argument("--timing", action="store_true", help="attach wall-clock timing")
        if input_file:
            p.add_argument("--input", required=True, help="problem JSON file")
        for flag in flags:
            option, spec = (flag, shared[flag]) if isinstance(flag, str) else flag
            p.add_argument(option, **spec)

    dim = group("dim", "dim_kind", "expected dimension formulas")
    for kind in ("pun", "un", "asd"):
        command(dim, kind, _run_dim, *(() if kind == "asd" else ("--dirac-multiplicity",)), input_file=True)

    # CurvatureBounds squares these: a square that overflows is refused here, at its flag
    squarable = dict(default=None, type=_flag_type(
        float, lambda v: v >= 0.0 and math.isfinite(v * v), "a nonnegative number with a finite float square"
    ))
    command(
        group("reductions", "red_kind", "fixed-point candidate census"), "enumerate", _run_reductions,
        ("--c-trace", squarable), ("--c-plus", squarable), ("--c-minus", squarable),
        ("--g", dict(default=None, help='"identity" or a JSON file with a rational matrix')),
        "--kmax", "--dirac-multiplicity", input_file=True,
    )
    command(sub, "strata", _run_strata, "--kmax", "--dirac-multiplicity", input_file=True,
            help="Uhlenbeck strata bookkeeping")

    mu = group("mu", "mu_kind", "spinor-map certificates")
    command(
        mu, "properness", _run_properness,
        ("--n", dict(type=_positive_int, required=True)), ("--tau", dict(type=_finite_float, required=True)),
        "--starts", "--seed", ("--tol", dict(type=_nonnegative_float, default=1e-8)),
    )
    ka = group("kaehler", "ka_kind", "Kahler fiber algebra")
    for kind, checks in (("mu", mu), ("kaehler", ka)):
        command(checks, "check", _run_check, ("--suite", dict(type=_suite_flag(kind), default="all")),
                "--samples", "--seed")
    command(
        ka, "margin", _run_margin,
        ("--n", dict(type=_flag_type(int, lambda v: v >= 2, "an integer >= 2"), required=True)),
        ("--tau", dict(type=_flag_type(float, lambda v: 0.0 < v <= 1.0, "a number in (0, 1]"), required=True)),
        ("--lambda", dict(dest="lam", type=_finite_complex, required=True)), "--starts", "--seed",
    )

    command(sub, "tau0", _run_tau0, input_file=True, help="generic vanishing of the tau=0 trace equation")
    command(sub, "schema", _run_schema, help="print the problem-file JSON schema")
    return parser


def _problem_warnings(problem: Problem) -> list[str]:
    notes = list(problem.manifold.warnings)
    defects = characteristic_defects(problem.spinc, problem.manifold)
    if defects:
        notes.append(
            "Spin^c class fails the mod-2 characteristic test at basis "
            f"indices {list(defects)}"
        )
    if problem.manifold.b1 != 0:
        notes.append("b1 != 0: simple-connectivity assumptions do not apply")
    return notes


def _flatten(obj, prefix=""):
    """``(dotted path, leaf)`` for each leaf of a parsed JSON document, in document order; ``[]``/``{}`` are leaves."""
    if isinstance(obj, (dict, list)) and obj:
        for k, v in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from _flatten(v, f"{prefix}{k}.")
    else:
        yield prefix[:-1], obj


def _render(report: dict, fmt: str) -> str:
    """The canonical JSON text, or its leaves as aligned rows (keys sorted, as in the text).

    A string leaf is printed bare, any other leaf as its JSON token.
    """
    if fmt == "json":
        return canonical_dumps(report)
    doc = json.loads(canonical_dumps(report))  # the text goes once it is parsed
    width = max((len(k) for k, _ in _flatten(doc)), default=0)  # two walks of the leaves, no row list
    lines = (f"{k.ljust(width)}  {v if isinstance(v, str) else json.dumps(v)}" for k, v in _flatten(doc))
    return "\n".join(lines)


def _envelope(argv, result, warnings_list, input_doc=None) -> dict:
    report = {
        "command": list(argv),
        "version": __version__,
        "warnings": list(warnings_list),
        "result": result,
    }
    if input_doc is not None:
        report["input_sha256"] = input_sha256(input_doc)
        report["input"] = input_doc
    return report


def _projective(problem: Problem) -> Problem:
    """``problem``, for a command that reads its bundle as a PU(N) bundle: a line bundle is refused at its rank."""
    if problem.bundle.rank < 2:
        raise ValidationError("$.bundle.rank", f"must be >= 2 for a PU(N) bundle, got {problem.bundle.rank}")
    return problem


def _reading(flag: str, read, path: str, *rest):
    """``read(path, *rest)``: a file that cannot be opened is refused at ``flag``, naming its path."""
    try:
        return read(path, *rest)
    except OSError as exc:
        raise ValidationError(flag, str(exc)) from None


def _option(args, problem: Problem, name: str):
    """The flag ``--<name>`` if given, else the problem file's option ``name``."""
    flag = getattr(args, name, None)
    return getattr(problem.options, name) if flag is None else flag


def _run_dim(args, argv) -> tuple[dict, int]:
    problem = _reading("--input", load_problem, args.input)
    if args.dim_kind != "un":
        _projective(problem)
    mult = _option(args, problem, "dirac_multiplicity")
    if args.dim_kind == "pun":
        result = pun_dimension_report(problem.bundle, problem.spinc, problem.manifold, mult)
    elif args.dim_kind == "un":
        result = un_dimension_report(problem.bundle, problem.spinc, problem.manifold, mult)
    else:
        result = asd_dimension_report(problem.bundle, problem.manifold)
    return _envelope(argv, result, _problem_warnings(problem), problem.raw), EXIT_OK


def _census_bounds(args, problem: Problem) -> CurvatureBounds:
    """The problem's bounds block, each field overridden by its flag; the block itself when no flag is given."""
    base = problem.bounds
    if base is not None and all(flag is None for flag in (args.c_trace, args.c_plus, args.c_minus, args.g)):
        return base
    c_trace = args.c_trace if args.c_trace is not None else (base.c_trace if base else None)
    c_plus = args.c_plus if args.c_plus is not None else (base.c_plus if base else 0.0)
    c_minus = args.c_minus if args.c_minus is not None else (base.c_minus if base else 0.0)
    if c_trace is None:
        raise ValidationError(
            "$.bounds.c_trace", "required (give --c-trace or a bounds block in the input)"
        )
    if args.g not in (None, "identity"):
        metric = parse_metric(_reading("--g", _read_json, args.g, "$.g"), problem.manifold.b2, "$.g")
    elif args.g is None and base is not None:
        metric = base.metric
    else:
        metric = identity_metric(problem.manifold.b2)
    try:
        return CurvatureBounds(c_trace, c_plus, c_minus, metric)
    except ValueError as exc:
        # the problem's bounds and the bound flags are validated already: the error is the --g metric's
        raise ValidationError("$.g", str(exc)) from None


def _run_reductions(args, argv) -> tuple[dict, int]:
    problem = _projective(_reading("--input", load_problem, args.input))
    bounds = _census_bounds(args, problem)
    try:
        report = enumerate_reductions(
            problem.manifold, problem.bundle, problem.spinc, bounds,
            _option(args, problem, "kmax"), _option(args, problem, "dirac_multiplicity"),
        )
    except BallTooLargeError as exc:
        raise ValidationError("$.bounds.c_trace" if args.c_trace is None else "--c-trace", str(exc)) from None
    notes = _problem_warnings(problem) + list(report.warnings)
    result = {
        "candidates": report.candidates,
        "count": len(report.candidates),
        "pruned_inconsistent": report.pruned_inconsistent,
        "lattice_points": report.lattice_points,
    }
    return _envelope(argv, result, notes, problem.raw), EXIT_OK


def _run_strata(args, argv) -> tuple[dict, int]:
    problem = _projective(_reading("--input", load_problem, args.input))
    k_max = _option(args, problem, "kmax")
    try:
        rows = uhlenbeck_strata(
            problem.bundle, problem.manifold, problem.spinc, k_max, _option(args, problem, "dirac_multiplicity")
        )
    except ValueError as exc:
        if k_max < MAX_STRATA_ROWS:
            raise
        # the row cap, checked first: name the field k_max came from
        raise ValidationError("$.options.kmax" if args.kmax is None else "--kmax", str(exc)) from None
    result = {"strata": [
        {"k": r.k, "c1": list(r.bundle.c1.coeffs), "c2": r.bundle.c2, "expected_dim": r.expected_dim,
         "instanton_part": r.instanton_part, "dirac_index": r.dirac_index}
        for r in rows
    ]}
    return _envelope(argv, result, _problem_warnings(problem), problem.raw), EXIT_OK


def _certificate(args, argv, scale, estimate, extra=dict) -> tuple[dict, int]:
    """The report of ``estimate()`` at ``--n``/``--tau``, with the warnings it raised.

    ``extra()`` adds fields; it runs after the estimate has checked its input.
    ``scale`` is the ``(flag, value)`` that sizes the estimate: a result that
    overflows to ``inf``/``nan``, which ``canonical_dumps`` refuses with a
    ``ValueError``, is refused naming that flag.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = estimate()
    result = {**to_jsonable(report), "n": args.n, "tau": args.tau, **extra()}
    try:
        canonical_dumps(result)
    except ValueError:
        flag, value = scale
        raise ValueError(
            f"argument {flag}: {value} overflows the estimate; expected a smaller magnitude"
        ) from None
    return _envelope(argv, result, [str(w.message) for w in caught]), EXIT_OK


def _run_check(args, argv) -> tuple[dict, int]:
    """``mu check`` or ``kaehler check``: exit 1 when a property fails."""
    from . import suites

    run_suite = suites.mu_suite if args.command == "mu" else suites.kaehler_suite
    report = run_suite(suite=args.suite, samples=args.samples, seed=args.seed)
    result = {**to_jsonable(report), "all_passed": report.all_passed}
    return _envelope(argv, result, []), EXIT_OK if report.all_passed else EXIT_PROPERTY_FAILURE


def _run_properness(args, argv) -> tuple[dict, int]:
    from .mu_kernel import properness_constant_estimate

    return _certificate(
        args, argv, ("--tau", args.tau),
        lambda: properness_constant_estimate(
            args.n, args.tau, starts=args.starts, seed=args.seed, tol=args.tol
        ),
    )


def _run_margin(args, argv) -> tuple[dict, int]:
    from .kaehler import impossibility_margin, impossibility_margin_closed_form

    return _certificate(
        args, argv, ("--lambda", args.lam),
        lambda: impossibility_margin(args.n, args.tau, args.lam, starts=args.starts, seed=args.seed),
        lambda: {
            "lambda": args.lam,
            "closed_form": impossibility_margin_closed_form(args.n, args.tau, args.lam),
        },
    )


def _run_tau0(args, argv) -> tuple[dict, int]:
    problem = _reading("--input", load_problem, args.input)
    verdict = generic_tau0_vanishing(problem.manifold)
    return _envelope(argv, verdict, _problem_warnings(problem), problem.raw), EXIT_OK


def _run_schema(args, argv) -> tuple[dict, int]:
    return problem_schema(), EXIT_OK


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _build_parser().parse_args(_attach_negative_values(argv))
    start_time = time.monotonic()
    try:
        report, code = args.run(args, argv)
        if args.timing:
            report["timing_seconds"] = time.monotonic() - start_time
        print(_render(report, args.format))
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout has gone, so there is no one to report to.  The
        # unwritten report stays buffered; pointing stdout at devnull lets the
        # interpreter's final flush drop it without printing an error.
        with contextlib.suppress(io.UnsupportedOperation):  # a stream with no descriptor
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except InconsistentTopologyError as exc:  # the index is integral for every characteristic c1(s)
        print(f"error: $.spinc.c1: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except (OSError, ValueError) as exc:  # a ValidationError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except Exception as exc:  # a bug, not a verdict: never exit 1, never a traceback
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
