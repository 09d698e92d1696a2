"""Spans and counts around the calls into each module, recorded from outside the program.

:class:`Tracer` replaces module attributes with timing wrappers (the program
looks its collaborators up by module attribute at call time, so a wrapper on
``monopoles.cli.enumerate_reductions`` sees every census the CLI runs) and
puts the originals back on :meth:`Tracer.uninstall`. A span's self time is
its duration minus the time of the spans it encloses. Nothing under ``src/``
changes; spans inside the program are left for a later change.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter, defaultdict

from workloads import KAEHLER_CHECKS, MU_CHECKS

# per-layer metrics, in the order they are printed: name -> unit
METRICS = {
    "cli.self_s": "s",
    "jsonio.load_s": "s",
    "jsonio.dumps_s": "s",
    "jsonio.report_mb": "MB",
    "cohomology.manifold_s": "s",
    "cohomology.index_s": "s",
    "cohomology.index_calls": "count",
    "reductions.ball_s": "s",
    "reductions.ball_points_per_s": "1/s",
    "reductions.loop_s": "s",
    "reductions.candidates_per_s": "1/s",
    "reductions.ball_points": "count",
    "reductions.candidates": "count",
    "reductions.pruned": "count",
    "optim.starts": "count",
    "optim.evaluations": "count",
    "optim.unconverged_starts": "count",
    "optim.converged_share": "ratio",
    "kaehler.margin_s": "s",
    "kaehler.margin_p50_s": "s",
    "mu_kernel.properness_s": "s",
    "mu_kernel.zero_divisor_s": "s",
    "mu_kernel.sphere_samples_per_s": "1/s",
    "suites.samples": "count",
}

# the per-check times of the suites workload: suites.<suite>.<check>_s
SUITE_CHECKS = {"mu": MU_CHECKS, "kaehler": KAEHLER_CHECKS}
for _suite, _checks in SUITE_CHECKS.items():
    for _check in _checks:
        METRICS[f"suites.{_suite}.{_check}_s"] = "s"
METRICS["trace.overhead_s"] = "s"  # traced pass minus plain pass, medians of one run

# counts that must read the same in every traced pass of a run
EXACT = tuple(name for name, unit in METRICS.items() if unit == "count") + ("jsonio.report_mb",)

# cohomology's public functions as bound inside reductions
_INDEX_FUNCTIONS = ("cup", "p1_su", "dirac_index", "expected_dim_pun", "expected_dim_un", "expected_dim_asd")


class Tracer:
    """Wraps module functions with spans; one instance per traced pass."""

    def __init__(self):
        self.incl = defaultdict(float)  # span name -> inclusive seconds
        self.self_time = defaultdict(float)  # span name -> seconds outside enclosed spans
        self.calls = Counter()
        self.margin_seconds: list[float] = []  # each impossibility_margin call
        self.counts = Counter()
        self._stack: list[list[float]] = []  # open spans: [seconds of the spans they enclose]
        self._open = Counter()  # span name -> calls in progress
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def span(self, name, fn, on_result=None, only_inside=None):
        """``fn`` wrapped in a span ``name``; ``on_result(args, kwargs, result)`` may count.

        With ``only_inside``, calls made outside an open span of that name
        run unrecorded.
        """

        def wrapper(*args, **kwargs):
            if only_inside is not None and not self._open[only_inside]:
                return fn(*args, **kwargs)
            frame = [0.0]
            self._stack.append(frame)
            self._open[name] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._open[name] -= 1
                self._stack.pop()
                self.incl[name] += dt
                self.self_time[name] += dt - frame[0]
                self.calls[name] += 1
                if name == "kaehler.margin":
                    self.margin_seconds.append(dt)
                if self._stack:
                    self._stack[-1][0] += dt
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    def patch(self, owner, attr, wrapper_factory):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper_factory(original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- the program's layers -------------------------------------------------

    def install(self):
        import monopoles.cli as cli
        import monopoles.cohomology as cohomology
        import monopoles.jsonio as jsonio
        import monopoles.kaehler as kaehler
        import monopoles.mu_kernel as mu_kernel
        import monopoles.reductions as reductions
        import monopoles.suites as suites

        self.patch(cli, "main", lambda f: self.span("cli.main", f))
        self.patch(cli, "load_problem", lambda f: self.span("jsonio.load", f))
        dumps = self.span("jsonio.dumps", jsonio.canonical_dumps)
        self.patch(cli, "canonical_dumps", lambda f: dumps)
        self.patch(jsonio, "canonical_dumps", lambda f: dumps)  # input_sha256 calls it here
        self.patch(cohomology.FourManifold, "__post_init__", lambda f: self.span("cohomology.manifold", f))
        self.patch(cli, "enumerate_reductions", lambda f: self.span("reductions.enumerate", f, self._count_census))
        self.patch(reductions, "lattice_points_in_ball", lambda f: self.span(
            "reductions.ball", f, lambda a, k, points: self.counts.update({"reductions.ball_points": len(points)})))
        for fname in _INDEX_FUNCTIONS:
            self.patch(reductions, fname, lambda f: self.span(
                "cohomology.index", f, only_inside="reductions.enumerate"))
        for owner in (mu_kernel, kaehler):
            self.patch(owner, "multistart_minimize", self._optim_wrapper)
        for owner in (kaehler, suites):
            self.patch(owner, "impossibility_margin", lambda f: self.span("kaehler.margin", f))
        for owner in (mu_kernel, suites):
            self.patch(owner, "properness_constant_estimate", lambda f: self.span("mu_kernel.properness", f))
        self.patch(mu_kernel, "zero_divisor_margin", lambda f: self.span("mu_kernel.zero_divisor", f))
        self.patch(mu_kernel, "random_sphere_search", lambda f: self.span("mu_kernel.sphere", f, self._count_samples))

    def _count_census(self, args, kwargs, report):
        self.counts.update({
            "reductions.candidates": len(report.candidates),
            "reductions.pruned": report.pruned_inconsistent,
        })

    def _count_samples(self, args, kwargs, value):
        self.counts["mu_kernel.sphere_samples"] += args[2] if len(args) > 2 else kwargs["samples"]

    def _optim_wrapper(self, minimize):
        """Count objective evaluations by wrapping the objective handed to ``multistart_minimize``."""

        def wrapper(value_and_grad, *args, **kwargs):
            def counted(x):
                self.counts["optim.evaluations"] += 1
                return value_and_grad(x)

            best, values, flags = minimize(counted, *args, **kwargs)
            self.counts.update({"optim.starts": len(flags), "optim.unconverged_starts": flags.count(False)})
            return best, values, flags

        return self.span("optim.multistart", wrapper)

    # -- one pass's figures ---------------------------------------------------

    def figures(self, op_seconds: dict[str, float], report_bytes: int, samples: int) -> dict[str, float]:
        """The per-layer metrics of one traced pass (``trace.overhead_s`` is filled in later)."""
        c = self.counts
        incl, self_ = self.incl, self.self_time

        def rate(count, seconds):
            return count / seconds if seconds > 0 else 0.0

        margins = self.margin_seconds
        out = {
            "cli.self_s": self_["cli.main"],
            "jsonio.load_s": incl["jsonio.load"],
            "jsonio.dumps_s": incl["jsonio.dumps"],
            "jsonio.report_mb": report_bytes / 1e6,
            "cohomology.manifold_s": incl["cohomology.manifold"],
            "cohomology.index_s": self_["cohomology.index"],
            "cohomology.index_calls": self.calls["cohomology.index"],
            "reductions.ball_s": incl["reductions.ball"],
            "reductions.ball_points_per_s": rate(c["reductions.ball_points"], incl["reductions.ball"]),
            "reductions.loop_s": self_["reductions.enumerate"],
            "reductions.candidates_per_s": rate(c["reductions.candidates"], incl["reductions.enumerate"]),
            "reductions.ball_points": c["reductions.ball_points"],
            "reductions.candidates": c["reductions.candidates"],
            "reductions.pruned": c["reductions.pruned"],
            "optim.starts": c["optim.starts"],
            "optim.evaluations": c["optim.evaluations"],
            "optim.unconverged_starts": c["optim.unconverged_starts"],
            "optim.converged_share": rate(c["optim.starts"] - c["optim.unconverged_starts"], c["optim.starts"]),
            "kaehler.margin_s": incl["kaehler.margin"],
            "kaehler.margin_p50_s": statistics.median(margins) if margins else 0.0,
            "mu_kernel.properness_s": incl["mu_kernel.properness"],
            "mu_kernel.zero_divisor_s": incl["mu_kernel.zero_divisor"],
            "mu_kernel.sphere_samples_per_s": rate(c["mu_kernel.sphere_samples"], incl["mu_kernel.sphere"]),
            "suites.samples": samples,
        }
        for suite, checks in SUITE_CHECKS.items():
            for check in checks:
                out[f"suites.{suite}.{check}_s"] = op_seconds.get(f"{suite}.{check}", 0.0)
        return out
