"""The grid-check harness shared by the property suites, the sliced grid
checks against their per-sample predecessors, and the ``samples`` rule."""

import numpy as np
import pytest

import monopoles.suites as suites
from monopoles import PointwiseField, SpinorPair, brace, clifford_sd, mu, mu_kaehler
from monopoles.kaehler import split_equation_rhs, verify_curvature_split
from monopoles.mu_kernel import properness_value_grad
from monopoles.suites import CheckResult, _complex_rows, _grid_check, _rng, kaehler_suite, mu_suite


def test_grid_check_first_cell_above_tolerance_supplies_counterexample():
    cells = [
        (np.array([1e-13, 3e-13]), "below tolerance"),
        (np.array([0.0, 2e-12, 5e-12]), "first above"),
        (np.array([9e-12]), "worse, but later"),
        (4e-12, "scalar cell"),
    ]
    report = _grid_check(
        "demo", 1e-12, ((devs, lambda i, tag=tag: {"cell": tag, "at": i}) for devs, tag in cells)
    )
    assert report.counterexample == {"cell": "first above", "at": 2}
    assert report.worst == 9e-12
    assert report.samples == 2 + 3 + 1 + 1
    assert report.passed is False and report.tolerance == 1e-12


def test_grid_check_passes_exactly_when_worst_within_tolerance():
    for worst, passed in ((0.0, True), (1e-12, True), (1.0000001e-12, False)):
        report = _grid_check("demo", 1e-12, iter([(np.array([worst / 2, worst]), lambda i: {"i": i})]))
        assert report.passed is (report.worst <= report.tolerance) is passed
        assert report.samples == 2
        assert (report.counterexample is None) is passed


def test_grid_check_builder_runs_before_the_generator_advances():
    def cells():
        for n in (1, 2, 3):
            devs = np.full(n, float(n))
            yield devs, lambda i: {"n": n, "i": i}

    report = _grid_check("demo", 1.5, cells())
    assert report.counterexample == {"n": 2, "i": 0}
    assert report.samples == 6 and report.worst == 3.0


# ---------------------------------------------------------------------------
# The per-sample checks as they were before the batch routes, kept as an
# oracle: same draws, scalar API calls, one cell per sample.
# ---------------------------------------------------------------------------


def _oracle_diagonal(rng, samples, seed):
    """Polarization of the quadratic map, one sample at a time through the public ``mu``."""
    phases = (1, 1j, -1, -1j)
    for n in (1, 2, 3, 4):
        for tau in (0.0, 0.25, 0.5, 1.0):
            vs, us = _complex_rows(rng, 2, max(samples // 100, 25), 2 * n)
            for v, u in zip(vs, us):
                polar = sum(c * mu(tau, SpinorPair.from_vector(v + c * u)).mat for c in phases) / 4
                both = mu(tau, SpinorPair.from_vector(v), SpinorPair.from_vector(u)).mat
                dev = float(np.abs(both - polar).max())
                yield dev, lambda i: {"n": n, "tau": tau, "psi": v.tolist(), "phi": u.tolist()}


def _oracle_gradient_fd(rng, samples, seed):
    h = 1e-6
    for n in (2, 3):
        for tau in (0.0, 0.5, 1.0):
            vg = properness_value_grad(n, tau)
            for _ in range(max(samples // 100, 3)):
                x = rng.standard_normal(4 * n)
                x /= np.linalg.norm(x)
                _, grad = vg(x)
                fd = np.empty_like(grad)
                for i in range(x.size):
                    e = np.zeros_like(x)
                    e[i] = h
                    fp, _ = vg(x + e)
                    fm, _ = vg(x - e)
                    fd[i] = (fp - fm) / (2 * h)
                rel = float(np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-30))
                yield rel, lambda i: {"n": n, "tau": tau, "x": x.tolist()}


def _oracle_brace(rng, samples, seed):
    for n in (1, 2, 3, 5):
        for _ in range(samples):
            f = _complex_rows(rng, n, n)
            g = _complex_rows(rng, n, n)
            tau = float(rng.random())
            c = complex(*rng.standard_normal(2))
            scale = max(float(np.abs(f).max() + np.abs(g).max()), 1e-30)
            devs = (
                float(np.abs(brace(f + c * g, tau) - brace(f, tau) - c * brace(g, tau)).max()),
                float(np.abs(brace(f, 1.0) - f).max()),
                abs(np.trace(brace(f, tau)) - tau * np.trace(f)),
            )
            yield max(devs) / scale, lambda i: {"n": n, "tau": tau, "f": f.tolist()}


def _oracle_mu_match(rng, samples, seed):
    for n in (1, 2, 3, 4, 5):
        for tau in (0.0, 0.25, 1.0):
            for _ in range(samples):
                a = _complex_rows(rng, 1, n)[0]
                b = _complex_rows(rng, 1, n)[0]
                lhs = mu_kaehler(a, b, tau).mat
                rhs = mu(tau, SpinorPair(a, b)).mat
                yield float(np.abs(lhs - rhs).max()), lambda i: {
                    "n": n, "tau": tau, "alpha": a.tolist(), "beta": b.tolist()
                }


def _oracle_clifford(rng, samples, seed):
    for _ in range(samples * 4):
        lam = rng.standard_normal()
        e02 = complex(*rng.standard_normal(2))
        g_real = clifford_sd(lam, np.conj(e02), e02)
        g_imag = clifford_sd(1j * lam, -np.conj(e02), e02)
        devs = (
            abs(np.trace(g_real)),
            abs(np.trace(g_imag)),
            float(np.abs(g_real + g_real.conj().T).max()),
            float(np.abs(g_imag - g_imag.conj().T).max()),
        )
        yield max(float(d) for d in devs), lambda i: {"eta_lambda": lam, "eta02": [e02.real, e02.imag]}


def _oracle_satisfying_field(rng, n, tau):
    a = _complex_rows(rng, 1, n)[0]
    b = _complex_rows(rng, 1, n)[0]
    eta02 = complex(*rng.standard_normal(2))
    eta_lambda = 1j * rng.standard_normal()
    probe = PointwiseField(a, b, np.zeros((n, n)), np.zeros((n, n)), eta02, eta_lambda, tau)
    f02, lam = split_equation_rhs(probe)
    return PointwiseField(a, b, f02, lam, eta02, eta_lambda, tau)


def _oracle_split(seed, index, samples, tol=1e-9):
    """The old check, which reported the count of wrong verdicts as ``worst``."""
    worst, bad, total = 0.0, None, 0
    rng = _rng(seed, index)
    false_verdicts = 0
    for _ in range(samples):
        n = int(rng.integers(1, 5))
        tau = float(rng.random())
        field = _oracle_satisfying_field(rng, n, tau)
        verdict = verify_curvature_split(field, tol=tol)
        ok = verdict.matrix_satisfied and verdict.split_satisfied and verdict.equivalent
        worst = max(worst, verdict.residual_matrix)
        which = int(rng.integers(0, 2))
        bump = 1.0 + rng.random()
        if which == 0:
            f02 = field.f02.copy()
            f02[0, 0] += bump
            broken = PointwiseField(
                field.alpha, field.beta, f02, field.lambda_f, field.eta02, field.eta_lambda, tau
            )
        else:
            lam = field.lambda_f.copy()
            lam[0, 0] += bump
            broken = PointwiseField(
                field.alpha, field.beta, field.f02, lam, field.eta02, field.eta_lambda, tau
            )
        bad_verdict = verify_curvature_split(broken, tol=tol)
        ok = ok and not bad_verdict.matrix_satisfied and not bad_verdict.split_satisfied
        ok = ok and bad_verdict.equivalent
        total += 2
        if not ok:
            false_verdicts += 1
            if bad is None:
                bad = {"n": n, "tau": tau, "perturbed": "f02" if which == 0 else "lambda_f"}
    return CheckResult(
        "curvature_split_equivalence", false_verdicts == 0, total,
        float(false_verdicts if false_verdicts else worst), tol, bad,
    )


# suite, check name, registry index, oracle generator, samples per grid cell
# as a function of --samples, reported name, tolerance
ORACLE_GRID_CHECKS = (
    ("mu", "diagonal", 9, _oracle_diagonal, lambda s: max(s // 100, 25),
     "bilinear_diagonal_consistency", 1e-12),
    ("mu", "gradient_fd", 10, _oracle_gradient_fd, lambda s: max(s // 100, 3),
     "analytic_gradient_matches_fd", 1e-6),
    ("kaehler", "brace", 100, _oracle_brace, lambda s: s, "brace_linear_unit_trace_scaling", 1e-12),
    ("kaehler", "mu_match", 101, _oracle_mu_match, lambda s: s, "kaehler_blocks_match_projection_mu", 1e-12),
    ("kaehler", "clifford", 102, _oracle_clifford, lambda s: 4 * s, "clifford_traceless_su2_types", 1e-12),
)
SPLIT_INDEX = 105
ZERO_DIVISOR_INDEX = 7
ORACLE_SEEDS = (0, 7, 11)
# --samples values per suite.  Below 2 500 samples both mu oracle checks run
# their floor counts (25 and 3 rows per cell), so 1 stands for 3, 40 and 200.
ORACLE_SAMPLES = {"mu": (1, 2600), "kaehler": (1, 3, 40)}
SUITES = {"mu": (mu_suite, suites._MU_CHECKS, 0), "kaehler": (kaehler_suite, suites._KAEHLER_CHECKS, 100)}


def _same(new: CheckResult, old: CheckResult):
    assert (new.name, new.passed, new.samples, new.tolerance) == (
        old.name, old.passed, old.samples, old.tolerance
    )
    assert new.worst == old.worst and repr(new.worst) == repr(old.worst)
    assert new.counterexample == old.counterexample


def _registry_check(kind, name):
    return dict(SUITES[kind][1])[name]


def test_registry_indices_match_the_oracle_table():
    for kind, name, index, *_ in ORACLE_GRID_CHECKS:
        _, checks, first = SUITES[kind]
        assert first + [n for n, _ in checks].index(name) == index
    assert 100 + [n for n, _ in suites._KAEHLER_CHECKS].index("split") == SPLIT_INDEX
    assert [n for n, _ in suites._MU_CHECKS].index("zero_divisor") == ZERO_DIVISOR_INDEX


def _first_failing_cell_worst(oracle_samples, cell_size, tol):
    """Counterexample at the worst sample of the first cell whose maximum exceeds tol."""
    for start in range(0, len(oracle_samples), cell_size):
        cell = oracle_samples[start : start + cell_size]
        devs = [d for d, _ in cell]
        if max(devs) > tol:
            return cell[int(np.argmax(devs))][1]
    return None


def _as_cells(samples):
    return ((d, lambda i, c=c: c) for d, c in samples)


def test_batched_checks_match_the_per_sample_oracle():
    """Same passed, samples, worst (bitwise) and counterexample as the oracle.

    Also per sample, in draw order: deviations (bitwise) and counterexample
    entries, which reach what a passing report cannot show (the clifford
    deviations are exact zeros).  With the tolerance forced to
    half the worst, a failing check reports the worst sample of the first
    failing grid cell.
    """
    for seed in ORACLE_SEEDS:
        for kind, name, index, oracle, cell_size, check_name, tol in ORACLE_GRID_CHECKS:
            for samples in ORACLE_SAMPLES[kind]:
                want = [(float(d), build(0)) for d, build in oracle(_rng(seed, index), samples, seed)]
                new = SUITES[kind][0](name, samples=samples, seed=seed).checks[0]
                _same(new, _grid_check(check_name, tol, _as_cells(want)))
                cells = [
                    (devs, [build(i) for i in range(devs.size)])
                    for devs, build in _registry_check(kind, name).cells(_rng(seed, index), samples, seed)
                ]
                got = [(float(d), c) for devs, entries in cells for d, c in zip(devs, entries)]
                assert [d for d, _ in got] == [d for d, _ in want], name
                assert [c for _, c in got] == [c for _, c in want], name
                if new.worst > 0.0:  # exact zeros cannot be forced to fail
                    forced = new.worst / 2
                    failing = _grid_check(name, forced, ((d, lambda i, e=e: e[i]) for d, e in cells))
                    assert failing.passed is False and failing.worst == new.worst
                    first = _first_failing_cell_worst(want, cell_size(samples), forced)
                    assert failing.counterexample == first
        for samples in ORACLE_SAMPLES["kaehler"]:
            _same(kaehler_suite("split", samples=samples, seed=seed).checks[0],
                  _oracle_split(seed, SPLIT_INDEX, samples))


def test_split_failure_keeps_worst_residual_and_counts_wrong_verdicts():
    for seed, samples in ((7, 40), (0, 3)):
        passing = suites._check_curvature_split(seed, SPLIT_INDEX, samples)
        assert passing.passed and passing.counterexample is None
        tol = passing.worst / 2
        old = _oracle_split(seed, SPLIT_INDEX, samples, tol=tol)
        new = suites._check_curvature_split(seed, SPLIT_INDEX, samples, tol=tol)
        assert old.passed is new.passed is False
        assert new.worst == passing.worst  # the old check reported the count here
        assert new.counterexample == {**old.counterexample, "false_verdicts": int(old.worst)}
        assert new.samples == old.samples and new.tolerance == tol


def _sampled_grid_checks():
    """(name, registry index, check) of every sampled grid check of both suites.

    ``margin`` is a grid check too, but yields one scalar per cell.
    """
    for _, checks, first in SUITES.values():
        for index, (name, check) in enumerate(checks, first):
            if hasattr(check, "cells") and name != "margin":
                yield name, index, check


def test_sampled_grid_checks_are_the_expected_fourteen():
    assert [name for name, *_ in _sampled_grid_checks()] == [
        "quartic", "block_formula", "orthogonality", "hermiticity", "monotonicity", "equivariance", "phase",
        "properness", "diagonal", "gradient_fd", "brace", "mu_match", "clifford", "decoupling",
    ]


def test_slice_budget_changes_nothing(monkeypatch):
    """Passing and forced-failing reports are equal with slices of a few rows.

    A 1 KiB budget holds 16 rows of 2x2 matrices, 7 of 3x3, 4 of 4x4, 2 of
    5x5 and one row of anything wider, so at 40 samples every cell (each has
    at least 3 rows, ``gradient_fd``'s) is split and some end in a shorter
    slice; a recorder on the slicing helper checks both.  The split check's
    own chunk goes to 2 samples, and the zero-divisor check, whose reducer is
    its own, is sliced as the grid checks are.  Checks whose worst is 0.0
    cannot be forced to fail.
    """
    seed, samples = 7, 40

    def reports():
        out = []
        for name, index, check in _sampled_grid_checks():
            out.append(check(seed, index, samples))
            if out[-1].worst > 0.0:
                cells = check.cells(_rng(seed, index), samples, seed)
                out.append(_grid_check(name, out[-1].worst / 2, cells))
                assert out[-1].passed is False and out[-1].counterexample is not None
        split = suites._check_curvature_split(seed, SPLIT_INDEX, samples)
        return out + [
            split,
            suites._check_curvature_split(seed, SPLIT_INDEX, samples, tol=split.worst / 2),
            suites._check_zero_divisor_identity(seed, ZERO_DIVISOR_INDEX, samples),
        ]

    default = reports()
    cells, sliced = [], suites._sliced

    def recorded(part, *draws):
        rows = []
        cells.append(rows)

        def counted(start, *slices):
            rows.append(len(slices[0]))
            return part(start, *slices)

        return sliced(counted, *draws)

    monkeypatch.setattr(suites, "_SLICE_BYTES", 1024)
    monkeypatch.setattr(suites, "_SPLIT_CHUNK", 2)
    monkeypatch.setattr(suites, "_sliced", recorded)
    small = reports()
    assert len(small) == len(default) > 20
    assert min(len(rows) for rows in cells) > 1
    assert any(rows[-1] < rows[0] for rows in cells)
    for new, old in zip(small, default):
        _same(new, old)


@pytest.mark.parametrize("budget, samples", [(4096, 40), (None, 200)])
def test_mu_grid_checks_build_at_most_the_slice_budget(monkeypatch, budget, samples):
    """No mu matrix, projection or zero-divisor call builds more than ``_SLICE_BYTES`` of matrices.

    ``_batch_mu_mats`` builds the ``(rows, 2n, 2n)`` complex outer products
    first, ``batch_project_P`` copies its input, and
    ``zero_divisor_identity_batch`` builds ``(rows, n, n)`` outer products.
    At the default budget and 200 samples the cells of n = 6 take eight
    slices of 28 rows.
    """
    if budget is not None:
        monkeypatch.setattr(suites, "_SLICE_BYTES", budget)
    built = []
    batch_mu_mats, project_P = suites._batch_mu_mats, suites.batch_project_P
    zero_divisor_batch = suites.zero_divisor_identity_batch

    def record_mu_mats(tau, v, w, n):
        built.append(len(v) * 16 * (2 * n) ** 2)
        return batch_mu_mats(tau, v, w, n)

    def record_project_P(mats, n):
        built.append(mats.nbytes)
        return project_P(mats, n)

    def record_zero_divisor(a, b):
        built.append(len(a) * 16 * a.shape[1] ** 2)
        return zero_divisor_batch(a, b)

    monkeypatch.setattr(suites, "_batch_mu_mats", record_mu_mats)
    monkeypatch.setattr(suites, "batch_project_P", record_project_P)
    monkeypatch.setattr(suites, "zero_divisor_identity_batch", record_zero_divisor)
    for name in ("quartic", "block_formula", "orthogonality", "hermiticity", "monotonicity", "equivariance",
                 "phase", "zero_divisor", "diagonal"):
        before = len(built)
        assert mu_suite(name, samples=samples, seed=3).all_passed
        assert len(built) > before, name
    assert suites._SLICE_BYTES / 2 < max(built) <= suites._SLICE_BYTES


def test_zero_divisor_violation_ends_the_check_in_its_cell_whatever_the_slices(monkeypatch):
    """A violated inequality in the n = 4 cell stops the check there, with the same report per slice size."""
    batch = suites.zero_divisor_identity_batch

    def halved_at_n4(a, b):
        lhs, rhs_identity, rhs_inequality = batch(a, b)
        return (lhs / 2 if a.shape[1] == 4 else lhs), rhs_identity, rhs_inequality

    monkeypatch.setattr(suites, "zero_divisor_identity_batch", halved_at_n4)
    report = suites._check_zero_divisor_identity(7, ZERO_DIVISOR_INDEX, 40)
    assert not report.passed and report.samples == 3 * 40 and report.counterexample["n"] == 4
    monkeypatch.setattr(suites, "_SLICE_BYTES", 1024)
    _same(suites._check_zero_divisor_identity(7, ZERO_DIVISOR_INDEX, 40), report)


def test_diagonal_check_fails_when_the_bilinear_route_drops_a_conjugate(monkeypatch):
    batch_mu_mats = suites._batch_mu_mats

    def unconjugated(tau, v, w, n):
        return batch_mu_mats(tau, v, None if w is None else w.conj(), n)

    assert mu_suite("diagonal", samples=1, seed=0).all_passed
    monkeypatch.setattr(suites, "_batch_mu_mats", unconjugated)
    report = mu_suite("diagonal", samples=1, seed=0).checks[0]
    assert not report.passed and report.worst > 0.1
    assert set(report.counterexample) == {"n", "tau", "psi", "phi"}


@pytest.mark.parametrize("run, kind", [(mu_suite, "mu"), (kaehler_suite, "kaehler")])
def test_an_unknown_suite_is_refused_by_name(run, kind):
    with pytest.raises(ValueError, match=rf"^unknown {kind} suite 'nope'; choose from \['all', '"):
        run("nope")


@pytest.mark.parametrize("samples", [0, -1])
def test_every_check_rejects_samples_below_one(samples):
    names = [(run, name) for run, checks, _ in SUITES.values() for name, _ in checks]
    assert len(names) == 17
    for run, name in names + [(mu_suite, "all"), (kaehler_suite, "all")]:
        with pytest.raises(ValueError, match=f"^samples must be >= 1, got {samples}$"):
            run(name, samples=samples)
