"""Kahler fiber algebra: brace, Clifford action, splitting, margins."""

import re

import numpy as np
import pytest

from monopoles import (
    PointwiseField,
    SpinorPair,
    brace,
    clifford_sd,
    decoupling_bound,
    impossibility_margin,
    impossibility_margin_closed_form,
    mu,
    mu_kaehler,
    verify_curvature_split,
)
from monopoles.kaehler import (
    _impossibility_value_grad,
    batch_mu_kaehler,
    batch_split_residuals,
    batch_split_rhs,
    split_equation_rhs,
)
import monopoles.suites as suites
from monopoles.suites import kaehler_suite, make_satisfying_field

from conftest import make_rng, schur_margin_oracle

E1 = np.array([1, 0], dtype=complex)
E2 = np.array([0, 1], dtype=complex)
Z2 = np.zeros(2, dtype=complex)


class TestBrace:
    def test_identity_scales_to_tau(self):
        for n in (1, 2, 5):
            for tau in (0.0, 0.3, 1.0):
                assert np.allclose(brace(np.eye(n), tau), tau * np.eye(n))

    def test_tau_one_is_identity_map(self, rng):
        f = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert np.allclose(brace(f, 1.0), f)

    def test_traceless_input_fixed(self):
        e12 = np.zeros((3, 3), dtype=complex)
        e12[0, 1] = 1.0
        assert np.allclose(brace(e12, 0.7), e12)

    def test_trace_scaling(self, rng):
        f = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        for tau in (0.0, 0.25, 1.0):
            assert np.trace(brace(f, tau)) == pytest.approx(tau * np.trace(f), abs=1e-12)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            brace(np.zeros((2, 3)), 0.5)


class TestMuKaehler:
    def test_alpha_only_tau1(self):
        got = mu_kaehler(E1, Z2, 1.0)
        e11 = np.outer(E1, E1)
        assert np.allclose(got.block(0, 0), 0.5 * e11)
        assert np.allclose(got.block(1, 1), -0.5 * e11)
        assert got.block(0, 1).max() == 0 and got.block(1, 0).max() == 0

    def test_zero(self):
        assert mu_kaehler(Z2, Z2, 0.5).norm() == 0.0

    def test_matches_projection_route(self, rng):
        for n in (1, 2, 3, 5):
            for tau in (0.0, 0.25, 1.0):
                a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                lhs = mu_kaehler(a, b, tau).mat
                rhs = mu(tau, SpinorPair(a, b)).mat
                assert np.abs(lhs - rhs).max() < 1e-12


class TestCliffordSd:
    def test_zero_form(self):
        assert np.abs(clifford_sd(0, 0, 0)).max() == 0.0

    def test_pure_11_part_diagonal(self):
        mu0 = 0.8
        g = clifford_sd(1j * mu0, 0, 0)
        assert np.allclose(g, 4 * np.diag([mu0, -mu0]))
        assert abs(np.trace(g)) == 0.0

    def test_pure_02_lower_left(self):
        g = clifford_sd(0, 0, 1.0)
        assert g[1, 0] == 4.0
        assert g[0, 0] == g[1, 1] == g[0, 1] == 0.0

    def test_real_form_lands_in_su2(self, rng):
        lam = rng.standard_normal()
        e20 = complex(*rng.standard_normal(2))
        g = clifford_sd(lam, e20, np.conj(e20))
        assert abs(np.trace(g)) < 1e-14
        assert np.abs(g + g.conj().T).max() < 1e-14


class TestCurvatureSplit:
    def test_zero_field(self):
        f = PointwiseField(Z2, Z2, np.zeros((2, 2)), np.zeros((2, 2)), 0, 0, 0.5)
        v = verify_curvature_split(f)
        assert v.residual_matrix == 0.0
        assert v.residual_f02 == 0.0 and v.residual_lambda == 0.0
        assert v.residual_dirac is None
        assert v.matrix_satisfied and v.split_satisfied and v.equivalent

    def test_constructed_solution_has_tiny_matrix_residual(self):
        rng = make_rng(9)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            field = make_satisfying_field(rng, n, float(rng.random()))
            v = verify_curvature_split(field)
            assert v.residual_matrix < 1e-10
            assert v.equivalent

    def test_single_block_perturbation_flags_one_split_equation(self):
        rng = make_rng(10)
        field = make_satisfying_field(rng, 3, 0.6)
        f02 = field.f02.copy()
        f02[0, 0] += 1.0
        broken = PointwiseField(
            field.alpha, field.beta, f02, field.lambda_f, field.eta02, field.eta_lambda, 0.6
        )
        v = verify_curvature_split(broken)
        assert v.residual_matrix > 1e-3
        assert v.residual_f02 > 1e-3
        assert v.residual_lambda < 1e-12
        assert v.equivalent and not v.matrix_satisfied

    def test_matrix_residual_is_scaled_rss_of_split_residuals(self):
        rng = make_rng(11)
        for _ in range(25):
            n = int(rng.integers(1, 4))
            field = PointwiseField(
                rng.standard_normal(n) + 1j * rng.standard_normal(n),
                rng.standard_normal(n) + 1j * rng.standard_normal(n),
                rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
                rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
                complex(*rng.standard_normal(2)),
                1j * rng.standard_normal(),
                float(rng.random()),
            )
            v = verify_curvature_split(field)
            rss = np.hypot(v.residual_f02, v.residual_lambda)
            assert v.residual_matrix == pytest.approx(4 * np.sqrt(2) * rss, rel=1e-9)


class TestDecouplingBound:
    def test_zero_alpha(self):
        lhs, rhs = decoupling_bound(Z2, E1, 0.3)
        assert lhs == 0.0 and rhs == 0.0

    def test_parallel_tau1(self):
        lhs, rhs = decoupling_bound(E1, E1, 1.0)
        assert lhs == pytest.approx(1.0) and rhs == pytest.approx(1.0)

    def test_orthogonal_tau0(self):
        lhs, rhs = decoupling_bound(E1, E2, 0.0)
        assert lhs == pytest.approx(1.0) and rhs == pytest.approx(0.5)

    def test_inequality_on_random_data(self, rng):
        for _ in range(500):
            n = int(rng.integers(1, 6))
            a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            lhs, rhs = decoupling_bound(a, b, float(rng.random()))
            assert lhs >= rhs - 1e-10 and rhs >= 0.0

    def test_rejects_tau_out_of_range(self):
        with pytest.raises(ValueError, match="tau"):
            decoupling_bound(E1, E1, 1.5)


class TestImpossibilityMargin:
    def test_lambda_zero_is_exactly_zero(self):
        rep = impossibility_margin(2, 0.5, 0.0, starts=4, seed=1)
        assert rep.estimate == 0.0

    def test_n2_tau1_unit(self):
        rep = impossibility_margin(2, 1.0, 1.0, starts=16, seed=5)
        assert rep.estimate == pytest.approx(1.0, rel=1e-8)

    def test_matches_independent_grid_oracle(self):
        for n, tau, lam in [(2, 0.5, 1.0), (2, 0.25, 1.0), (3, 1.0, 2j), (3, 0.5, 2j)]:
            rep = impossibility_margin(n, tau, lam, starts=16, seed=5)
            oracle = schur_margin_oracle(n, tau, lam)
            assert rep.estimate == pytest.approx(oracle, rel=1e-6)
            assert rep.estimate == pytest.approx(
                impossibility_margin_closed_form(n, tau, lam), rel=1e-9
            )

    def test_argmin_is_balanced_and_attains_the_estimate(self):
        rep = impossibility_margin(3, 0.5, 2j, starts=8, seed=5)
        a, b = rep.argmin.alpha, rep.argmin.beta
        assert np.linalg.norm(a) == pytest.approx(np.linalg.norm(b), rel=1e-12)
        residual = brace(np.outer(b, a.conj()), 0.5) - 2j * np.eye(3)
        assert np.linalg.norm(residual) == pytest.approx(rep.estimate, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("tau", [0.05, 0.5, 1.0])
    @pytest.mark.parametrize("lam", [0.0, 1.0, 3 - 4j])
    def test_objective_slices_equal_single_points(self, n, tau, lam):
        """Each slice of a stacked call is the single-point arithmetic, bit for bit."""
        objective = _impossibility_value_grad(n, tau, lam)

        def reference(x):
            a = x[:n] + 1j * x[2 * n : 3 * n]
            b = x[n : 2 * n] + 1j * x[3 * n :]
            g = brace(np.outer(b, a.conj()), tau) - lam * np.eye(n)
            tg = brace(g, tau)
            ga, gb = 2.0 * (tg.conj().T @ b), 2.0 * (tg @ a)
            return float(np.real(np.vdot(g, g))), np.concatenate([ga.real, gb.real, ga.imag, gb.imag])

        rng = make_rng(10 * n + int(20 * tau))
        x = rng.standard_normal((3, 3, 4 * n)) * 10.0 ** rng.integers(-3, 3, size=(3, 3, 1))
        values, grads = objective(x)
        assert values.shape == (3, 3) and grads.shape == (3, 3, 4 * n)
        for i in range(3):
            for j in range(3):
                f_one, g_one = objective(x[i, j])
                f_ref, g_ref = reference(x[i, j])
                assert values[i, j] == f_one == f_ref
                assert np.array_equal(grads[i, j], g_one) and np.array_equal(g_one, g_ref)

    def test_preconditions(self):
        with pytest.raises(ValueError, match="n >= 2"):
            impossibility_margin(1, 0.5, 1.0)
        with pytest.raises(ValueError, match="tau"):
            impossibility_margin(2, 0.0, 1.0)

    def test_closed_form_preconditions(self):
        with pytest.raises(ValueError):
            impossibility_margin_closed_form(1, 0.5, 1.0)


class TestHolomorphicPairing:
    def test_vanishes_against_orthogonal_class(self):
        from monopoles import BundleData, CohClass2, FourManifold
        from monopoles.kaehler import holomorphic_pairing_term

        m = FourManifold("h", 0, [[0, 1], [1, 0]])
        e = BundleData(2, CohClass2([1, 0]), 0)
        assert holomorphic_pairing_term(CohClass2([1, 0]), e, m) == 0  # <x.x> = 0
        term = holomorphic_pairing_term(CohClass2([0, 1]), e, m)
        assert term == pytest.approx(2j * np.pi)


class TestSplitRhsHelper:
    def test_rhs_solves_the_matrix_equation(self):
        rng = make_rng(12)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            field = PointwiseField(
                a, b, np.zeros((n, n)), np.zeros((n, n)),
                complex(*rng.standard_normal(2)), 1j * rng.standard_normal(), 0.4,
            )
            f02, lam = split_equation_rhs(field)
            solved = PointwiseField(a, b, f02, lam, field.eta02, field.eta_lambda, 0.4)
            assert verify_curvature_split(solved).residual_matrix < 1e-12


BATCH_NS = (1, 2, 3, 4, 5, 8)


def _crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _taus(rng, m):
    """A scalar tau and a per-sample tau array, with the per-slice values."""
    scalar = float(rng.random())
    per_sample = rng.random(m)
    return ((scalar, [scalar] * m), (per_sample, list(per_sample)))


class TestBatchForms:
    """Batched calls equal per-slice scalar calls bit for bit."""

    M = 40

    def test_brace(self):
        rng = make_rng(21)
        for n in BATCH_NS:
            f = _crandn(rng, self.M, n, n)
            for tau, per in _taus(rng, self.M):
                want = np.stack([brace(f[i], per[i]) for i in range(self.M)])
                assert np.array_equal(brace(f, tau), want), n
                # the defining formula, with the trace of each matrix alone
                ref = [f[i] - ((1.0 - per[i]) / n) * np.trace(f[i]) * np.eye(n) for i in range(self.M)]
                assert np.array_equal(want, np.stack(ref)), n

    def test_brace_two_leading_axes(self):
        rng = make_rng(22)
        f = _crandn(rng, 3, 4, 5, 5)
        tau = rng.random((3, 4))
        got = brace(f, tau)
        assert got.shape == f.shape
        for i in range(3):
            for j in range(4):
                assert np.array_equal(got[i, j], brace(f[i, j], tau[i, j]))

    def test_mu_kaehler(self):
        rng = make_rng(23)
        for n in BATCH_NS:
            a = _crandn(rng, self.M, n)
            b = _crandn(rng, self.M, n)
            for tau, per in _taus(rng, self.M):
                want = np.stack([mu_kaehler(a[i], b[i], per[i]).mat for i in range(self.M)])
                got = batch_mu_kaehler(a, b, tau)
                assert got.shape == (self.M, 2 * n, 2 * n)
                assert np.array_equal(got, want), n

    def test_clifford_sd(self):
        rng = make_rng(24)
        lam = rng.standard_normal(self.M)
        e02 = _crandn(rng, self.M)
        for args in ((lam, np.conj(e02), e02), (1j * lam, -np.conj(e02), e02), (0.5, e02, 0.0)):
            got = clifford_sd(*args)
            assert got.shape == (self.M, 2, 2)
            per = [np.broadcast_to(x, (self.M,)) for x in args]
            want = np.stack([clifford_sd(*(x[i] for x in per)) for i in range(self.M)])
            assert np.array_equal(got, want)

    def test_split_residuals_and_rhs(self):
        rng = make_rng(25)
        for n in BATCH_NS:
            a, b = _crandn(rng, self.M, n), _crandn(rng, self.M, n)
            f02, lf = _crandn(rng, self.M, n, n), _crandn(rng, self.M, n, n)
            eta02, eta_lambda = _crandn(rng, self.M), 1j * rng.standard_normal(self.M)
            for tau, per in _taus(rng, self.M):
                got = batch_split_residuals(a, b, f02, lf, eta02, eta_lambda, tau)
                rhs = batch_split_rhs(a, b, eta02, eta_lambda, tau)
                for i in range(self.M):
                    field = PointwiseField(a[i], b[i], f02[i], lf[i], eta02[i], eta_lambda[i], per[i])
                    v = verify_curvature_split(field)
                    assert (v.residual_matrix, v.residual_f02, v.residual_lambda) == tuple(
                        float(r[i]) for r in got
                    )
                    for x, y in zip(split_equation_rhs(field), rhs):
                        assert np.array_equal(x, y[i])

    def test_split_residuals_match_the_assembled_matrices(self):
        """Reference: np.kron, hstack/vstack and np.linalg.norm, one slice at a time."""
        rng = make_rng(26)
        for n in BATCH_NS:
            a, b = _crandn(rng, self.M, n), _crandn(rng, self.M, n)
            f02, lf = _crandn(rng, self.M, n, n), _crandn(rng, self.M, n, n)
            eta02, eta_lambda = _crandn(rng, self.M), 1j * rng.standard_normal(self.M)
            tau = rng.random(self.M)
            got = batch_split_residuals(a, b, f02, lf, eta02, eta_lambda, tau)
            for i in range(self.M):
                gamma_f = 4.0 * np.vstack(
                    [np.hstack([-lf[i], f02[i].conj().T]), np.hstack([f02[i], lf[i]])]
                )
                gamma_eta = np.kron(
                    clifford_sd(eta_lambda[i], -np.conj(eta02[i]), eta02[i]), np.eye(n)
                )
                lhs = gamma_f - mu_kaehler(a[i], b[i], tau[i]).mat
                assert got[0][i] == np.linalg.norm(lhs - gamma_eta)
                f02_t = 0.25 * brace(np.outer(b[i], a[i].conj()), tau[i]) + eta02[i] * np.eye(n)
                lam_t = brace(
                    np.outer(b[i], b[i].conj()) - np.outer(a[i], a[i].conj()), tau[i]
                ) / 8.0 + 1j * eta_lambda[i] * np.eye(n)
                assert got[1][i] == np.linalg.norm(f02[i] - f02_t)
                assert got[2][i] == np.linalg.norm(lf[i] - lam_t)

    def test_shape_errors_name_the_argument(self):
        z = np.zeros
        with pytest.raises(ValueError, match="brace input must be a square"):
            brace(z((4, 2, 3)), 0.5)
        with pytest.raises(ValueError, match="tau of shape"):
            brace(z((4, 2, 2)), z(3))
        with pytest.raises(ValueError, match="alpha and beta"):
            batch_mu_kaehler(z((3, 2)), z((4, 2)), 0.5)
        with pytest.raises(ValueError, match="alpha and beta"):
            batch_mu_kaehler(z((3, 2)), z((3, 3)), 0.5)
        with pytest.raises(ValueError, match="tau of shape"):
            batch_mu_kaehler(z((3, 2)), z((3, 2)), z(4))
        with pytest.raises(ValueError, match="alpha must be a 1-d"):
            mu_kaehler(z((3, 2)), z((3, 2)), 0.5)
        with pytest.raises(ValueError, match="eta_lambda, eta20 and eta02"):
            clifford_sd(z(3), z(4), 0.0)
        a, m = z((3, 2)), z((3, 2, 2))
        with pytest.raises(ValueError, match="f02 must have shape"):
            batch_split_residuals(a, a, z((3, 3, 3)), m, 0, 0, 0.5)
        with pytest.raises(ValueError, match="lambda_f must have shape"):
            batch_split_residuals(a, a, m, z((4, 2, 2)), 0, 0, 0.5)
        with pytest.raises(ValueError, match="eta02 of shape"):
            batch_split_residuals(a, a, m, m, z(4), 0, 0.5)
        with pytest.raises(ValueError, match="eta_lambda of shape"):
            batch_split_residuals(a, a, m, m, 0, z((2, 3)), 0.5)
        with pytest.raises(ValueError, match="tau of shape"):
            batch_split_residuals(a, a, m, m, 0, 0, z(2))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
@pytest.mark.parametrize("rows", [1, 2, 50, 4097])
def test_decoupling_bound_rows_of_a_stack_are_single_calls(n, rows):
    """Each row of a stack, tau per row or one scalar, is the single call on that row bit for bit."""
    rng = make_rng(27)
    a, b = _crandn(rng, rows, n), _crandn(rng, rows, n)
    taus = rng.random(rows)
    taus[0] = 0.0  # both ends of the range
    taus[-1] = 1.0
    per_row = decoupling_bound(a, b, taus)
    scalar = decoupling_bound(a, b, 0.375)
    for lhs, rhs in (per_row, scalar):
        assert lhs.shape == rhs.shape == (rows,)
    for i in sorted({0, 1 % rows, rows // 2, rows - 1}):
        single = decoupling_bound(a[i], b[i], taus[i])
        assert all(type(x) is float for x in single)
        assert single == (per_row[0][i], per_row[1][i])
        assert decoupling_bound(a[i], b[i], 0.375) == (scalar[0][i], scalar[1][i])
    grid = decoupling_bound(a.reshape(1, rows, n), b.reshape(1, rows, n), taus)  # tau broadcasts over (1, rows)
    assert np.array_equal(grid[0][0], per_row[0]) and np.array_equal(grid[1][0], per_row[1])


def test_decoupling_bound_refuses_a_tau_out_of_range_or_of_the_wrong_shape():
    a = np.ones((3, 2), dtype=complex)
    for tau in ([0.5, 1.5, 0.5], [0.5, -1e-300, 0.5], [0.5, np.nan, 0.5], -0.5, np.inf):
        with pytest.raises(ValueError, match=r"^decoupling bound requires tau in \[0, 1\]$"):
            decoupling_bound(a, a, tau)
    for tau, shape in (([0.5, 0.5], "(2,)"), (np.full((3, 1), 0.5), "(3, 1)")):
        with pytest.raises(ValueError, match=rf"^tau of shape {re.escape(shape)} does not broadcast over the leading axes \(3,\)$"):
            decoupling_bound(a, a, tau)
    with pytest.raises(ValueError, match=r"^tau of shape \(1,\) does not broadcast over the leading axes \(\)$"):
        decoupling_bound(a[0], a[0], [0.5])


@pytest.mark.parametrize("seed, samples", [(0, 4097), (3, 20_000), (5, 20_000)])
def test_decoupling_check_scales_by_the_norms_not_the_rhs(seed, samples):
    """At n = 1 the inequality is an equality whose rhs is tau |alpha|^2 |beta|^2.

    These draws reach tau ~ 1e-5, where dividing by the rhs inflated the
    matrix route's rounding past the 1e-12 tolerance (worst 1.5e-12 to 3.3e-12).
    """
    check = kaehler_suite("decoupling", samples=samples, seed=seed).checks[0]
    assert check.passed and check.worst < 1e-14


def test_decoupling_check_fails_when_the_brace_drops_its_one_over_n(monkeypatch):
    """A trace term of (1 - tau) tr instead of (1 - tau) tr / n breaks the inequality for n >= 2."""

    def without_one_over_n(alphas, betas, taus):
        _, rhs = decoupling_bound(alphas, betas, taus)
        outers = betas[:, :, None] * alphas.conj()[:, None, :]
        braced = outers - ((1.0 - taus) * np.einsum("mii->m", outers))[:, None, None] * np.eye(alphas.shape[1])
        return np.einsum("mi,mij,mj->m", betas.conj(), braced, alphas).real, rhs

    monkeypatch.setattr(suites, "decoupling_bound", without_one_over_n)
    check = kaehler_suite("decoupling", samples=200, seed=7).checks[0]
    assert not check.passed and check.worst > 0.1 and check.counterexample["n"] >= 2


def test_kaehler_suite_all_green_small():
    report = kaehler_suite(samples=100, seed=3)
    assert report.all_passed, [c.name for c in report.failures()]
    assert all(c.worst <= c.tolerance for c in report.checks)
