"""Spinor-map kernel: pinned block values, identities, optimizer contracts."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monopoles import (
    SpinorPair,
    mu,
    mu_norm_batch,
    outer,
    project_P,
    project_Q,
    properness_constant_estimate,
    quartic_form,
    zero_divisor_margin,
)
from monopoles.mu_kernel import (
    _SPHERE_CHUNK,
    BlockEndo,
    batch_project_P,
    batch_project_Q,
    properness_constant_closed_form,
    properness_value_grad,
    _sphere_norms,
    _zero_divisor_value_grad,
    random_sphere_search,
)
from monopoles import mu_kernel
from monopoles.suites import mu_suite

E1 = np.array([1, 0], dtype=complex)
E2 = np.array([0, 1], dtype=complex)
ZERO2 = np.zeros(2, dtype=complex)


def blocks_close(endo, expected, tol=1e-14):
    for i in (0, 1):
        for j in (0, 1):
            assert np.allclose(endo.block(i, j), expected[i][j], atol=tol), (i, j)


class TestOuter:
    def test_basis_pair(self):
        got = outer(SpinorPair(E1, ZERO2), SpinorPair(E1, ZERO2))
        e11 = np.outer(E1, E1)
        z = np.zeros((2, 2))
        blocks_close(got, [[e11, z], [z, z]])

    def test_zero_spinor(self):
        z = SpinorPair(ZERO2, ZERO2)
        assert outer(z, SpinorPair(E1, E2)).norm() == 0.0

    def test_swapped_basis_vectors(self):
        got = outer(SpinorPair(E1, E2), SpinorPair(E2, E1))
        e = lambda i, j: np.outer([1, 0] if i == 1 else [0, 1], [1, 0] if j == 1 else [0, 1])
        blocks_close(got, [[e(1, 2), e(1, 1)], [e(2, 2), e(2, 1)]])

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="same n"):
            outer(SpinorPair(E1, ZERO2), SpinorPair(np.zeros(3), np.zeros(3)))


class TestProjections:
    def test_P_on_basis_outer(self):
        got = project_P(outer(SpinorPair(E1, ZERO2), SpinorPair(E1, ZERO2)))
        d = 0.25 * np.diag([1, -1]).astype(complex)
        z = np.zeros((2, 2))
        blocks_close(got, [[d, z], [z, -d]])

    def test_P_kills_identity(self):
        assert project_P(BlockEndo(np.eye(4))).norm() == 0.0

    def test_P_fixes_its_image(self, rng):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a -= np.trace(a) / 2 * np.eye(2)
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b -= np.trace(b) / 2 * np.eye(2)
        m = BlockEndo(np.block([[a, b], [b, -a]]))
        assert np.allclose(project_P(m).mat, m.mat, atol=1e-14)

    def test_Q_on_basis_outer(self):
        got = project_Q(outer(SpinorPair(E1, ZERO2), SpinorPair(E1, ZERO2)))
        q = 0.25 * np.eye(2, dtype=complex)
        z = np.zeros((2, 2))
        blocks_close(got, [[q, z], [z, -q]])

    def test_Q_kills_identity(self):
        assert project_Q(BlockEndo(np.eye(6))).norm() == 0.0

    def test_Q_kills_traceless_offdiagonal_block(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 3] = 1.0  # upper-right block E12, traceless
        assert project_Q(BlockEndo(m)).norm() == 0.0

    def test_idempotent_and_complementary(self, rng):
        m = BlockEndo(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        p, q = project_P(m), project_Q(m)
        assert np.allclose(project_P(p).mat, p.mat, atol=1e-13)
        assert np.allclose(project_Q(q).mat, q.mat, atol=1e-13)
        assert project_Q(p).norm() < 1e-13
        assert project_P(q).norm() < 1e-13


class TestMu:
    def test_tau0_basis_value(self):
        m = mu(0.0, SpinorPair(E1, ZERO2))
        d = 0.25 * np.diag([1, -1]).astype(complex)
        z = np.zeros((2, 2))
        blocks_close(m, [[d, z], [z, -d]])
        assert m.norm() == pytest.approx(0.5, abs=1e-15)

    def test_zero_spinor(self):
        assert mu(0.7, SpinorPair(ZERO2, ZERO2)).norm() == 0.0

    def test_n1_tau0_vanishes(self, rng):
        psi = SpinorPair(rng.standard_normal(1) + 1j, rng.standard_normal(1) - 0.5j)
        assert mu(0.0, psi).norm() < 1e-15

    def test_tau_out_of_range_warns(self):
        with pytest.warns(UserWarning, match="outside"):
            mu(1.5, SpinorPair(E1, E2))

    @settings(max_examples=40, deadline=None)
    @given(
        st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
        st.floats(0, 1),
    )
    def test_sesquilinearity(self, c, tau):
        rng = np.random.default_rng(3)
        psi = SpinorPair(*(rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))))
        phi = SpinorPair(*(rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))))
        scaled_psi = SpinorPair(c * psi.alpha, c * psi.beta)
        scaled_phi = SpinorPair(c * phi.alpha, c * phi.beta)
        assert np.allclose(
            mu(tau, scaled_psi, phi).mat, c * mu(tau, psi, phi).mat, atol=1e-10
        )
        assert np.allclose(
            mu(tau, psi, scaled_phi).mat, np.conj(c) * mu(tau, psi, phi).mat, atol=1e-10
        )


class TestQuarticForm:
    def test_basis_tau0(self):
        assert quartic_form(0.0, SpinorPair(E1, ZERO2)) == pytest.approx(0.25, abs=1e-15)

    def test_zero(self):
        assert quartic_form(0.3, SpinorPair(ZERO2, ZERO2)) == 0.0

    def test_basis_tau1(self):
        # ||P||^2 + ||Q||^2 = 1/4 + 1/4
        assert quartic_form(1.0, SpinorPair(E1, ZERO2)) == pytest.approx(0.5, abs=1e-15)

    def test_batch_norms_match_matrix_route(self, rng):
        for n in (1, 2, 4):
            for tau in (0.0, 0.4, 1.0):
                v = rng.standard_normal((64, 4 * n))
                v = v / np.linalg.norm(v, axis=1, keepdims=True)
                a = v[:, :n] + 1j * v[:, 2 * n : 3 * n]
                b = v[:, n : 2 * n] + 1j * v[:, 3 * n :]
                fast = mu_norm_batch(tau, a, b)
                slow = np.array(
                    [mu(tau, SpinorPair(a[i], b[i])).norm() for i in range(64)]
                )
                assert np.allclose(fast, slow, rtol=1e-9, atol=1e-12)


class TestPropernessEstimate:
    def test_n1_tau0_exactly_zero(self):
        rep = properness_constant_estimate(1, 0.0, starts=4, seed=0)
        assert rep.estimate == 0.0
        assert rep.success is None

    def test_n2_tau0_value(self):
        rep = properness_constant_estimate(2, 0.0, starts=32, seed=7)
        assert rep.estimate <= 0.5 + 1e-12
        assert rep.estimate == pytest.approx(0.5, abs=1e-9)
        assert rep.success is True

    def test_monotone_in_tau(self):
        a = properness_constant_estimate(2, 0.0, starts=16, seed=7)
        b = properness_constant_estimate(2, 1.0, starts=16, seed=7)
        assert b.estimate >= a.estimate - 1e-8

    def test_report_invariants(self):
        rep = properness_constant_estimate(3, 0.5, starts=10, seed=1)
        assert rep.estimate == min(rep.values_per_start)
        assert rep.estimate >= 0.0
        assert len(rep.values_per_start) == rep.starts
        assert isinstance(rep.argmin, SpinorPair)
        assert rep.argmin.norm() == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_given_seed(self):
        a = properness_constant_estimate(3, 0.25, starts=12, seed=42)
        b = properness_constant_estimate(3, 0.25, starts=12, seed=42)
        assert a.values_per_start == b.values_per_start
        assert a.estimate == b.estimate

    def test_random_search_never_beats_descent_materially(self):
        rep = properness_constant_estimate(2, 0.0, starts=32, seed=3)
        found = random_sphere_search(2, 0.0, samples=100_000, seed=3)
        assert found >= rep.estimate - 1e-6

    def test_rejects_n0(self):
        with pytest.raises(ValueError):
            properness_constant_estimate(0, 0.0)


class TestPropernessClosedForm:
    @pytest.mark.parametrize("n, tau", [(n, t) for n in (1, 2, 3, 4) for t in (0.0, 0.5, 1.0) if (n, t) != (1, 0.0)])
    def test_equals_the_optimizer_estimate(self, n, tau):
        """sqrt((n-1+tau^2)/(2n)) is the descent's minimum; at tau = 0.5 it is not sqrt((n-1+tau)/(2n))."""
        estimate = properness_constant_estimate(n, tau, starts=16, seed=7).estimate
        assert properness_constant_closed_form(n, tau) == pytest.approx(estimate, rel=1e-12, abs=0.0)

    def test_attained_at_parallel_components(self):
        a = np.array([0.6, 0.8j])  # a unit vector; (a, i a/2)/|.| is a unit spinor with beta || alpha
        psi = SpinorPair(a / 1.25**0.5, 0.5j * a / 1.25**0.5)
        for tau in (0.0, 0.5, 1.0):
            assert mu(tau, psi).norm() == pytest.approx(properness_constant_closed_form(2, tau), rel=1e-14)

    @pytest.mark.parametrize("n, tau", [(0, 0.5), (2, -0.1), (2, 1.5), (2, float("nan"))])
    def test_rejects_inputs_outside_its_derivation(self, n, tau):
        with pytest.raises(ValueError):
            properness_constant_closed_form(n, tau)


def _einsum_norms(tau, a, b):
    """mu_norm_batch's closed form over complex einsum invariants."""
    n = a.shape[1]
    na2 = np.einsum("ij,ij->i", a.conj(), a).real
    nb2 = np.einsum("ij,ij->i", b.conj(), b).real
    ab2 = np.abs(np.einsum("ij,ij->i", a.conj(), b)) ** 2
    if n == 1:
        p_sq = np.zeros_like(na2)
    else:
        p_sq = 0.5 * (na2**2 + nb2**2 - 2 * ab2 - (na2 - nb2) ** 2 / n) + 2 * (na2 * nb2 - ab2 / n)
    q_sq = (na2 - nb2) ** 2 / (2 * n) + 2 * ab2 / n
    return np.sqrt(np.maximum(p_sq + tau * tau * q_sq, 0.0))


def _sphere_search_oracle(n, tau, samples, seed):
    """The search drawn in one call per stream, evaluated on spinor rows through mu_norm_batch.

    The rows ``alpha = sqrt(x) e1`` and ``beta = sqrt(y c) e1 + sqrt(y (1 - c)) e2``
    have the invariants ``(x, y, x y c)`` that the search reads its samples as.
    """
    bits = np.random.Philox(np.random.SeedSequence(entropy=seed))
    uniform_rng = np.random.Generator(bits.jumped())  # jumped from the unused state
    ga, gb = np.random.Generator(bits).standard_gamma(n, (samples, 2)).T
    u = uniform_rng.random(samples)
    x, y = ga / (ga + gb), gb / (ga + gb)
    c = 1.0 - (1.0 - u) ** (1.0 / (n - 1)) if n > 1 else np.ones(samples)
    a, b = np.zeros((samples, n)), np.zeros((samples, n))
    a[:, 0], b[:, 0] = np.sqrt(x), np.sqrt(y * c)
    if n > 1:
        b[:, 1] = np.sqrt(y * (1.0 - c))
    return float(mu_norm_batch(tau, a, b).min())


def _gaussian_route_norms(tau, n, samples, rng):
    """|mu| at normalized standard complex Gaussian spinors: the law the search must match."""
    z = rng.standard_normal((samples, 4 * n))
    v = z[:, : 2 * n] + 1j * z[:, 2 * n :]
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return mu_norm_batch(tau, v[:, :n], v[:, n:])


def _ks_statistic(a, b):
    """Two-sample Kolmogorov-Smirnov statistic: the largest gap between the empirical CDFs."""
    a, b = np.sort(a), np.sort(b)
    both = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, both, side="right") / a.size
    cdf_b = np.searchsorted(b, both, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


class TestSphereSearch:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_norm_batch_equals_einsum_route_bitwise(self, n, rng):
        for scale in (1e-3, 1.0, 1e4):
            a = scale * (rng.standard_normal((257, n)) + 1j * rng.standard_normal((257, n)))
            b = scale * (rng.standard_normal((257, n)) + 1j * rng.standard_normal((257, n)))
            for tau in (0.0, 0.3, 1.0):
                assert np.array_equal(mu_norm_batch(tau, a, b), _einsum_norms(tau, a, b))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("chunks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 3)])
    def test_chunked_search_matches_one_draw(self, n, chunks, extra):
        samples = chunks * _SPHERE_CHUNK + extra
        for tau in (0.0, 0.5, 1.0):
            found = random_sphere_search(n, tau, samples, seed=5)
            want = _sphere_search_oracle(n, tau, samples, seed=5)
            assert abs(found - want) <= 4 * np.spacing(max(found, want)), tau

    @pytest.mark.parametrize("n", [0, -2])
    def test_rejects_n_below_one(self, n):
        with pytest.raises(ValueError, match="n must be >= 1"):
            random_sphere_search(n, 0.0, samples=10)

    def test_norm_batch_rejects_empty_spinors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no divide warning on the way to the error
            with pytest.raises(ValueError, match="n must be >= 1"):
                mu_norm_batch(0.5, np.zeros((3, 0)), np.zeros((3, 0)))

    @pytest.mark.parametrize("samples", [0, -3])
    def test_no_samples_gives_inf(self, samples):
        assert random_sphere_search(2, 0.5, samples) == np.inf

    @pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_tau(self, tau):
        with pytest.raises(ValueError, match="tau must be finite"):
            random_sphere_search(2, tau, samples=10)

    @pytest.mark.parametrize("n", [2.0, 2.5, "2"])
    def test_rejects_non_integer_n(self, n):
        with pytest.raises(TypeError, match="n must be an integer"):
            random_sphere_search(n, 0.5, samples=10)

    @pytest.mark.parametrize("samples", [10.0, 2.5])
    def test_rejects_non_integer_samples(self, samples):
        with pytest.raises(TypeError, match="samples must be an integer"):
            random_sphere_search(2, 0.5, samples)

    def test_accepts_numpy_integers(self):
        want = random_sphere_search(2, 0.5, 100)
        assert random_sphere_search(np.int64(2), 0.5, np.int32(100)) == want

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_zero_gamma_pair_is_read_as_a_balanced_spinor(self, n):
        # only at n = 1 can standard_gamma return two zeros; the reading is the same for every n
        u = np.array([0.0, 0.3, 0.9])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no 0/0 on the way
            for tau in (0.0, 0.5, 1.0):
                zero = _sphere_norms(tau, n, np.zeros((3, 2)), u)
                assert np.array_equal(zero, _sphere_norms(tau, n, np.ones((3, 2)), u)), tau
                assert np.isfinite(zero).all()

    def test_a_nan_chunk_minimum_is_not_dropped(self, monkeypatch):
        real = mu_kernel._sphere_norms
        calls = []

        def first_chunk_nan(*args):
            vals = real(*args)
            if not calls:
                vals[0] = np.nan
            calls.append(vals.size)
            return vals

        monkeypatch.setattr(mu_kernel, "_sphere_norms", first_chunk_nan)
        assert np.isnan(random_sphere_search(2, 0.5, _SPHERE_CHUNK + 5, seed=1))
        assert calls == [_SPHERE_CHUNK, 5]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_invariant_law_matches_the_gaussian_route(self, n):
        # KS statistic of 1e5 against 1e5 samples; the right law reads <= 0.006 here, while
        # c ~ Beta(1, n) instead of Beta(1, n - 1) reads >= 0.07 and c = 1 reads 1.0
        rng = np.random.default_rng(20 + n)
        samples = 100_000
        for tau in (0.0, 0.5, 1.0):
            want = _gaussian_route_norms(tau, n, samples, rng)
            got = _sphere_norms(tau, n, rng.standard_gamma(n, (samples, 2)), rng.random(samples))
            assert _ks_statistic(got, want) <= 0.01, tau

    def test_n1_search_is_tau_over_sqrt2(self):
        for tau in (0.0, 0.25, 0.5, 1.0):
            found = random_sphere_search(1, tau, samples=50_000, seed=2)
            assert abs(found - tau / np.sqrt(2)) <= 4 * np.spacing(tau / np.sqrt(2)), tau

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_sampled_minimum_never_undercuts_the_closed_form(self, n):
        for tau in (0.0, 0.5, 1.0):
            floor = np.sqrt((n - 1 + tau * tau) / (2 * n))
            for seed in range(5):
                found = random_sphere_search(n, tau, samples=100_000, seed=seed)
                assert found >= floor * (1 - 1e-12), (tau, seed)


class TestZeroDivisorMargin:
    def test_excluded_case_named(self):
        with pytest.raises(ValueError, match="n >= 2 or tau != 0"):
            zero_divisor_margin(1, 0.0)

    def test_rejects_n0(self):
        with pytest.raises(ValueError, match=r"^n must be >= 1$"):
            zero_divisor_margin(0, 0.5)

    def test_tau_out_of_range_warns(self):
        with pytest.warns(UserWarning, match=r"^tau=1\.5 lies outside \[0, 1\]$"):
            zero_divisor_margin(2, 1.5, starts=1)

    def test_n2_tau0_positive(self):
        rep = zero_divisor_margin(2, 0.0, starts=24, seed=7)
        assert rep.estimate > rep.positivity_floor
        assert rep.success is True

    def test_n1_nonzero_tau_allowed(self):
        rep = zero_divisor_margin(1, 0.5, starts=8, seed=7)
        assert rep.estimate > 0

    def test_diagonal_restriction_matches_properness_objective(self, rng):
        n = 3
        vg_pair = _zero_divisor_value_grad(n, 0.25)
        vg_diag = properness_value_grad(n, 0.25)
        for _ in range(20):
            x = rng.standard_normal(4 * n)
            x /= np.linalg.norm(x)
            f_diag, _ = vg_diag(x)
            f_pair, _ = vg_pair(np.concatenate([x, x]))
            assert f_pair == pytest.approx(f_diag, rel=1e-12)


def _per_block_projections(mats, n):
    """P and Q of a stack, one 2-d block slice at a time: the reference the block view equals bit for bit."""
    p = mats.copy()
    half = 0.5 * (p[..., :n, :n] + p[..., n:, n:])
    p[..., :n, :n] -= half
    p[..., n:, n:] -= half
    q = np.zeros_like(mats)
    half_tr = 0.5 * (mats[..., :n, :n].trace(axis1=-2, axis2=-1)
                     + mats[..., n:, n:].trace(axis1=-2, axis2=-1))
    halves = (slice(0, n), slice(n, 2 * n))
    for i, ra in enumerate(halves):
        for j, rb in enumerate(halves):
            blk = p[..., ra, rb]
            p[..., ra, rb] = blk - (blk.trace(axis1=-2, axis2=-1) / n)[..., None, None] * np.eye(n)
            tr = mats[..., ra, rb].trace(axis1=-2, axis2=-1)
            if i == j:
                tr = tr - half_tr
            q[..., ra, rb] = (tr / n)[..., None, None] * np.eye(n)
    return p, q


def _single_point_objective(n, tau, pair):
    """The objectives' single-point arithmetic: ``np.outer``, ``np.vdot`` and 2-d products."""

    def unpack(y):
        return y[: y.size // 2] + 1j * y[y.size // 2 :]

    def value_and_grad(x):
        v, w = (unpack(x[: 4 * n]), unpack(x[4 * n :])) if pair else (unpack(x),) * 2
        k = np.outer(v, w.conj())
        p, q = _per_block_projections(k[None], n)
        r = (p + tau * tau * q)[0]
        value = float(np.real(np.vdot(r, k)))
        if not pair:
            g = 4.0 * (r @ v)
            return value, np.concatenate([g.real, g.imag])
        gv, gw = 2.0 * (r @ w), 2.0 * (r.conj().T @ v)
        return value, np.concatenate([gv.real, gv.imag, gw.real, gw.imag])

    return value_and_grad


class TestStackedObjectives:
    """Each slice of a stacked objective call is the single-point call, bit for bit."""

    @pytest.mark.parametrize("lead", [(), (0,), (1,), (17,), (3, 5)], ids=str)
    @pytest.mark.parametrize("n", range(1, 10))
    def test_block_view_projections_equal_the_per_block_oracle(self, n, lead):
        rng = np.random.default_rng(n)
        shape = lead + (2 * n, 2 * n)
        mats = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        p, q = _per_block_projections(mats, n)
        assert np.array_equal(batch_project_P(mats, n), p)
        assert np.array_equal(batch_project_Q(mats, n), q)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("tau", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("pair", [False, True], ids=["properness", "zero_divisor"])
    def test_slices_equal_single_points(self, n, tau, pair):
        objective = (_zero_divisor_value_grad if pair else properness_value_grad)(n, tau)
        reference = _single_point_objective(n, tau, pair)
        rng = np.random.default_rng(100 * n + int(10 * tau) + pair)
        d = (8 if pair else 4) * n
        x = rng.standard_normal((2, 4, d)) * 10.0 ** rng.integers(-3, 3, size=(2, 4, 1))
        values, grads = objective(x)
        assert values.shape == (2, 4) and grads.shape == (2, 4, d)
        for i in range(2):
            for j in range(4):
                f_one, g_one = objective(x[i, j])
                f_ref, g_ref = reference(x[i, j])
                assert values[i, j] == f_one == f_ref
                assert np.array_equal(grads[i, j], g_one) and np.array_equal(g_one, g_ref)


def test_mu_suite_all_green_small():
    report = mu_suite(samples=150, seed=2)
    assert report.all_passed, [c.name for c in report.failures()]
    assert all(c.worst <= c.tolerance for c in report.checks)
