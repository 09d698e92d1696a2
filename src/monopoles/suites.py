"""Seeded property suites behind ``mu check`` and ``kaehler check``.

Each check draws its own Philox stream (spawned from the suite seed and the
check's registry index), evaluates a mathematical identity or inequality
over a sample grid, and reports the worst deviation together with the first
counterexample found, if any.  Every sampled grid check has one shape: it
draws each grid cell whole, in a fixed stream order, and :func:`_sliced`
evaluates the cell in slices of at most ``_SLICE_BYTES`` of complex
matrices, so the matrices built from a large ``samples`` stay bounded, each
slice's temporaries stay below malloc's mmap threshold, and the slice size
changes no report.  The ``mu`` checks evaluate the batch projections
``batch_project_P``/``batch_project_Q``, which the single-pair ``mu``,
``project_P`` and ``project_Q`` apply to a stack of one, and tie the scalar
API to them with spot checks.  The routes kept independent of the code they
check are the closed-form scalar invariants of ``mu_norm_batch``, the brace
route ``batch_mu_kaehler``, the explicit four-block formula of
``projection_matches_block_formula`` and ``zero_divisor_identity_batch``.
The decoupling check tests ``kaehler.decoupling_bound`` itself against its
inequality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .kaehler import (
    PointwiseField,
    batch_mu_kaehler,
    batch_split_residuals,
    batch_split_rhs,
    brace,
    clifford_sd,
    decoupling_bound,
    impossibility_margin,
    impossibility_margin_closed_form,
)
from .mu_kernel import (
    _GRADIENT_TOL,
    SpinorPair,
    batch_matvec,
    batch_outer,
    batch_project_P,
    batch_project_Q,
    mu,
    mu_norm_batch,
    properness_constant_closed_form,
    properness_constant_estimate,  # noqa: F401  unused here; the benchmark tracer wraps it under this name
    properness_value_grad,
    quartic_form,
)
from .optim import _rng, row_dots

__all__ = [
    "CheckResult",
    "SuiteReport",
    "mu_suite",
    "kaehler_suite",
    "zero_divisor_identity_batch",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    samples: int
    worst: float
    tolerance: float
    counterexample: dict | None = None


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    seed: int
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)


def _complex_rows(rng, *shape: int) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _random_su(rng, k: int, batch: int) -> np.ndarray:
    q, r = np.linalg.qr(_complex_rows(rng, batch, k, k))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * (diag.conj() / np.abs(diag))[..., None, :]
    det = np.linalg.det(q)
    return q * (det ** (-1.0 / k))[..., None, None]


def _grid_check(
    name: str, tol: float, cells: Iterable[tuple[object, Callable[[int], dict]]]
) -> CheckResult:
    """Worst deviation over ``cells`` and the first counterexample above ``tol``.

    ``cells`` yields ``(deviations, counterexample)`` pairs, one per grid
    cell: an array (or scalar) of per-sample deviations and a builder of the
    report entry for the sample at a flat index.  The counterexample comes
    from the first cell that has a NaN deviation, at its first NaN, or whose
    maximum raises the running worst above ``tol``, at that maximum, and the
    check passes when there is none.  ``worst`` is the largest deviation
    that is a number.  The builder is called before ``cells`` advances, so
    it may read the generator's current locals.
    """
    worst, bad, total = 0.0, None, 0
    for devs, counterexample in cells:
        devs = np.asarray(devs)
        nan = np.isnan(devs)
        total += devs.size
        if bad is None and nan.any():
            bad = _strict(counterexample(int(nan.argmax())))
        dev = float(np.fmax.reduce(devs, axis=None))
        if dev > worst:
            worst = dev
            if dev > tol and bad is None:
                bad = _strict(counterexample(int(devs.argmax())))
        del devs, counterexample  # drop the cell before the next one is drawn
    return CheckResult(name, bad is None, total, worst, tol, bad)


def _strict(entry: dict) -> dict:
    """``entry`` with each float value that is no finite number as ``None``: a report is strict JSON."""
    return {k: None if isinstance(v, float) and not np.isfinite(v) else v for k, v in entry.items()}


def _grid(name: str, tol: float):
    """Decorator: a cell generator ``cells(rng, samples, seed)`` becomes a check.

    The check has the registry signature ``(seed, index, samples)`` and runs
    :func:`_grid_check` on the cells drawn from the check's own stream.
    """

    def wrap(cells):
        def check(seed, index, samples):
            return _grid_check(name, tol, cells(_rng(seed, index), samples, seed))

        check.cells = cells  # the undecorated generator, for runs at another tolerance
        return check

    return wrap


# Bytes of complex matrices one slice may build.  Below glibc's 128 KiB
# M_MMAP_THRESHOLD (mallopt(3)) a slice's temporaries come from the heap
# and are reused, where larger ones are mapped and faulted in afresh on
# every call; the budget sweep is in BENCH_28.json.
_SLICE_BYTES = 64 * 1024


def _sliced(part: Callable, *draws: np.ndarray):
    """One grid cell, drawn whole, evaluated ``_SLICE_BYTES`` of matrices at a time.

    ``draws`` hold the cell's samples, one row each.  ``part(start, *rows)``
    gets the rows from ``start`` of every draw and returns their deviations
    and a builder of the counterexample at an index into those rows.  The
    widest complex matrix a part builds from one row is ``w x w``, with ``w``
    the widest trailing axis of the draws (at least 2), so a slice holds
    ``_SLICE_BYTES // (16 w^2)`` rows, and at least one.  The cell's
    deviations are the slices' concatenated, and its builder routes a cell
    index to its slice, so the slice size changes no report.
    """
    width = max([2] + [d.shape[-1] for d in draws if d.ndim > 1])
    size = max(1, _SLICE_BYTES // (16 * width * width))
    parts = [part(i, *(d[i : i + size] for d in draws)) for i in range(0, len(draws[0]), size)]
    return np.concatenate([devs for devs, _ in parts]), lambda i: parts[i // size][1](i % size)


# ---------------------------------------------------------------------------
# a batch evaluation route, built without the projections or the brace
# ---------------------------------------------------------------------------

def zero_divisor_identity_batch(alphas: np.ndarray, betas: np.ndarray):
    """(lhs, rhs_identity, rhs_inequality) for the traceless outer product.

    lhs = ||(alpha beta^*)_0||^2 from explicit matrices;
    rhs_identity = |alpha|^2 |beta|^2 - |tr(alpha beta^*)|^2 / n;
    rhs_inequality = (1 - 1/n) |alpha|^2 |beta|^2.
    """
    n = alphas.shape[1]
    mats = alphas[:, :, None] * betas.conj()[:, None, :]
    tr = np.einsum("mii->m", mats)
    mats0 = mats - (tr / n)[:, None, None] * np.eye(n)
    lhs = np.einsum("mij,mij->m", mats0.conj(), mats0).real
    na2 = np.einsum("mi,mi->m", alphas.conj(), alphas).real
    nb2 = np.einsum("mi,mi->m", betas.conj(), betas).real
    rhs_identity = na2 * nb2 - np.abs(tr) ** 2 / n
    rhs_inequality = (1.0 - 1.0 / n) * na2 * nb2
    return lhs, rhs_identity, rhs_inequality


# ---------------------------------------------------------------------------
# mu suite
# ---------------------------------------------------------------------------

_MU_GRID_NS = (1, 2, 3, 4, 5, 6)
_MU_GRID_TAUS = (0.0, 0.25, 0.5, 1.0)


def _spinor_counterexample(row: np.ndarray, n: int, tau: float, lhs, rhs) -> dict:
    """The report entry of the spinor ``row = (alpha, beta)`` in C^{2n}."""
    return {"tau": tau, "alpha": row[:n].tolist(), "beta": row[n:].tolist(), "lhs": lhs, "rhs": rhs}


def _batch_frob_sq(mats: np.ndarray) -> np.ndarray:
    return np.einsum("mij,mij->m", mats.conj(), mats).real


def _batch_mu_mats(tau: float, v: np.ndarray, w: np.ndarray | None, n: int):
    """(mu matrices, P part, Q part) for stacked spinor vectors."""
    k = v[:, :, None] * (v if w is None else w).conj()[:, None, :]
    p = batch_project_P(k, n)
    q = batch_project_Q(k, n)
    return p + tau * q, p, q


@_grid("quartic_equals_P2_plus_tau_Q2", 1e-10)
def _check_quartic_identity(rng, samples, seed):
    """quartic_form == ||P||^2 + tau ||Q||^2, batched with API spot checks."""
    for n in _MU_GRID_NS:
        for tau in _MU_GRID_TAUS:
            v = _complex_rows(rng, samples, 2 * n)

            def part(start, w):
                mu_mats, p, q = _batch_mu_mats(tau, w, None, n)
                lhs = np.einsum("mi,mij,mj->m", w.conj(), mu_mats, w).real
                rhs = _batch_frob_sq(p) + tau * _batch_frob_sq(q)
                rel = np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-30)
                for i in range(min(8 - start, len(w))):  # tie the scalar API to the cell's first rows
                    psi = SpinorPair(w[i, :n], w[i, n:])
                    rel_i = abs(quartic_form(tau, psi) - lhs[i]) / max(abs(lhs[i]), 1e-30)
                    rel[i] = max(rel[i], rel_i)
                return rel, lambda i: _spinor_counterexample(w[i], n, tau, float(lhs[i]), float(rhs[i]))

            yield _sliced(part, v)


@_grid("projection_matches_block_formula", 1e-12)
def _check_block_formula(rng, samples, seed):
    """Projection route against the explicit four-block matrix, built separately."""
    for n in _MU_GRID_NS:
        v = _complex_rows(rng, samples, 2 * n)
        eye = np.eye(n)

        def tl(m):
            return m - (np.einsum("mii->m", m) / n)[:, None, None] * eye

        def part(start, w):
            a, b = w[:, :n], w[:, n:]
            aa = batch_outer(a, a)
            bb = batch_outer(b, b)
            ref = np.empty((len(w), 2 * n, 2 * n), dtype=complex)
            ref[:, :n, :n] = 0.5 * tl(aa - bb)
            ref[:, :n, n:] = tl(a[:, :, None] * b.conj()[:, None, :])
            ref[:, n:, :n] = tl(b[:, :, None] * a.conj()[:, None, :])
            ref[:, n:, n:] = 0.5 * tl(bb - aa)
            dev = np.abs(batch_project_P(batch_outer(w, w), n) - ref).max(axis=(1, 2))
            return dev, lambda i: _spinor_counterexample(w[i], n, 0.0, float(dev[i]), 0.0)

        yield _sliced(part, v)


@_grid("projections_orthogonal", 1e-10)
def _check_orthogonality(rng, samples, seed):
    """The cell's real and imaginary parts are drawn whole, its complex matrices per slice."""
    for n in _MU_GRID_NS:
        re = rng.standard_normal((samples, 2 * n, 2 * n))
        im = rng.standard_normal((samples, 2 * n, 2 * n))

        def part(start, re, im):
            ms = re + 1j * im
            p = batch_project_P(ms, n)
            q = batch_project_Q(ms, n)
            scale = np.maximum(_batch_frob_sq(ms), 1e-30)
            devs = np.maximum.reduce([
                np.abs(np.einsum("mij,mij->m", p.conj(), q)),
                np.abs(np.einsum("mij,mij->m", p.conj(), ms) - _batch_frob_sq(p)),
                np.abs(np.einsum("mij,mij->m", q.conj(), ms) - _batch_frob_sq(q)),
            ]) / scale
            # the builder rebuilds its row, so no slice's complex matrices outlive the slice
            return devs, lambda i: {"n": n, "matrix": (re[i] + 1j * im[i]).tolist()}

        yield _sliced(part, re, im)


@_grid("mu_hermitian_and_traceless_at_tau0", 1e-12)
def _check_hermiticity(rng, samples, seed):
    for n in _MU_GRID_NS:
        for tau in _MU_GRID_TAUS:
            v = _complex_rows(rng, samples, 2 * n)

            def part(start, w):
                mu_mats, _, _ = _batch_mu_mats(tau, w, None, n)
                dev = np.abs(mu_mats - mu_mats.conj().transpose(0, 2, 1)).max(axis=(1, 2))
                halves = (slice(0, n), slice(n, 2 * n)) if tau == 0.0 else ()
                for ra in halves:  # the traces of the four blocks
                    for rb in halves:
                        dev = np.maximum(dev, np.abs(np.einsum("mii->m", mu_mats[:, ra, rb])))
                dev = dev / np.maximum(np.einsum("mi,mi->m", w.conj(), w).real, 1e-30)
                return dev, lambda i: _spinor_counterexample(w[i], n, tau, float(dev[i]), 0.0)

            yield _sliced(part, v)


@_grid("mu_norm_monotone_in_tau", 1e-12)
def _check_norm_monotonicity(rng, samples, seed):
    """||mu(tau)|| >= ||mu(0)||, through the matrix route."""
    for n in _MU_GRID_NS:
        for tau in _MU_GRID_TAUS:
            v = _complex_rows(rng, samples, 2 * n)

            def part(start, w):
                _, p, q = _batch_mu_mats(tau, w, None, n)
                norm_tau = np.sqrt(_batch_frob_sq(p) + tau * tau * _batch_frob_sq(q))
                norm_0 = np.sqrt(_batch_frob_sq(p))
                gap = (norm_0 - norm_tau) / np.maximum(norm_tau, 1e-30)
                return gap, lambda i: {"tau": tau, "alpha": w[i, :n].tolist(), "beta": w[i, n:].tolist()}

            yield _sliced(part, v)


@_grid("mu_equivariant_under_su2_x_sun", 1e-10)
def _check_equivariance(rng, samples, seed):
    """mu((u x v) psi, (u x v) phi) == (u x v) mu(psi, phi) (u x v)^*."""
    for n in _MU_GRID_NS:
        for tau in _MU_GRID_TAUS:
            us = _random_su(rng, 2, samples)
            vs = _random_su(rng, n, samples)
            psi = _complex_rows(rng, samples, 2 * n)
            phi = _complex_rows(rng, samples, 2 * n)

            def part(start, us, vs, psi, phi):
                mu_mats, _, _ = _batch_mu_mats(tau, psi, phi, n)
                # batched Kronecker products u (x) v, then two batched matmuls
                kron = np.einsum("mac,mik->maick", us, vs).reshape(-1, 2 * n, 2 * n)
                rhs = kron @ mu_mats @ kron.conj().transpose(0, 2, 1)
                lhs, _, _ = _batch_mu_mats(tau, batch_matvec(kron, psi), batch_matvec(kron, phi), n)
                scale = np.maximum(np.abs(rhs).max(axis=(1, 2)), 1e-30)
                dev = np.abs(lhs - rhs).max(axis=(1, 2)) / scale
                return dev, lambda i: _spinor_counterexample(psi[i], n, tau, float(dev[i]), 0.0)

            yield _sliced(part, us, vs, psi, phi)


@_grid("mu_phase_invariant", 1e-12)
def _check_phase_invariance(rng, samples, seed):
    for n in _MU_GRID_NS:
        for tau in _MU_GRID_TAUS:
            v = _complex_rows(rng, samples, 2 * n)
            z = np.exp(2j * np.pi * rng.random(samples))

            def part(start, w, z):
                lhs, _, _ = _batch_mu_mats(tau, z[:, None] * w, None, n)
                rhs, _, _ = _batch_mu_mats(tau, w, None, n)
                norms = np.einsum("mi,mi->m", w.conj(), w).real
                dev = np.abs(lhs - rhs).max(axis=(1, 2)) / np.maximum(norms, 1e-30)
                return dev, lambda i: _spinor_counterexample(w[i], n, tau, float(dev[i]), 0.0)

            yield _sliced(part, v, z)


def _check_zero_divisor_identity(seed, index, samples):
    """The traceless outer product's norm identity and its exact inequality, per n.

    Each cell is drawn whole and evaluated through :func:`_sliced`; the
    reducer is the check's own, because a violated inequality counts with
    no slack and ends the loop.
    """
    worst, bad, total = 0.0, None, 0
    tol = 1e-10
    rng = _rng(seed, index)
    for n in (2, 3, 4, 5, 6):
        a = _complex_rows(rng, samples, n)
        b = _complex_rows(rng, samples, n)

        def part(start, a, b):
            lhs, rhs_id, rhs_ineq = zero_divisor_identity_batch(a, b)
            rel = np.abs(lhs - rhs_id) / np.maximum(np.abs(rhs_id), 1e-30)
            return np.stack([rel, lhs, rhs_ineq], axis=1), lambda i: {"n": n, "alpha": a[i].tolist(),
                                                                     "beta": b[i].tolist()}

        cols, counterexample = _sliced(part, a, b)
        rel, lhs, rhs_ineq = cols.T
        violated = lhs < rhs_ineq  # inequality is exact; no tolerance slack
        nan = np.isnan(cols).any(axis=1)  # a NaN fails the check, and worst skips it
        dev = float(np.fmax.reduce(rel))
        worst, total = max(worst, dev), total + samples
        if bad is None and (nan.any() or dev > tol or violated.any()):
            bad = counterexample(int(nan.argmax() if nan.any() else rel.argmax() if dev > tol else violated.argmax()))
        if violated.any():
            worst = max(worst, float(np.fmax.reduce(rhs_ineq - lhs)))
            break
    return CheckResult("traceless_outer_zero_divisor", bad is None, total, worst, tol, bad)


@_grid("properness_inequality", 0.0)
def _check_properness_inequality(rng, samples, seed):
    """quartic_form(tau, psi) >= (c - tol)^2 |psi|^4, c the closed-form properness constant.

    The slack ``tol`` is ``_GRADIENT_TOL``, the default gradient tolerance of
    ``properness_constant_estimate``, the optimizer cross-check of ``c``.
    """
    for n in (2, 3, 4):
        for tau in (0.0, 0.5, 1.0):
            floor = max(properness_constant_closed_form(n, tau) - _GRADIENT_TOL, 0.0) ** 2
            a = _complex_rows(rng, samples, n)
            b = _complex_rows(rng, samples, n)

            def part(start, a, b):
                norms4 = (
                    np.einsum("mi,mi->m", a.conj(), a).real
                    + np.einsum("mi,mi->m", b.conj(), b).real
                ) ** 2
                # quartic via the scalar route: ||P||^2 + tau ||Q||^2
                p_sq = mu_norm_batch(0.0, a, b) ** 2
                p_plus_tau_q = p_sq + tau * (mu_norm_batch(1.0, a, b) ** 2 - p_sq)
                gap = p_plus_tau_q - floor * norms4
                return -gap, lambda i: {"n": n, "tau": tau, "alpha": a[i].tolist(), "beta": b[i].tolist()}

            yield _sliced(part, a, b)


@_grid("bilinear_diagonal_consistency", 1e-12)
def _check_bilinear_diagonal(rng, samples, seed):
    """The bilinear map mu(tau, psi, phi) against the polarization of the quadratic one.

    ``mu(psi, phi) = 1/4 sum_k i^k mu(psi + i^k phi)`` over ``k = 0..3``,
    because ``P`` and ``Q`` are linear and ``psi phi^*`` is the polarization
    of ``psi psi^*``.  A reduced sample count is enough.  The batch route
    compares the two sides in one call per slice; the public ``mu(tau, psi,
    phi)`` is spot-checked against it on the cell's first rows.
    """
    phases = (1, 1j, -1, -1j)
    for n in (1, 2, 3, 4):
        for tau in _MU_GRID_TAUS:
            k = max(samples // 100, 25)
            v, u = _complex_rows(rng, 2, k, 2 * n)

            def part(start, v, u):
                both, _, _ = _batch_mu_mats(tau, v, u, n)
                polar = sum(c * _batch_mu_mats(tau, v + c * u, None, n)[0] for c in phases) / 4
                dev = np.abs(both - polar).max(axis=(1, 2))
                for i in range(min(8 - start, len(v))):  # tie the public mu to the batch route
                    psi, phi = SpinorPair.from_vector(v[i]), SpinorPair.from_vector(u[i])
                    dev[i] = max(dev[i], np.abs(mu(tau, psi, phi).mat - both[i]).max())
                return dev, lambda i: {"n": n, "tau": tau, "psi": v[i].tolist(), "phi": u[i].tolist()}

            yield _sliced(part, v, u)


@_grid("analytic_gradient_matches_fd", 1e-6)
def _check_gradient_finite_difference(rng, samples, seed):
    """Analytic gradient of the sphere objective vs central differences.

    Each row of the cell is a unit point of R^{4n}; its central differences
    come from two stacked objective calls on the row displaced by ``+-h``
    along each axis.
    """
    h = 1e-6
    for n in (2, 3):
        for tau in (0.0, 0.5, 1.0):
            vg = properness_value_grad(n, tau)
            k = max(samples // 100, 3)
            x = rng.standard_normal((k, 4 * n))
            x /= np.sqrt(row_dots(x, x))[:, None]

            def part(start, xs):
                _, grad = vg(xs)
                step = h * np.eye(4 * n)
                fd = (vg(xs[:, None] + step)[0] - vg(xs[:, None] - step)[0]) / (2 * h)
                rel = np.sqrt(row_dots(grad - fd, grad - fd)) / np.maximum(np.sqrt(row_dots(fd, fd)), 1e-30)
                return rel, lambda i: {"n": n, "tau": tau, "x": xs[i].tolist()}

            yield _sliced(part, x)


_MU_CHECKS: tuple[tuple[str, Callable], ...] = (
    ("quartic", _check_quartic_identity),
    ("block_formula", _check_block_formula),
    ("orthogonality", _check_orthogonality),
    ("hermiticity", _check_hermiticity),
    ("monotonicity", _check_norm_monotonicity),
    ("equivariance", _check_equivariance),
    ("phase", _check_phase_invariance),
    ("zero_divisor", _check_zero_divisor_identity),
    ("properness", _check_properness_inequality),
    ("diagonal", _check_bilinear_diagonal),
    ("gradient_fd", _check_gradient_finite_difference),
)


def _run_suite(kind: str, checks, first_index: int, suite: str, samples: int, seed: int) -> SuiteReport:
    """Run the registry entries ``checks`` selected by ``suite``.

    The check at registry position ``i`` draws from stream ``first_index + i``.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    names = [name for name, _ in checks]
    if suite != "all" and suite not in names:
        raise ValueError(f"unknown {kind} suite {suite!r}; choose from {['all', *names]}")
    results = tuple(
        fn(seed, first_index + index, samples)
        for index, (name, fn) in enumerate(checks)
        if suite in ("all", name)
    )
    return SuiteReport(suite=f"{kind}:{suite}", seed=seed, checks=results)


def mu_suite(suite: str = "all", samples: int = 200, seed: int = 0) -> SuiteReport:
    """Run the spinor-map property checks.

    ``samples`` is the per-(n, tau) cell sample count for grid checks;
    ``suite`` selects a single named check or ``"all"``.
    """
    return _run_suite("mu", _MU_CHECKS, 0, suite, samples, seed)


# ---------------------------------------------------------------------------
# kaehler suite
# ---------------------------------------------------------------------------

@_grid("brace_linear_unit_trace_scaling", 1e-12)
def _check_brace_algebra(rng, samples, seed):
    """Linearity, the unit at tau = 1 and the trace scaling of brace, per n.

    The draws stay per sample (they mix uniforms and normals); the
    arithmetic is one batched brace call per slice.
    """
    for n in (1, 2, 3, 5):
        f = np.empty((samples, n, n), dtype=complex)
        g = np.empty((samples, n, n), dtype=complex)
        tau = np.empty(samples)
        c = np.empty(samples, dtype=complex)
        for i in range(samples):
            f[i] = _complex_rows(rng, n, n)
            g[i] = _complex_rows(rng, n, n)
            tau[i] = rng.random()
            c[i] = complex(*rng.standard_normal(2))

        def part(start, fs, gs, ts, cs):
            cb = cs[:, None, None]
            bf = brace(fs, ts)
            scale = np.maximum(np.abs(fs).max(axis=(1, 2)) + np.abs(gs).max(axis=(1, 2)), 1e-30)
            tr_gap = np.trace(bf, axis1=1, axis2=2) - ts * np.trace(fs, axis1=1, axis2=2)
            devs = np.maximum.reduce([
                np.abs(brace(fs + cb * gs, ts) - bf - cb * brace(gs, ts)).max(axis=(1, 2)),
                np.abs(brace(fs, 1.0) - fs).max(axis=(1, 2)),
                # hypot is abs() of one complex number; np.abs of a complex
                # array may round the last bit differently
                np.hypot(tr_gap.real, tr_gap.imag),
            ]) / scale
            return devs, lambda i: {"n": n, "tau": float(ts[i]), "f": fs[i].tolist()}

        yield _sliced(part, f, g, tau, c)


@_grid("kaehler_blocks_match_projection_mu", 1e-12)
def _check_mu_kaehler_matches_mu(rng, samples, seed):
    """Brace blocks against the projection route, one array call per slice.

    ``standard_normal((samples, 4, n))`` holds Re alpha, Im alpha, Re beta
    and Im beta of each sample in the order the per-sample draws took them.
    """
    for n in (1, 2, 3, 4, 5):
        for tau in (0.0, 0.25, 1.0):
            z = rng.standard_normal((samples, 4, n))
            v = (z[:, 0::2] + 1j * z[:, 1::2]).reshape(samples, 2 * n)

            def part(start, w):
                rhs, _, _ = _batch_mu_mats(tau, w, None, n)
                devs = np.abs(batch_mu_kaehler(w[:, :n], w[:, n:], tau) - rhs).max(axis=(1, 2))
                return devs, lambda i: {"n": n, "tau": tau, "alpha": w[i, :n].tolist(),
                                        "beta": w[i, n:].tolist()}

            yield _sliced(part, v)


@_grid("clifford_traceless_su2_types", 1e-12)
def _check_clifford(rng, samples, seed):
    """Trace and symmetry type of the Clifford action.

    Always traceless; a real-valued form (real contraction, conjugate
    (2,0)/(0,2) pair) lands in su(2), an imaginary-valued one in i*su(2)
    (Hermitian traceless).  Each row of ``standard_normal((4 * samples, 3))``
    is the contraction and the (0,2) coefficient of one sample.
    """
    z = rng.standard_normal((4 * samples, 3))

    def part(start, lam, e02):
        g_real = clifford_sd(lam, np.conj(e02), e02)
        g_imag = clifford_sd(1j * lam, -np.conj(e02), e02)
        devs = np.maximum.reduce([
            np.abs(np.trace(g_real, axis1=1, axis2=2)),
            np.abs(np.trace(g_imag, axis1=1, axis2=2)),
            np.abs(g_real + g_real.conj().transpose(0, 2, 1)).max(axis=(1, 2)),
            np.abs(g_imag - g_imag.conj().transpose(0, 2, 1)).max(axis=(1, 2)),
        ])
        return devs, lambda i: {"eta_lambda": float(lam[i]),
                                "eta02": [float(e02[i].real), float(e02[i].imag)]}

    yield _sliced(part, z[:, 0], z[:, 1] + 1j * z[:, 2])


@_grid("decoupling_inequality", 1e-12)
def _check_decoupling(rng, samples, seed):
    for n in (1, 2, 3, 4, 6):
        a = _complex_rows(rng, samples, n)
        b = _complex_rows(rng, samples, n)
        taus = rng.random(samples)

        def part(start, a, b, taus):
            lhs, rhs = decoupling_bound(a, b, taus)
            # the matrix route rounds relative to |alpha|^2 |beta|^2, not to rhs, which
            # is tau times that at n = 1 (where the inequality is an equality)
            norms = np.einsum("mi,mi->m", a.conj(), a).real * np.einsum("mi,mi->m", b.conj(), b).real
            dev_pair = np.maximum(rhs - lhs, -rhs) / np.maximum(norms, 1e-30)  # violations of lhs>=rhs>=0
            return dev_pair, lambda i: {"n": n, "tau": float(taus[i]), "alpha": a[i].tolist(),
                                        "beta": b[i].tolist()}

        yield _sliced(part, a, b, taus)


@_grid("margin_matches_closed_form", 1e-4)
def _check_margin_closed_form(rng, samples, seed):
    starts = max(8, min(24, samples))
    for n in (2, 3):
        for tau in (0.25, 0.5, 1.0):
            for lam in (1.0, 2j):
                measured = impossibility_margin(n, tau, lam, starts=starts, seed=seed)
                expected = impossibility_margin_closed_form(n, tau, lam)
                yield abs(measured.estimate - expected) / expected, lambda i: {
                    "n": n,
                    "tau": tau,
                    "lambda": [complex(lam).real, complex(lam).imag],
                    "measured": measured.estimate,
                    "expected": expected,
                }


def _field_draws(rng, n: int):
    """alpha, beta, eta02 and eta_lambda of one random field, in stream order."""
    a = _complex_rows(rng, 1, n)[0]
    b = _complex_rows(rng, 1, n)[0]
    eta02 = complex(*rng.standard_normal(2))
    eta_lambda = 1j * rng.standard_normal()
    return a, b, eta02, eta_lambda


def make_satisfying_field(rng, n: int, tau: float) -> PointwiseField:
    """Random field solving the split curvature equations exactly."""
    a, b, eta02, eta_lambda = _field_draws(rng, n)
    f02, lam = batch_split_rhs(a, b, eta02, eta_lambda, tau)
    return PointwiseField(a, b, f02, lam, eta02, eta_lambda, tau)


def _split_chunk(rng, m: int, tol: float):
    """Verdicts of ``m`` satisfying fields and of their one-entry perturbations.

    Returns the largest matrix residual of the satisfying fields, a boolean
    array marking the samples whose verdicts are wrong, and a builder of the
    counterexample for a sample.  Draws stay per sample (n and tau are
    drawn); the residuals are one batched call per n.
    """
    draws = []
    for _ in range(m):
        n = int(rng.integers(1, 5))
        tau = float(rng.random())
        fields = _field_draws(rng, n)
        which = int(rng.integers(0, 2))
        bump = 1.0 + rng.random()
        draws.append((n, tau, fields, which, bump))
    worst, wrong = 0.0, np.zeros(m, dtype=bool)
    for n in sorted({d[0] for d in draws}):
        idx = np.array([i for i, d in enumerate(draws) if d[0] == n])
        tau = np.array([draws[i][1] for i in idx])
        a, b, eta02, eta_lambda = (np.array(col) for col in zip(*(draws[i][2] for i in idx)))
        which = np.array([draws[i][3] for i in idx])
        bump = np.array([draws[i][4] for i in idx])
        f02, lam = batch_split_rhs(a, b, eta02, eta_lambda, tau)
        good = batch_split_residuals(a, b, f02, lam, eta02, eta_lambda, tau)
        f02_bad, lam_bad = f02.copy(), lam.copy()
        f02_bad[which == 0, 0, 0] += bump[which == 0]  # violate exactly one split equation
        lam_bad[which == 1, 0, 0] += bump[which == 1]
        broken = batch_split_residuals(a, b, f02_bad, lam_bad, eta02, eta_lambda, tau)
        # right verdicts: the solution satisfies both forms, the perturbation neither; a NaN is never right
        right = (good[0] < tol) & (good[1] < tol) & (good[2] < tol)
        right &= (broken[0] >= tol) & ((broken[1] >= tol) | (broken[2] >= tol))
        wrong[idx] = ~right
        worst = max(worst, float(np.fmax.reduce(good[0])))

    def counterexample(i):
        n, tau, _, which, _ = draws[i]
        return {"n": n, "tau": tau, "perturbed": "f02" if which == 0 else "lambda_f"}

    return worst, wrong, counterexample


_SPLIT_CHUNK = 512  # samples per batched split call; draws stay per sample, so it changes no report


def _check_curvature_split(seed, index, samples, tol=1e-9):
    """Matrix and split forms of the curvature equation give the same verdicts.

    Each sample is a random exact solution and a copy with one entry of one
    split equation perturbed; both verdicts count as samples.  ``worst`` is
    the largest matrix residual of the solutions; the counterexample is the
    first sample in draw order with a wrong verdict, with the number of such
    samples as ``false_verdicts``.
    """
    rng = _rng(seed, index)
    worst, bad, false_verdicts = 0.0, None, 0
    for start in range(0, samples, _SPLIT_CHUNK):
        chunk_worst, wrong, counterexample = _split_chunk(rng, min(_SPLIT_CHUNK, samples - start), tol)
        worst = max(worst, chunk_worst)
        if bad is None and wrong.any():
            bad = counterexample(int(wrong.argmax()))
        false_verdicts += int(wrong.sum())
    if bad is not None:
        bad["false_verdicts"] = false_verdicts
    passed = false_verdicts == 0 and worst <= tol
    return CheckResult("curvature_split_equivalence", passed, 2 * samples, worst, tol, bad)


_KAEHLER_CHECKS: tuple[tuple[str, Callable], ...] = (
    ("brace", _check_brace_algebra),
    ("mu_match", _check_mu_kaehler_matches_mu),
    ("clifford", _check_clifford),
    ("decoupling", _check_decoupling),
    ("margin", _check_margin_closed_form),
    ("split", _check_curvature_split),
)


def kaehler_suite(suite: str = "all", samples: int = 200, seed: int = 0) -> SuiteReport:
    """Run the Kahler fiber-algebra checks; see :func:`mu_suite` for knobs."""
    return _run_suite("kaehler", _KAEHLER_CHECKS, 100, suite, samples, seed)
