"""Single-fiber algebra of the unitary monopole equations on a Kahler surface.

On a Kahler surface the positive spinor bundle splits as
``(0,0)-forms (+) (0,2)-forms``, so a spinor is a pair ``(alpha, beta)`` of
``E``-valued coefficients, and the curvature equation becomes matrix algebra
in a fixed fiber.  Everything in this module is pointwise linear algebra:
no differential operator is discretized.  The fiber algebra (brace, the
brace-block quadratic map, the Clifford action, the split residuals, the
decoupling bound) takes leading batch axes, and each slice of a stack is
computed bit for bit as the slice alone would be.

Fiberwise trivialization, fixed once: unit-norm generators of the (2,0) and
(0,2) form lines are chosen with their wedge pairing normalized to 1, and
all (2,0)/(0,2) quantities are coefficients against these generators.  With
the 1-dimensionality of the (0,2) line, the (0,2) component contributes to
the quadratic map through the plain vector outer product ``beta beta^*``.
The Clifford action of a self-dual 2-form carries the explicit overall
factor 4 in this normalization:

    gamma(eta) = 4 [[-i L(eta),  -eta20],
                    [ eta02,      i L(eta)]]

where ``L(eta)`` is the metric contraction of the (1,1) part (purely
imaginary for an imaginary-valued form) and ``eta20 = -conj(eta02)`` for
such forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .mu_kernel import (
    BlockEndo,
    SpinorPair,
    _as_complex_vector as _vec,
    _unpack,
    batch_matvec,
    batch_outer,
    identity_matrix,
    real_pairing,
)
from .optim import OptimizationReport, multistart_minimize

__all__ = [
    "brace",
    "mu_kaehler",
    "batch_mu_kaehler",
    "clifford_sd",
    "PointwiseField",
    "CurvatureSplitVerdict",
    "split_equation_rhs",
    "batch_split_rhs",
    "batch_split_residuals",
    "verify_curvature_split",
    "decoupling_bound",
    "holomorphic_pairing_term",
    "impossibility_margin",
    "impossibility_margin_closed_form",
]


def _square_matrix(f, what: str) -> np.ndarray:
    m = np.asarray(f, dtype=complex)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"{what} must be a square matrix or a stack of square matrices")
    return m


def brace(f, tau) -> np.ndarray:
    """Trace interpolation (f)_0 + (tau/n) tr(f) id of a square matrix.

    At ``tau = 1`` this is the identity map; at ``tau = 0`` the traceless
    part.  The trace scales linearly: ``tr brace(f, tau) = tau tr(f)``.
    ``f`` may carry leading batch axes, ``(..., n, n)``; ``tau`` is a scalar
    or an array broadcasting over them.  Each slice of a stack is computed
    bit for bit as the slice alone would be.
    """
    m = _square_matrix(f, "brace input")
    n = m.shape[-1]
    try:
        coef = ((1.0 - tau) / n) * m.trace(axis1=-2, axis2=-1)
    except ValueError:
        raise ValueError(
            f"tau of shape {np.shape(tau)} does not broadcast over the leading axes "
            f"{m.shape[:-2]} of the brace input"
        ) from None
    return m - coef[..., None, None] * identity_matrix(n)


def _spinor_rows(alphas, betas) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(alphas, dtype=complex)
    b = np.asarray(betas, dtype=complex)
    if a.ndim < 1 or a.shape != b.shape:
        raise ValueError(
            f"alpha and beta must have equal shapes (..., n), got {a.shape} and {b.shape}"
        )
    return a, b


def batch_mu_kaehler(alphas, betas, tau) -> np.ndarray:
    """Brace-block matrices of :func:`mu_kaehler` for stacked spinor components.

    ``alphas`` and ``betas`` have equal shapes ``(..., n)``, ``tau`` is a
    scalar or broadcasts over the leading axes; the result has shape
    ``(..., 2n, 2n)``.
    """
    a, b = _spinor_rows(alphas, betas)
    n = a.shape[-1]
    aa = brace(batch_outer(a, a), tau)
    bb = brace(batch_outer(b, b), tau)
    out = np.empty(aa.shape[:-2] + (2 * n, 2 * n), dtype=complex)
    out[..., :n, :n] = 0.5 * (aa - bb)
    out[..., :n, n:] = brace(batch_outer(a, b), tau)
    out[..., n:, :n] = brace(batch_outer(b, a), tau)
    out[..., n:, n:] = 0.5 * (bb - aa)
    return out


def mu_kaehler(alpha, beta, tau: float) -> BlockEndo:
    """The quadratic spinor map assembled from brace blocks.

    Blocks ``[[(brace(aa*) - brace(bb*))/2, brace(ab*)],
              [brace(ba*), (brace(bb*) - brace(aa*))/2]]`` with all braces at
    the same ``tau``.  Built independently of the projection route in
    :func:`monopoles.mu_kernel.mu`; their agreement on the diagonal is a
    tested identity, not an implementation shortcut.  The arithmetic is
    :func:`batch_mu_kaehler` on a single pair.
    """
    return BlockEndo(batch_mu_kaehler(_vec(alpha, "alpha"), _vec(beta, "beta"), tau))


def clifford_sd(eta_lambda, eta20, eta02) -> np.ndarray:
    """Clifford action of a self-dual 2-form on the split spinor fiber.

    Inputs are the metric contraction of the (1,1) part and the two
    coefficients against the fixed form-line generators.  The output is the
    traceless 2x2 matrix ``4 [[-i*eta_lambda, -eta20], [eta02,
    i*eta_lambda]]``; for a real-valued form (``eta_lambda`` real and
    ``eta02 = conj(eta20)``) it lands in su(2).  The inputs may be arrays
    broadcasting together to a shape ``S``; the result then has shape
    ``S + (2, 2)``.
    """
    try:
        lam, e20, e02 = np.broadcast_arrays(
            *(np.asarray(x, dtype=complex) for x in (eta_lambda, eta20, eta02))
        )
    except ValueError:
        raise ValueError(
            "eta_lambda, eta20 and eta02 must broadcast together, got shapes "
            f"{np.shape(eta_lambda)}, {np.shape(eta20)} and {np.shape(eta02)}"
        ) from None
    out = np.empty(lam.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = -1j * lam
    out[..., 0, 1] = -e20
    out[..., 1, 0] = e02
    out[..., 1, 1] = 1j * lam
    return 4.0 * out


@dataclass(frozen=True)
class PointwiseField:
    """Values of all fields entering the curvature equation at one point.

    ``lambda_f`` stores the value of ``i`` times the metric contraction of
    the curvature (Hermitian for honest unitary input); ``f02`` the matrix
    coefficient of its (0,2) part; ``eta02`` and ``eta_lambda`` the scalar
    perturbation data, with ``eta_lambda`` purely imaginary for an
    imaginary-valued perturbation form.
    """

    alpha: np.ndarray
    beta: np.ndarray
    f02: np.ndarray
    lambda_f: np.ndarray
    eta02: complex
    eta_lambda: complex
    tau: float

    def __init__(self, alpha, beta, f02, lambda_f, eta02, eta_lambda, tau):
        a, b = _spinor_rows(_vec(alpha, "alpha"), _vec(beta, "beta"))
        n = a.size
        f02m = _square_matrix(f02, "f02")
        lf = _square_matrix(lambda_f, "lambda_f")
        if f02m.shape != (n, n) or lf.shape != (n, n):
            raise ValueError("matrix fields must be n x n with n = len(alpha)")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)
        object.__setattr__(self, "f02", f02m)
        object.__setattr__(self, "lambda_f", lf)
        object.__setattr__(self, "eta02", complex(eta02))
        object.__setattr__(self, "eta_lambda", complex(eta_lambda))
        object.__setattr__(self, "tau", float(tau))

    @property
    def n(self) -> int:
        return self.alpha.size


def _gamma_fplus(f02: np.ndarray, lambda_f: np.ndarray) -> np.ndarray:
    """Clifford action of the self-dual curvature, blockwise on C^2 (x) C^n.

    The scalar formula of :func:`clifford_sd` extends to matrix
    coefficients; with ``lambda_f = i L(F)`` the diagonal blocks become
    ``-+ lambda_f`` and the (2,0) coefficient is ``-f02^H`` (conjugation on
    forms, adjoint on endomorphisms).  Stacked ``(..., n, n)`` inputs give
    ``(..., 2n, 2n)``.
    """
    n = f02.shape[-1]
    out = np.empty(f02.shape[:-2] + (2 * n, 2 * n), dtype=complex)
    out[..., :n, :n] = -lambda_f
    out[..., :n, n:] = np.swapaxes(f02.conj(), -1, -2)
    out[..., n:, :n] = f02
    out[..., n:, n:] = lambda_f
    return 4.0 * out


def _gamma_eta_id(eta02, eta_lambda, n: int) -> np.ndarray:
    """gamma(eta) tensored with the identity of the fiber of E (a stacked ``np.kron``)."""
    eta02 = np.asarray(eta02, dtype=complex)
    gamma = clifford_sd(eta_lambda, -np.conj(eta02), eta02)
    blocks = gamma[..., :, None, :, None] * identity_matrix(n)[:, None, :]
    return blocks.reshape(gamma.shape[:-2] + (2 * n, 2 * n))


def _frobenius(x: np.ndarray) -> np.ndarray:
    """Frobenius norms over the trailing two axes.

    Each norm is the square root of the dot products of the flattened real
    and imaginary parts, summed as ``np.linalg.norm`` sums a single matrix,
    so a stack and its slices agree bit for bit.
    """
    flat = x.reshape(x.shape[:-2] + (1, -1))
    re, im = flat.real, flat.imag
    sq = re @ np.swapaxes(re, -1, -2) + im @ np.swapaxes(im, -1, -2)
    return np.sqrt(sq[..., 0, 0])


@dataclass(frozen=True)
class CurvatureSplitVerdict:
    """Residuals of the matrix curvature equation and of its split form.

    The split of the curvature equation has two computable component
    equations at a point (the Dirac line of the full system is differential
    and has no pointwise residual; it is reported as ``None``):

        f02      = brace(beta alpha^*, tau)/4 + eta02 * id
        lambda_f = brace(beta beta^* - alpha alpha^*, tau)/8 + i*eta_lambda*id

    The matrix residual is ``4*sqrt(2)`` times the root-sum-square of the
    split residuals, so the two views agree away from the tolerance edge;
    ``equivalent`` records that agreement at the given tolerance.
    """

    residual_matrix: float
    residual_f02: float
    residual_lambda: float
    residual_dirac: None
    tol: float
    matrix_satisfied: bool
    split_satisfied: bool
    equivalent: bool


def _field_stack(alphas, betas, f02, lambda_f, eta02, eta_lambda, tau):
    """Validated arrays of stacked pointwise fields; errors name the argument."""
    a, b = _spinor_rows(alphas, betas)
    lead, want = a.shape[:-1], a.shape + a.shape[-1:]
    mats = []
    for name, m in (("f02", f02), ("lambda_f", lambda_f)):
        m = np.asarray(m, dtype=complex)
        if m.shape != want:
            raise ValueError(f"{name} must have shape {want} to match alpha, got {m.shape}")
        mats.append(m)
    for name, v in (("eta02", eta02), ("eta_lambda", eta_lambda), ("tau", tau)):
        _check_leading(name, v, lead)
    return a, b, mats[0], mats[1]


def _check_leading(name: str, v, lead: tuple) -> None:
    """Refuse ``v``, naming it, unless it is a scalar or broadcasts over the leading axes ``lead``."""
    try:
        fits = np.ndim(v) == 0 or np.broadcast_shapes(np.shape(v), lead) == lead
    except ValueError:
        fits = False
    if not fits:
        raise ValueError(f"{name} of shape {np.shape(v)} does not broadcast over the leading axes {lead}")


def batch_split_rhs(alphas, betas, eta02, eta_lambda, tau) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand sides (f02, lambda_f) of the split equations for stacked data.

    ``alphas``/``betas`` have shape ``(..., n)``; ``eta02``, ``eta_lambda``
    and ``tau`` are scalars or broadcast over the leading axes.
    """
    a, b = _spinor_rows(alphas, betas)
    eye = identity_matrix(a.shape[-1])
    f02 = 0.25 * brace(batch_outer(b, a), tau) + np.asarray(eta02, dtype=complex)[..., None, None] * eye
    lam = (
        brace(batch_outer(b, b) - batch_outer(a, a), tau) / 8.0
        + (1j * np.asarray(eta_lambda, dtype=complex))[..., None, None] * eye
    )
    return f02, lam


def split_equation_rhs(field: PointwiseField) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand sides (f02, lambda_f) that solve the split equations exactly."""
    return batch_split_rhs(field.alpha, field.beta, field.eta02, field.eta_lambda, field.tau)


def batch_split_residuals(alphas, betas, f02, lambda_f, eta02, eta_lambda, tau):
    """Residuals ``(matrix, f02, lambda_f)`` of the curvature equation, stacked.

    The matrix residual is the Frobenius norm of ``gamma(F^+) - mu(tau, Psi)
    - gamma(eta) id``; the other two are those of the split equations (see
    :class:`CurvatureSplitVerdict`).  Shapes: ``alphas``/``betas``
    ``(..., n)``, ``f02``/``lambda_f`` ``(..., n, n)``; ``eta02``,
    ``eta_lambda`` and ``tau`` scalars or broadcasting over the leading
    axes.  Each residual array has the leading shape.
    """
    a, b, f02, lf = _field_stack(alphas, betas, f02, lambda_f, eta02, eta_lambda, tau)
    lhs = _gamma_fplus(f02, lf) - batch_mu_kaehler(a, b, tau)
    rhs = _gamma_eta_id(eta02, eta_lambda, a.shape[-1])
    f02_target, lam_target = batch_split_rhs(a, b, eta02, eta_lambda, tau)
    return _frobenius(lhs - rhs), _frobenius(f02 - f02_target), _frobenius(lf - lam_target)


def verify_curvature_split(field: PointwiseField, tol: float = 1e-9) -> CurvatureSplitVerdict:
    """Check the matrix curvature equation against its split component form.

    Evaluates both sides of ``gamma(F^+) - mu(tau, Psi) = gamma(eta) id``
    blockwise and both computable split equations through
    :func:`batch_split_residuals`, reports every residual, and declares the
    two formulations equivalent when they agree on whether the field is a
    solution at tolerance ``tol``.
    """
    residual_matrix, residual_f02, residual_lambda = (
        float(r)
        for r in batch_split_residuals(
            field.alpha, field.beta, field.f02, field.lambda_f,
            field.eta02, field.eta_lambda, field.tau,
        )
    )
    matrix_ok = residual_matrix < tol
    split_ok = residual_f02 < tol and residual_lambda < tol
    return CurvatureSplitVerdict(
        residual_matrix=residual_matrix,
        residual_f02=residual_f02,
        residual_lambda=residual_lambda,
        residual_dirac=None,
        tol=tol,
        matrix_satisfied=matrix_ok,
        split_satisfied=split_ok,
        equivalent=matrix_ok == split_ok,
    )


def decoupling_bound(alpha, beta, tau):
    """The pointwise inequality driving the vortex decoupling argument.

    Returns ``(lhs, rhs)`` with

        lhs = Re <beta, brace(beta alpha^*, tau) alpha>
        rhs = (1 - (1-tau)/n) |alpha|^2 |beta|^2

    and contract ``lhs >= rhs >= 0`` for ``tau`` in [0, 1] (Cauchy-Schwarz
    on the trace term).  ``alpha``/``beta`` have shape ``(..., n)``;
    ``tau`` is a scalar or broadcasts over the leading axes, and every value
    lies in [0, 1].  A single pair gives floats.
    """
    a, b = _spinor_rows(alpha, beta)
    _check_leading("tau", tau, a.shape[:-1])
    t = np.asarray(tau, dtype=float)
    if not np.all((0.0 <= t) & (t <= 1.0)):
        raise ValueError("decoupling bound requires tau in [0, 1]")
    n = a.shape[-1]
    outers = batch_outer(b, a)
    braced = outers - (((1.0 - t) / n) * np.einsum("...ii->...", outers))[..., None, None] * np.eye(n)
    lhs = np.einsum("...i,...i->...", b.conj(), np.einsum("...ij,...j->...i", braced, a)).real
    na2 = np.einsum("...i,...i->...", a.conj(), a).real
    nb2 = np.einsum("...i,...i->...", b.conj(), b).real
    rhs = (1.0 - (1.0 - t) / n) * na2 * nb2
    return (float(lhs), float(rhs)) if a.ndim == 1 else (lhs, rhs)


def holomorphic_pairing_term(eta20_class, bundle, manifold) -> complex:
    """The topological pairing ``2 pi i <[eta^{2,0}] . c1(E), [X]>``.

    ``eta20_class`` is a degree-2 integral class the caller declares to be
    the (2,0) part of the perturbation (no Hodge decomposition is computed
    here).  When the bundle's real first Chern class is of type (1,1) this
    pairing vanishes, which is what makes the perturbed vortex bookkeeping
    close up.
    """
    from math import pi

    from .cohomology import cup

    return 2j * pi * cup(eta20_class, bundle.c1, manifold)


def impossibility_margin_closed_form(n: int, tau: float, lam: complex) -> float:
    """Distance from ``lam * id`` to the brace image of rank-<=1 matrices.

    Derivation: a rank-<=1 endomorphism ``A = beta alpha^*`` with trace
    ``t`` has eigenvalues ``(t, 0, ..., 0)`` and Frobenius norm >= |t|, with
    equality exactly for the normal ones (``beta`` parallel ``alpha``), so

        min ||brace(A, tau) - lam id||^2
            = min_t |a t - lam|^2 + (n-1) |b t + lam|^2,
              a = (n-1+tau)/n,  b = (1-tau)/n,

    a quadratic in t whose minimum over C is ``n (n-1) |lam|^2 /
    (n - 1 + tau^2)``.  Positive for ``lam != 0`` once ``n >= 2``: the brace
    of a rank-one matrix can never be a nonzero multiple of the identity.
    """
    if n < 2:
        raise ValueError("margin is defined for n >= 2")
    return abs(lam) * sqrt(n * (n - 1) / (n - 1 + tau * tau))


def _impossibility_value_grad(n: int, tau: float, lam: complex):
    """||brace(beta alpha^*, tau) - lam id||^2 over unconstrained (alpha, beta).

    The brace map is self-adjoint for the Frobenius pairing, so with
    G = brace(beta alpha^*, tau) - lam id the gradients are
    2 brace(G, tau) alpha in beta and 2 brace(G, tau)^H beta in alpha.
    Points are ``[Re v, Im v]`` with ``v = (alpha, beta)``, the layout of
    :func:`monopoles.mu_kernel._unpack`, and may carry leading batch axes,
    ``(..., 4n)``; each slice of a stack is computed bit for bit as the
    slice alone would be.
    """
    lam_id = lam * np.eye(n)

    def value_and_grad(x: np.ndarray):
        v = _unpack(x)
        a, b = v[..., :n], v[..., n:]
        g = brace(batch_outer(b, a), tau) - lam_id
        tg = brace(g, tau)
        grad_v = 2.0 * np.concatenate(
            [batch_matvec(np.swapaxes(tg.conj(), -1, -2), b), batch_matvec(tg, a)], axis=-1
        )
        return real_pairing(g, g), np.concatenate([grad_v.real, grad_v.imag], axis=-1)

    return value_and_grad


def _rebalance(x: np.ndarray) -> np.ndarray:
    """Gauge-fix the scale split between alpha and beta.

    ``(alpha, beta) -> (s alpha, beta / s)`` with real ``s`` leaves
    ``beta alpha^*`` unchanged; balancing the two norms picks one witness on
    this flat direction, which the descent itself leaves unfixed.
    """
    v = _unpack(x)
    a, b = np.split(v, 2)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na < 1e-150 or nb < 1e-150:
        return x
    s = sqrt(nb / na)
    v = np.concatenate([a * s, b / s])
    return np.concatenate([v.real, v.imag])


_MARGIN_MAX_ITER = 4000
_MARGIN_GRADIENT_TOL = 1e-10


def impossibility_margin(
    n: int,
    tau: float,
    lam: complex,
    starts: int = 64,
    seed: int = 0,
) -> OptimizationReport:
    """Measure min over all (alpha, beta) of ||brace(beta alpha^*, tau) - lam id||.

    Requires ``n >= 2`` and ``tau`` in (0, 1].  Multistart gradient descent
    over unconstrained pairs, at most 4000 steps per start with gradient
    tolerance 1e-10; the origin is pinned as an extra start so the
    margin for ``lam = 0`` is exactly zero.  The descent leaves the scale
    split between alpha and beta free; only the reported ``argmin`` is
    rebalanced to equal norms, which leaves its value unchanged.  The
    report's estimate should
    match :func:`impossibility_margin_closed_form`; the closed form is a
    derivation, the measurement is an optimization, and their agreement is
    part of the test suite.
    """
    if n < 2:
        raise ValueError("impossibility margin needs n >= 2")
    if not 0.0 < tau <= 1.0:
        raise ValueError("impossibility margin needs tau in (0, 1]")
    lam = complex(lam)
    scale = 1.0 + abs(lam)

    def sample(rng: np.random.Generator) -> np.ndarray:
        return scale * rng.standard_normal(4 * n)

    x_best, values_sq, flags = multistart_minimize(
        _impossibility_value_grad(n, tau, lam),
        sample,
        starts=starts,
        seed=seed,
        gradient_tolerance=_MARGIN_GRADIENT_TOL,
        max_iter=_MARGIN_MAX_ITER,
        fixed_starts=[np.zeros(4 * n)],
    )
    return OptimizationReport.from_squares(
        values_sq, flags, SpinorPair.from_vector(_unpack(_rebalance(x_best))), seed=seed,
        max_iter=_MARGIN_MAX_ITER, tol=_MARGIN_GRADIENT_TOL,
    )
