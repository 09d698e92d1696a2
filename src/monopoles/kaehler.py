"""Single-fiber algebra of the unitary monopole equations on a Kahler surface.

On a Kahler surface the positive spinor bundle splits as
``(0,0)-forms (+) (0,2)-forms``, so a spinor is a pair ``(alpha, beta)`` of
``E``-valued coefficients, and the curvature equation becomes matrix algebra
in a fixed fiber.  Everything in this module is pointwise linear algebra:
no differential operator is discretized.

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

from .mu_kernel import BlockEndo, SpinorPair
from .optim import OptimizationReport, multistart_minimize

__all__ = [
    "brace",
    "mu_kaehler",
    "clifford_sd",
    "PointwiseField",
    "CurvatureSplitVerdict",
    "verify_curvature_split",
    "decoupling_bound",
    "holomorphic_pairing_term",
    "impossibility_margin",
    "impossibility_margin_closed_form",
]


def _square_matrix(f, what: str) -> np.ndarray:
    m = np.asarray(f, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be a square matrix")
    return m


def brace(f, tau: float) -> np.ndarray:
    """Trace interpolation (f)_0 + (tau/n) tr(f) id of a square matrix.

    At ``tau = 1`` this is the identity map; at ``tau = 0`` the traceless
    part.  The trace scales linearly: ``tr brace(f, tau) = tau tr(f)``.
    """
    m = _square_matrix(f, "brace input")
    n = m.shape[0]
    tr = np.trace(m)
    return m - ((1.0 - tau) / n) * tr * np.eye(n)


def _vec(v, what: str) -> np.ndarray:
    arr = np.asarray(v, dtype=complex)
    if arr.ndim != 1:
        raise ValueError(f"{what} must be a 1-d complex vector")
    return arr


def mu_kaehler(alpha, beta, tau: float) -> BlockEndo:
    """The quadratic spinor map assembled from brace blocks.

    Blocks ``[[(brace(aa*) - brace(bb*))/2, brace(ab*)],
              [brace(ba*), (brace(bb*) - brace(aa*))/2]]`` with all braces at
    the same ``tau``.  Built independently of the projection route in
    :func:`monopoles.mu_kernel.mu`; their agreement on the diagonal is a
    tested identity, not an implementation shortcut.
    """
    a = _vec(alpha, "alpha")
    b = _vec(beta, "beta")
    if a.shape != b.shape:
        raise ValueError("alpha and beta must have equal length")
    aa = brace(np.outer(a, a.conj()), tau)
    bb = brace(np.outer(b, b.conj()), tau)
    ab = brace(np.outer(a, b.conj()), tau)
    ba = brace(np.outer(b, a.conj()), tau)
    top = np.hstack([0.5 * (aa - bb), ab])
    bot = np.hstack([ba, 0.5 * (bb - aa)])
    return BlockEndo(np.vstack([top, bot]))


def clifford_sd(eta_lambda: complex, eta20: complex, eta02: complex) -> np.ndarray:
    """Clifford action of a self-dual 2-form on the split spinor fiber.

    Inputs are the metric contraction of the (1,1) part and the two
    coefficients against the fixed form-line generators.  The output is the
    traceless 2x2 matrix ``4 [[-i*eta_lambda, -eta20], [eta02,
    i*eta_lambda]]``; for a real-valued form (``eta_lambda`` real and
    ``eta02 = conj(eta20)``) it lands in su(2).
    """
    return 4.0 * np.array(
        [[-1j * eta_lambda, -eta20], [eta02, 1j * eta_lambda]], dtype=complex
    )


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
        a = _vec(alpha, "alpha")
        b = _vec(beta, "beta")
        if a.shape != b.shape:
            raise ValueError("alpha and beta must have equal length")
        n = a.size
        f02m = _square_matrix(f02, "f02")
        lf = _square_matrix(lambda_f, "lambda_f")
        if f02m.shape[0] != n or lf.shape[0] != n:
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


def _gamma_fplus(field: PointwiseField) -> np.ndarray:
    """Clifford action of the self-dual curvature, blockwise on C^2 (x) C^n.

    The scalar formula of :func:`clifford_sd` extends to matrix
    coefficients; with ``lambda_f = i L(F)`` the diagonal blocks become
    ``-+ lambda_f`` and the (2,0) coefficient is ``-f02^H`` (conjugation on
    forms, adjoint on endomorphisms).
    """
    lf = field.lambda_f
    f02 = field.f02
    top = np.hstack([-lf, f02.conj().T])
    bot = np.hstack([f02, lf])
    return 4.0 * np.vstack([top, bot])


def _gamma_eta_id(field: PointwiseField) -> np.ndarray:
    """gamma(eta) tensored with the identity of the fiber of E."""
    n = field.n
    gamma = clifford_sd(field.eta_lambda, -np.conj(field.eta02), field.eta02)
    return np.kron(gamma, np.eye(n))


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


def split_equation_rhs(field: PointwiseField) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand sides (f02, lambda_f) that solve the split equations exactly."""
    n = field.n
    a, b, tau = field.alpha, field.beta, field.tau
    f02 = 0.25 * brace(np.outer(b, a.conj()), tau) + field.eta02 * np.eye(n)
    lam = (
        brace(np.outer(b, b.conj()) - np.outer(a, a.conj()), tau) / 8.0
        + 1j * field.eta_lambda * np.eye(n)
    )
    return f02, lam


def verify_curvature_split(field: PointwiseField, tol: float = 1e-9) -> CurvatureSplitVerdict:
    """Check the matrix curvature equation against its split component form.

    Evaluates both sides of ``gamma(F^+) - mu(tau, Psi) = gamma(eta) id``
    blockwise and both computable split equations, reports every residual,
    and declares the two formulations equivalent when they agree on whether
    the field is a solution at tolerance ``tol``.
    """
    lhs = _gamma_fplus(field) - mu_kaehler(field.alpha, field.beta, field.tau).mat
    rhs = _gamma_eta_id(field)
    residual_matrix = float(np.linalg.norm(lhs - rhs))
    f02_target, lam_target = split_equation_rhs(field)
    residual_f02 = float(np.linalg.norm(field.f02 - f02_target))
    residual_lambda = float(np.linalg.norm(field.lambda_f - lam_target))
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


def decoupling_bound(alpha, beta, tau: float, n: int | None = None) -> tuple[float, float]:
    """The pointwise inequality driving the vortex decoupling argument.

    Returns ``(lhs, rhs)`` with

        lhs = Re <beta, brace(beta alpha^*, tau) alpha>
        rhs = (1 - (1-tau)/n) |alpha|^2 |beta|^2

    and contract ``lhs >= rhs >= 0`` for ``tau`` in [0, 1] (Cauchy-Schwarz
    on the trace term).
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError("decoupling bound requires tau in [0, 1]")
    a = _vec(alpha, "alpha")
    b = _vec(beta, "beta")
    if a.shape != b.shape:
        raise ValueError("alpha and beta must have equal length")
    if n is None:
        n = a.size
    elif n != a.size:
        raise ValueError("declared n does not match the vectors")
    lhs = float(np.real(np.vdot(b, brace(np.outer(b, a.conj()), tau) @ a)))
    na2 = float(np.real(np.vdot(a, a)))
    nb2 = float(np.real(np.vdot(b, b)))
    rhs = (1.0 - (1.0 - tau) / n) * na2 * nb2
    return lhs, rhs


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
    """
    eye = np.eye(n)

    def value_and_grad(x: np.ndarray):
        a = x[:n] + 1j * x[2 * n : 3 * n]
        b = x[n : 2 * n] + 1j * x[3 * n :]
        g = brace(np.outer(b, a.conj()), tau) - lam * eye
        value = float(np.real(np.vdot(g, g)))
        tg = brace(g, tau)
        grad_b = 2.0 * (tg @ a)
        grad_a = 2.0 * (tg.conj().T @ b)
        return value, np.concatenate(
            [grad_a.real, grad_b.real, grad_a.imag, grad_b.imag]
        )

    return value_and_grad


def _rebalance(x: np.ndarray) -> np.ndarray:
    """Gauge-fix the scale split between alpha and beta.

    ``(alpha, beta) -> (s alpha, beta / s)`` with real ``s`` leaves
    ``beta alpha^*`` unchanged; balancing the two norms keeps the descent
    well conditioned along this flat direction.
    """
    n = x.size // 4
    a = x[:n] + 1j * x[2 * n : 3 * n]
    b = x[n : 2 * n] + 1j * x[3 * n :]
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na < 1e-150 or nb < 1e-150:
        return x
    s = sqrt(nb / na)
    a = a * s
    b = b / s
    return np.concatenate([a.real, b.real, a.imag, b.imag])


def impossibility_margin(
    n: int,
    tau: float,
    lam: complex,
    starts: int = 64,
    seed: int = 0,
    tol: float = 1e-10,
    max_iter: int = 4000,
) -> OptimizationReport:
    """Measure min over all (alpha, beta) of ||brace(beta alpha^*, tau) - lam id||.

    Requires ``n >= 2`` and ``tau`` in (0, 1].  Multistart gradient descent
    over unconstrained pairs; the origin is pinned as an extra start so the
    margin for ``lam = 0`` is exactly zero.  The report's estimate should
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
        gradient_tolerance=tol,
        max_iter=max_iter,
        gauge=_rebalance,
        fixed_starts=[np.zeros(4 * n)],
    )
    argmin = SpinorPair(
        x_best[:n] + 1j * x_best[2 * n : 3 * n], x_best[n : 2 * n] + 1j * x_best[3 * n :]
    )
    return OptimizationReport.from_squares(
        values_sq, flags, argmin, seed=seed, max_iter=max_iter, tol=tol
    )
