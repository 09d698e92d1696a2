"""The quadratic spinor map on C^2 (x) C^n and its numerical certificates.

A spinor pair ``Psi = (alpha, beta)`` lives in C^n (+) C^n ~ C^2 (x) C^n.
For endomorphisms of that space, written as 2x2 blocks of n x n matrices,
two orthogonal projections are available: onto ``sl(2) (x) sl(n)`` (remove
the C^2 trace, then every block's C^n trace) and onto ``sl(2) (x) C id``
(remove the C^2 trace, then replace every block by its normalized trace
times the identity).  The interpolating quadratic map is

    mu(tau, Psi, Phi) = P(Psi Phi^*) + tau * Q(Psi Phi^*),   tau in [0, 1].

Conventions, fixed package-wide:

* Hermitian inner products are conjugate-linear in the first slot,
  ``<v, w> = sum conj(v_i) w_i`` (``numpy.vdot``).
* ``(v w^*) xi = v <w, xi>``, i.e. the matrix ``np.outer(v, w.conj())``.
* Norms of block endomorphisms are Frobenius norms.

For ``n > 1`` the quadratic map is uniformly proper: ``|mu(tau, Psi, Psi)|
>= c |Psi|^2`` with a positive constant, estimated here by seeded multistart
projected gradient descent over the unit sphere.  The bilinear map has no
zero divisors once ``n >= 2`` or ``tau != 0``; the corresponding margin over
pairs of unit spinors is estimated the same way.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .optim import OptimizationReport, multistart_minimize, row_dots, sphere_blocks_projector

__all__ = [
    "SpinorPair",
    "BlockEndo",
    "outer",
    "batch_outer",
    "batch_matvec",
    "identity_matrix",
    "real_pairing",
    "project_P",
    "project_Q",
    "batch_project_P",
    "batch_project_Q",
    "mu",
    "quartic_form",
    "mu_norm_batch",
    "random_sphere_search",
    "properness_value_grad",
    "properness_constant_closed_form",
    "properness_constant_estimate",
    "zero_divisor_margin",
    "DEFAULT_POSITIVITY_FLOOR",
]

DEFAULT_POSITIVITY_FLOOR = 1e-3


def _as_complex_vector(v, what: str) -> np.ndarray:
    arr = np.asarray(v, dtype=complex)
    if arr.ndim != 1:
        raise ValueError(f"{what} must be a 1-d complex vector")
    return arr


@dataclass(frozen=True)
class SpinorPair:
    """An element Psi = (alpha, beta) of C^n (+) C^n."""

    alpha: np.ndarray
    beta: np.ndarray

    def __init__(self, alpha, beta):
        a = _as_complex_vector(alpha, "alpha")
        b = _as_complex_vector(beta, "beta")
        if a.shape != b.shape:
            raise ValueError("alpha and beta must have equal length")
        if a.size < 1:
            raise ValueError("spinor components must have length n >= 1")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)

    @property
    def n(self) -> int:
        return self.alpha.size

    @property
    def vector(self) -> np.ndarray:
        """The stacked vector (alpha, beta) in C^{2n}."""
        return np.concatenate([self.alpha, self.beta])

    @staticmethod
    def from_vector(v) -> "SpinorPair":
        v = _as_complex_vector(v, "spinor vector")
        if v.size % 2 != 0:
            raise ValueError("spinor vector length must be even")
        n = v.size // 2
        return SpinorPair(v[:n], v[n:])

    def norm(self) -> float:
        return float(np.linalg.norm(self.vector))


@dataclass(frozen=True)
class BlockEndo:
    """An endomorphism of C^2 (x) C^n stored as its full 2n x 2n matrix."""

    mat: np.ndarray
    n: int

    def __init__(self, mat):
        m = np.asarray(mat, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2 != 0:
            raise ValueError("block endomorphism must be a square 2n x 2n matrix")
        object.__setattr__(self, "mat", m)
        object.__setattr__(self, "n", m.shape[0] // 2)

    def block(self, i: int, j: int) -> np.ndarray:
        n = self.n
        return self.mat[i * n : (i + 1) * n, j * n : (j + 1) * n]

    def norm(self) -> float:
        return float(np.linalg.norm(self.mat))


def outer(psi: SpinorPair, phi: SpinorPair) -> BlockEndo:
    """The rank-<=1 endomorphism Xi -> Psi <Phi, Xi> of C^2 (x) C^n."""
    if psi.n != phi.n:
        raise ValueError("spinor pairs must share the same n")
    return BlockEndo(np.outer(psi.vector, phi.vector.conj()))


def batch_outer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Stacked outer products ``u v^*``: (..., n) x (..., n) -> (..., n, n).

    Each slice is ``np.outer(u_row, v_row.conj())`` bit for bit.
    """
    return u[..., :, None] * v.conj()[..., None, :]


@lru_cache(maxsize=64)
def identity_matrix(n: int) -> np.ndarray:
    """The read-only n x n identity, built once per n (the projections run in descent loops)."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def batch_matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Stacked ``m @ v``: (..., p, n) x (..., n) -> (..., p).

    Each slice is the 2-d ``m_slice @ v_row``, the same BLAS gemv, bit for bit.
    """
    return (m @ v[..., None])[..., 0]


def real_pairing(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``Re <a, b>`` of stacked matrices over the trailing two axes.

    Each slice is ``np.real(np.vdot(a_slice, b_slice))`` bit for bit (see
    :func:`monopoles.optim.row_dots`).
    """
    lead = a.shape[:-2]
    return row_dots(a.conj().reshape(lead + (-1,)), b.reshape(lead + (-1,))).real


def _block_traces(v: np.ndarray) -> np.ndarray:
    """The four block traces ``(..., 2, 2)`` of a ``(..., 2, n, 2, n)`` block view.

    Each is the sum of a contiguous copy of the block's diagonal, which is
    the per-block ``ndarray.trace`` bit for bit; ``v.trace(axis1=-3,
    axis2=-1)`` adds in another order for n >= 4.
    """
    return np.ascontiguousarray(v.diagonal(axis1=-3, axis2=-1)).sum(-1)


def batch_project_P(mats: np.ndarray, n: int) -> np.ndarray:
    """Batched projection onto sl(2) (x) sl(n); mats has shape (..., 2n, 2n)."""
    out = mats.copy()
    v = out.reshape(out.shape[:-2] + (2, n, 2, n))  # v[..., i, :, j, :] is block (i, j)
    half = 0.5 * (v[..., 0, :, 0, :] + v[..., 1, :, 1, :])
    v[..., 0, :, 0, :] -= half
    v[..., 1, :, 1, :] -= half
    v -= (_block_traces(v) / n)[..., :, None, :, None] * identity_matrix(n)[:, None, :]
    return out


def batch_project_Q(mats: np.ndarray, n: int) -> np.ndarray:
    """Batched projection onto sl(2) (x) C id."""
    tr = _block_traces(mats.reshape(mats.shape[:-2] + (2, n, 2, n)))
    half_tr = 0.5 * (tr[..., 0, 0] + tr[..., 1, 1])
    tr[..., 0, 0] -= half_tr
    tr[..., 1, 1] -= half_tr
    blocks = (tr / n)[..., :, None, :, None] * identity_matrix(n)[:, None, :]
    return blocks.reshape(mats.shape)


def project_P(m: BlockEndo) -> BlockEndo:
    """Orthogonal projection onto sl(2) (x) sl(n).

    First the C^2 trace is removed (half the sum of the diagonal blocks is
    subtracted from each diagonal block), then every block is made
    traceless.  The result satisfies ``M11 + M22 = 0`` with all four blocks
    traceless; the map is idempotent and orthogonal for the Frobenius
    pairing.
    """
    return BlockEndo(batch_project_P(m.mat[None, :, :], m.n)[0])


def project_Q(m: BlockEndo) -> BlockEndo:
    """Orthogonal projection onto sl(2) (x) C id.

    Each block of the result is a multiple of the identity, the diagonal
    blocks opposite; composing with :func:`project_P` in either order gives
    zero.
    """
    return BlockEndo(batch_project_Q(m.mat[None, :, :], m.n)[0])


def mu(tau: float, psi: SpinorPair, phi: SpinorPair | None = None) -> BlockEndo:
    """The interpolated quadratic map P(Psi Phi^*) + tau Q(Psi Phi^*).

    ``tau`` outside [0, 1] is accepted with a warning; the interpolation is
    only meaningful on that interval.
    """
    if not 0.0 <= tau <= 1.0:
        warnings.warn(f"tau={tau} lies outside [0, 1]", stacklevel=2)
    if phi is None:
        phi = psi
    m = outer(psi, phi)
    p = batch_project_P(m.mat[None, :, :], m.n)[0]
    q = batch_project_Q(m.mat[None, :, :], m.n)[0]
    return BlockEndo(p + tau * q)


def quartic_form(tau: float, psi: SpinorPair) -> float:
    """Re <mu(tau, Psi, Psi) Psi, Psi>.

    Because P and Q are orthogonal projections this equals
    ``||P(Psi Psi^*)||^2 + tau ||Q(Psi Psi^*)||^2``; the identity is
    property-tested rather than assumed here.
    """
    v = psi.vector
    return float(np.real(np.vdot(v, mu(tau, psi).mat @ v)))


def _mu_norm(tau: float, n: int, na2, nb2, ab2) -> np.ndarray:
    """|mu(tau, Psi, Psi)| from the invariants |a|^2, |b|^2, |<a,b>|^2."""
    if n == 1:
        # the sl(1) factor is zero, so only the trace part survives; the
        # general expression would compute the same 0 with cancellation noise
        p_sq = np.zeros_like(na2)
    else:
        p_sq = 0.5 * (na2**2 + nb2**2 - 2 * ab2 - (na2 - nb2) ** 2 / n) + 2 * (
            na2 * nb2 - ab2 / n
        )
    q_sq = (na2 - nb2) ** 2 / (2 * n) + 2 * ab2 / n
    total = p_sq + tau * tau * q_sq
    return np.sqrt(np.maximum(total, 0.0))


def mu_norm_batch(tau: float, alphas, betas) -> np.ndarray:
    """Frobenius norms |mu(tau, Psi, Psi)| for rows of spinor components.

    Evaluates through closed-form scalar invariants instead of building
    matrices, so a million samples are cheap:

        ||P||^2 = (|a|^4 + |b|^4 - 2|<a,b>|^2 - (|a|^2-|b|^2)^2/n)/2
                  + 2(|a|^2 |b|^2 - |<a,b>|^2 / n)
        ||Q||^2 = (|a|^2 - |b|^2)^2/(2n) + 2|<a,b>|^2/n
        |mu|^2  = ||P||^2 + tau^2 ||Q||^2

    The agreement of this fast path with the matrix route is part of the
    property suite, which keeps the two evaluation routes independent.
    """
    alphas = np.asarray(alphas, dtype=complex)
    betas = np.asarray(betas, dtype=complex)
    if alphas.shape != betas.shape or alphas.ndim != 2:
        raise ValueError("alphas and betas must be matching (m, n) arrays")
    if alphas.shape[1] < 1:
        raise ValueError("n must be >= 1")
    na2 = np.einsum("ij,ij->i", alphas.conj(), alphas).real
    nb2 = np.einsum("ij,ij->i", betas.conj(), betas).real
    ab2 = np.abs(np.einsum("ij,ij->i", alphas.conj(), betas)) ** 2
    return _mu_norm(tau, alphas.shape[1], na2, nb2, ab2)


_SPHERE_CHUNK = 4_096  # buffers and temporaries of 32-64 KiB stay below malloc's 128 KiB mmap threshold


def _integer(value, what: str) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{what} must be an integer, got {value!r}") from None


def _sphere_norms(tau: float, n: int, pairs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """|mu(tau, Psi, Psi)| at the unit spinors that sampled invariants describe.

    Row ``i`` of ``pairs`` holds ``(Ga, Gb)``, two Gamma(n) draws, and
    ``uniforms[i]`` one uniform draw on [0, 1); see
    :func:`random_sphere_search` for the law they encode.
    """
    ga, gb = pairs.T
    s = ga + gb
    if not s.all():
        # Only Gamma(1) draws (n = 1) can be 0, each with probability ~2^-53.
        # A pair of zeros is a Gaussian point with no direction: read it as x = y.
        ga, gb = np.where(s == 0, 1.0, pairs.T)
        s = ga + gb
    x, y = ga / s, gb / s
    c = -np.expm1(np.log1p(-uniforms) / (n - 1)) if n > 1 else 1.0
    return _mu_norm(tau, n, x, y, x * y * c)


def random_sphere_search(n: int, tau: float, samples: int, seed: int = 0) -> float:
    """Minimum of |mu(tau, Psi, Psi)| over seeded uniform unit spinors.

    A cross-check companion to the gradient-descent estimate; it evaluates
    the closed form of :func:`mu_norm_batch` (the scalar route) rather than
    the matrix projections the optimizer uses.  That closed form reads a
    unit spinor only through ``x = |alpha|^2``, ``y = |beta|^2`` and
    ``|<alpha, beta>|^2``, so the search draws those three invariants from
    their exact joint law instead of drawing the spinor:

    * A uniform point of S^{4n-1} in C^{2n} is ``Psi/|Psi|`` for a standard
      complex Gaussian ``Psi = (alpha, beta)``.  Then ``|alpha|^2/2`` and
      ``|beta|^2/2`` are independent Gamma(n) variables ``Ga``, ``Gb``
      (halved chi-squares with 2n degrees of freedom), independent of the
      directions of ``alpha`` and ``beta``, which are uniform on S^{2n-1}.
    * Hence ``x = Ga/(Ga+Gb)`` and ``y = Gb/(Ga+Gb)``.
    * ``c = |<alpha/|alpha|, beta/|beta|>|^2`` is the squared modulus of one
      coordinate of a uniform unit vector of C^n, i.e. Beta(1, n-1), with
      ``P(c > t) = (1-t)^(n-1)``, independent of ``x``; inverting that tail
      at a uniform ``U`` gives ``c = -expm1(log1p(-U)/(n-1))``.  For
      ``n = 1`` both directions are phases and ``c = 1``.
    * The invariants of ``Psi/|Psi|`` are then ``(x, y, x*y*c)``.

    Each sample costs three variates whatever ``n`` is.  The Gamma pairs
    come from ``Philox(SeedSequence(seed))`` and the uniforms from the same
    Philox jumped ahead by 2^128 draws, so the two streams never overlap.
    Both are drawn into reused buffers 4 096 samples at a time, which
    draws the same streams as one call for all samples and keeps the
    working set in cache: the Gamma pairs take 64 KiB and the uniforms and
    each temporary of the closed form 32 KiB, below malloc's mmap
    threshold.  ``samples <= 0`` returns ``inf``.
    """
    n, samples = _integer(n, "n"), _integer(samples, "samples")
    if n < 1:
        raise ValueError("n must be >= 1")
    if not math.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau!r}")
    bits = np.random.Philox(np.random.SeedSequence(entropy=seed))
    pair_rng, uniform_rng = np.random.Generator(bits), np.random.Generator(bits.jumped())
    size = min(_SPHERE_CHUNK, max(samples, 0))
    pairs, uniforms = np.empty((size, 2)), np.empty(size)
    best = np.inf
    for start in range(0, samples, _SPHERE_CHUNK):
        m = min(_SPHERE_CHUNK, samples - start)
        draws = pair_rng.standard_gamma(n, out=pairs[:m]), uniform_rng.random(out=uniforms[:m])
        vals = _sphere_norms(tau, n, *draws)
        best = np.minimum(best, vals.min())  # propagates a nan, where min() could drop it
    return float(best)


def _unpack(x: np.ndarray) -> np.ndarray:
    half = x.shape[-1] // 2
    return x[..., :half] + 1j * x[..., half:]


def _projected(k: np.ndarray, n: int, tau: float):
    """R = P(K) + tau^2 Q(K) and the value <R, K> for stacked K."""
    r = batch_project_P(k, n) + tau * tau * batch_project_Q(k, n)
    return r, real_pairing(r, k)


def properness_value_grad(n: int, tau: float):
    """Objective ||mu(tau, psi, psi)||^2 on R^{4n} with its exact gradient.

    With M = psi psi^* and R = P(M) + tau^2 Q(M), the value is <R, M> and
    the Euclidean gradient is 4 R psi (R is Hermitian).  Points may carry
    leading batch axes, ``(..., 4n)``; each slice of a stack is computed bit
    for bit as the slice alone would be.
    """

    def value_and_grad(x: np.ndarray):
        v = _unpack(x)
        r, value = _projected(batch_outer(v, v), n, tau)
        grad_c = 4.0 * batch_matvec(r, v)
        return value, np.concatenate([grad_c.real, grad_c.imag], axis=-1)

    return value_and_grad


# The descent budget shared by both spinor-map certificates.
_MAX_ITER = 2000
_GRADIENT_TOL = 1e-8


def _sphere_descent(value_and_grad, blocks, starts, seed, tol, argmin, judge=True):
    """Seeded multistart descent of a squared norm on a product of unit spheres.

    ``blocks`` are the real dimensions of the spheres.  Each of the
    ``starts`` standard normal points takes at most ``_MAX_ITER`` (2000)
    steps and stops once its tangent gradient is below ``tol``, or at its
    last point once no strict decrease is representable at machine
    precision (the floor rule of :func:`monopoles.optim._descend`); only a
    start that ran out of steps reads ``False`` in ``converged_per_start``.
    The report holds square roots, the minimizer ``argmin(best point)`` and,
    where ``judge`` holds, whether the estimate clears the positivity floor
    :data:`DEFAULT_POSITIVITY_FLOOR` (1e-3).
    """
    project, tangent = sphere_blocks_projector(blocks)
    x_best, values_sq, flags = multistart_minimize(
        value_and_grad, lambda rng: rng.standard_normal(sum(blocks)), starts=starts, seed=seed,
        gradient_tolerance=tol, max_iter=_MAX_ITER, project=project, tangent=tangent,
    )
    return OptimizationReport.from_squares(
        values_sq, flags, argmin(x_best), seed=seed, max_iter=_MAX_ITER, tol=tol,
        positivity_floor=DEFAULT_POSITIVITY_FLOOR, judge=judge,
    )


def properness_constant_closed_form(n: int, tau: float) -> float:
    """The properness constant min_{|Psi|=1} |mu(tau, Psi, Psi)|, exactly.

    Derivation: with ``x = |alpha|^2``, ``y = |beta|^2`` and ``c = |<alpha,
    beta>|^2``, the closed form of :func:`mu_norm_batch` regroups as

        |mu(tau, Psi, Psi)|^2 = (n-1+tau^2)/(2n) |Psi|^4
                                + (1 + 2(1-tau^2)/n) (x y - c),

    since ``|Psi|^4 = (x + y)^2``.  For ``tau`` in [0, 1] the second
    coefficient is positive, and ``x y - c >= 0`` by Cauchy-Schwarz, with
    equality exactly when ``alpha`` and ``beta`` are parallel.  So the
    minimum over the unit sphere is ``sqrt((n-1+tau^2)/(2n))``, attained at
    ``alpha || beta``; for ``n = 1`` every pair is parallel and it is
    ``tau / sqrt(2)``.  :func:`properness_constant_estimate` stays as the
    independent optimizer cross-check.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"the closed form holds for tau in [0, 1], got {tau!r}")
    return math.sqrt((n - 1 + tau * tau) / (2 * n))


def properness_constant_estimate(
    n: int,
    tau: float,
    starts: int = 64,
    seed: int = 0,
    tol: float = _GRADIENT_TOL,
) -> OptimizationReport:
    """Estimate the properness constant min_{|Psi|=1} |mu(tau, Psi, Psi)|.

    :func:`_sphere_descent` on the unit sphere of C^{2n} at gradient
    tolerance ``tol``, so the estimate is an upper bound for the true
    constant; ``success`` judges it against the floor only for ``n > 1``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= tau <= 1.0:
        warnings.warn(f"tau={tau} lies outside [0, 1]", stacklevel=2)
    return _sphere_descent(
        properness_value_grad(n, tau), [4 * n], starts, seed, tol,
        lambda x: SpinorPair.from_vector(_unpack(x)), judge=n > 1,
    )


def _zero_divisor_value_grad(n: int, tau: float):
    """Objective ||mu(tau, psi, phi)||^2 over pairs, with exact gradient.

    With K = psi phi^* and R = P(K) + tau^2 Q(K): value <R, K>, gradients
    2 R phi in psi and 2 R^H psi in phi.  Points may carry leading batch
    axes, ``(..., 8n)``, each slice computed bit for bit as alone.
    """

    def value_and_grad(x: np.ndarray):
        half = x.shape[-1] // 2
        v = _unpack(x[..., :half])
        w = _unpack(x[..., half:])
        r, value = _projected(batch_outer(v, w), n, tau)
        grad_v = 2.0 * batch_matvec(r, w)
        grad_w = 2.0 * batch_matvec(np.swapaxes(r.conj(), -1, -2), v)
        return value, np.concatenate(
            [grad_v.real, grad_v.imag, grad_w.real, grad_w.imag], axis=-1
        )

    return value_and_grad


def zero_divisor_margin(
    n: int,
    tau: float,
    starts: int = 64,
    seed: int = 0,
) -> OptimizationReport:
    """Estimate min |mu(tau, Psi, Phi)| over pairs of unit spinors.

    Requires ``n >= 2 or tau != 0``: in the excluded case ``n = 1, tau = 0``
    the map is identically zero and the zero-divisor property fails, so the
    input is rejected by name.  A margin above the positivity floor
    :data:`DEFAULT_POSITIVITY_FLOOR` certifies (numerically) that the
    bilinear map has no zero divisors; :func:`_sphere_descent` finds it.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n < 2 and tau == 0:
        raise ValueError(
            "zero-divisor margin needs n >= 2 or tau != 0; "
            "for n = 1, tau = 0 the map is identically zero"
        )
    if not 0.0 <= tau <= 1.0:
        warnings.warn(f"tau={tau} lies outside [0, 1]", stacklevel=2)
    return _sphere_descent(
        _zero_divisor_value_grad(n, tau), [4 * n, 4 * n], starts, seed, _GRADIENT_TOL,
        lambda x: tuple(SpinorPair.from_vector(_unpack(h)) for h in np.split(x, 2)),
    )
