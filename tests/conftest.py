"""Shared generators and independent oracles for the test suite.

Oracles here are deliberately coded from scratch (classical dimension
formulas, brute-force lattice enumeration, grid minimization) so the tests
cross-check the package through routes it does not itself use.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from monopoles import BundleData, CohClass2, FourManifold, SpincStructure


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def k3_like() -> FourManifold:
    """Signature -16, b2+ = 3 diagonal stand-in (only sig/Betti data matter)."""
    q = [[0] * 22 for _ in range(22)]
    for i in range(3):
        q[i][i] = 1
    for i in range(3, 22):
        q[i][i] = -1
    return FourManifold("K3-like", 0, q)


def k3_surface() -> FourManifold:
    """The K3 form -E8 (+) -E8 (+) 3H, written out from the E8 Dynkin diagram."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 7)]
    q = [[0] * 22 for _ in range(22)]
    for off in (0, 8):
        for i in range(8):
            q[off + i][off + i] = -2
        for i, j in edges:
            q[off + i][off + j] = q[off + j][off + i] = 1
    for off in (16, 18, 20):
        q[off][off + 1] = q[off + 1][off] = 1
    return FourManifold("K3", 0, q)


def s4_like() -> FourManifold:
    return FourManifold("S4-like", 0, [])


def hyperbolic() -> FourManifold:
    return FourManifold("S2xS2-like", 0, [[0, 1], [1, 0]])


def random_manifold(rng, b2_max=6, entry=3, b1_max=0) -> FourManifold:
    """Random nondegenerate symmetric integer form of size 1..b2_max."""
    while True:
        m = int(rng.integers(1, b2_max + 1))
        a = rng.integers(-entry, entry + 1, size=(m, m))
        q = (a + a.T).tolist()
        try:
            return FourManifold(
                "random", int(rng.integers(0, b1_max + 1)), q
            )
        except ValueError:
            continue  # degenerate draw; try again


def random_unimodular(rng, m: int, shears: int = 12) -> np.ndarray:
    """Random integer matrix with determinant +-1 (product of elementary ops)."""
    p = np.eye(m, dtype=int)
    for _ in range(shears):
        i, j = rng.integers(0, m, size=2)
        if i != j:
            p[i] += int(rng.integers(-2, 3)) * p[j]
    perm = rng.permutation(m)
    p = p[perm]
    for i in range(m):
        if rng.integers(0, 2):
            p[i] = -p[i]
    return p


def unimodular_manifold(rng, b2_max=6) -> FourManifold:
    """P^T D P congruence of a +-1 diagonal form: unimodular, random-looking."""
    m = int(rng.integers(1, b2_max + 1))
    d = np.diag(rng.choice([-1, 1], size=m))
    p = random_unimodular(rng, m)
    q = (p.T @ d @ p).tolist()
    return FourManifold("unimodular", 0, q)


def characteristic_class(manifold: FourManifold, rng) -> CohClass2:
    """Solve Q w = diag(Q) mod 2 for a characteristic vector (odd det Q)."""
    m = manifold.b2
    if m == 0:
        return CohClass2(())
    a = np.array(manifold.intersection_form, dtype=int) % 2
    b = np.array([manifold.intersection_form[i][i] for i in range(m)], dtype=int) % 2
    aug = np.concatenate([a, b[:, None]], axis=1) % 2
    row = 0
    pivots = []
    for col in range(m):
        piv = next((r for r in range(row, m) if aug[r, col]), None)
        if piv is None:
            continue
        aug[[row, piv]] = aug[[piv, row]]
        for r in range(m):
            if r != row and aug[r, col]:
                aug[r] = (aug[r] + aug[row]) % 2
        pivots.append(col)
        row += 1
    w = np.zeros(m, dtype=int)
    for r, col in enumerate(pivots):
        w[col] = aug[r, m]
    # lift to a representative with entries in {0, 1} plus an even shift
    shift = 2 * rng.integers(-2, 3, size=m)
    return CohClass2((w + shift).tolist())


# --------------------------------------------------------------------------
# independent oracles
# --------------------------------------------------------------------------

def sw_dimension_oracle(manifold: FourManifold, c1s: CohClass2, c1L: CohClass2) -> Fraction:
    """Classical abelian monopole dimension (<c1(spinc twisted by L)^2> - 2chi - 3sig)/4."""
    q = manifold.intersection_form
    w = [a + 2 * b for a, b in zip(c1s.coeffs, c1L.coeffs)]
    sq = sum(w[i] * q[i][j] * w[j] for i in range(len(w)) for j in range(len(w)))
    return Fraction(sq - 2 * manifold.euler - 3 * manifold.signature, 4)


def random_symmetric_rational(rng, m: int, kind: str) -> list[list[Fraction]]:
    """Seeded symmetric rational ``m x m`` matrix of one of four kinds.

    ``dense``: small rational entries; ``zero_diagonal``: integer entries
    off a zero diagonal; ``singular``: ``B^T D B`` with ``B`` of fewer rows
    than columns; ``definite``: ``B^T B + I``, positive definite.
    """

    def q():
        return Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))

    if kind in ("dense", "zero_diagonal"):
        a = [[Fraction(0)] * m for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                a[i][j] = a[j][i] = Fraction(int(rng.integers(-2, 3))) if kind == "zero_diagonal" else q()
            if kind == "zero_diagonal":
                a[i][i] = Fraction(0)
        return a
    rows = int(rng.integers(0, m)) if kind == "singular" else m
    b = [[q() for _ in range(m)] for _ in range(rows)]
    d = [q() if kind == "singular" else Fraction(1) for _ in range(rows)]
    shift = Fraction(int(kind == "definite"))
    return [
        [sum((b[t][i] * d[t] * b[t][j] for t in range(rows)), Fraction(0)) + shift * (i == j)
         for j in range(m)]
        for i in range(m)
    ]


def laplace_det(mat) -> int:
    """Determinant of an integer matrix by Laplace expansion along the rows, no division."""
    m = len(mat)

    @functools.cache
    def minor(row: int, cols: tuple[int, ...]) -> int:
        if row == m:
            return 1
        return sum(
            (-1) ** pos * mat[row][j] * minor(row + 1, cols[:pos] + cols[pos + 1:])
            for pos, j in enumerate(cols)
            if mat[row][j]
        )

    return minor(0, tuple(range(m)))


def _scaled_to_int(mat) -> tuple[int, list[list[int]]]:
    """``(c, c * mat)`` with ``c > 0`` the common denominator of the entries."""
    c = math.lcm(*(Fraction(x).denominator for row in mat for x in row))
    return c, [[int(Fraction(x) * c) for x in row] for row in mat]


def det_oracle(mat) -> Fraction:
    """Exact determinant of a rational matrix through :func:`laplace_det`."""
    c, b = _scaled_to_int(mat)
    return Fraction(laplace_det(b), c ** len(b))


def leading_minors(mat) -> list[Fraction]:
    """``D_1, ..., D_m``: the leading principal minors of a rational matrix."""
    return [det_oracle([row[:k] for row in mat[:k]]) for k in range(1, len(mat) + 1)]


def inertia_oracle(mat) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts of a symmetric rational matrix, exactly.

    ``det(x I - B) = sum_k (-1)^k e_k x^(m-k)`` for ``B = c * mat`` (same
    inertia), with ``e_k`` the sum of the ``k x k`` principal minors.  Its
    roots are all real, so Descartes' rule of signs counts the positive
    ones exactly, and on ``p(-x)``, whose coefficients are ``+-e_k``, the
    negative ones; ``0`` is a root of multiplicity ``m - max{k : e_k != 0}``.
    """
    _, b = _scaled_to_int(mat)
    m = len(b)
    e = [
        sum(laplace_det([[b[i][j] for j in s] for i in s]) for s in combinations(range(m), k))
        for k in range(m + 1)
    ]
    rank = max(k for k in range(m + 1) if e[k])

    def sign_changes(seq):
        signs = [x > 0 for x in seq if x]
        return sum(u != v for u, v in zip(signs, signs[1:]))

    return sign_changes([(-1) ** k * e[k] for k in range(rank + 1)]), sign_changes(e[: rank + 1]), m - rank


def instanton_dimension_oracle(k: int, b2plus: int) -> int:
    """Classical charge-k rank-2 projective instanton dimension 8k - 3(1 + b2+)."""
    return 8 * k - 3 * (1 + b2plus)


def brute_force_ball(metric, radius_sq: Fraction) -> list[tuple[int, ...]]:
    """Lattice ball by eigenvalue bounding box + exact filter.

    The filter clears the metric's denominators once and compares the
    integer ``den * v^T G v`` with ``floor(den * radius_sq)``.
    """
    g = [[Fraction(x) for x in row] for row in metric]
    m = len(g)
    if m == 0:
        return [()]
    eigs = np.linalg.eigvalsh(np.array([[float(x) for x in row] for row in g]))
    lam_min = float(eigs.min())
    assert lam_min > 0
    box = int(math.floor(math.sqrt(float(radius_sq) / lam_min) + 1e-9)) + 1
    den = math.lcm(*(x.denominator for row in g for x in row))
    gi = [[int(x * den) for x in row] for row in g]
    bound = math.floor(Fraction(radius_sq) * den)
    out = []
    for v in product(range(-box, box + 1), repeat=m):
        q = sum(v[i] * gi[i][j] * v[j] for i in range(m) for j in range(m))
        if q <= bound:
            out.append(v)
    out.sort()
    return out


def schur_margin_oracle(n: int, tau: float, lam: complex) -> float:
    """Identity-obstruction margin by scanning the rank-one trace parameter.

    For a rank-<=1 matrix with trace t the smallest Frobenius distance to
    lam*id is sqrt(|a t - lam|^2 + (n-1)|b t + lam|^2) with a=(n-1+tau)/n,
    b=(1-tau)/n, attained on normal representatives; minimize over complex t
    by coarse grid plus local refinement (no closed form used).
    """
    a = (n - 1 + tau) / n
    b = (1 - tau) / n

    def val(t: complex) -> float:
        return abs(a * t - lam) ** 2 + (n - 1) * abs(b * t + lam) ** 2

    span = 4.0 * (1.0 + abs(lam))
    center = 0.0 + 0.0j
    best = val(center)
    for _ in range(40):
        ts = [
            center + span * (x + 1j * y)
            for x in np.linspace(-1, 1, 21)
            for y in np.linspace(-1, 1, 21)
        ]
        vals = [val(t) for t in ts]
        i = int(np.argmin(vals))
        if vals[i] < best:
            best = vals[i]
            center = ts[i]
        span *= 0.45
    return math.sqrt(best)


@pytest.fixture
def rng():
    return make_rng(20260808)
