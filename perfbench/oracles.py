"""Independent computations the benchmark checks the program's outputs against.

Nothing here imports ``monopoles``: the lattice counts, index formulas and
closed forms are written out from their definitions, so a fault in the
program cannot hide by also being in its own reference.

Conventions match the problem files: a degree-two class is an integer
coordinate vector, the intersection form ``Q`` pairs classes as ``x^T Q y``,
and the harmonic metric of a census problem is ``G = P^T D P`` with ``P``
unimodular and ``D`` a positive rational diagonal.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

Vector = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]


def pair(x: Sequence[int], q: Sequence[Sequence[int]], y: Sequence[int]) -> int:
    """The bilinear form ``x^T Q y`` over the integers."""
    return sum(x[i] * q[i][j] * y[j] for i in range(len(x)) for j in range(len(y)) if q[i][j])


# ---------------------------------------------------------------------------
# lattice balls of a diagonal metric
# ---------------------------------------------------------------------------

def theta_ball_count(diag: Sequence[Fraction], radius_sq: Fraction) -> int:
    """Number of integer vectors with ``sum d_i v_i^2 <= radius_sq``.

    The theta series of a diagonal form is the product of one-dimensional
    series ``sum_t q^(d t^2)``; the count is the sum of the coefficients of
    the truncated product up to ``radius_sq``.
    """
    series = {Fraction(0): 1}
    for d in diag:
        if d <= 0:
            raise ValueError("diagonal metric entries must be positive")
        shells = {}
        t = 0
        while d * t * t <= radius_sq:
            shells[d * t * t] = 1 if t == 0 else 2
            t += 1
        product = {}
        for value, count in series.items():
            for shell, mult in shells.items():
                total = value + shell
                if total <= radius_sq:
                    product[total] = product.get(total, 0) + count * mult
        series = product
    return sum(series.values())


def diagonal_ball_points(diag: Sequence[Fraction], radius_sq: Fraction) -> list[Vector]:
    """All integer vectors with ``sum d_i v_i^2 <= radius_sq``, depth first."""
    points: list[Vector] = []

    def extend(prefix: list[int], budget: Fraction) -> None:
        i = len(prefix)
        if i == len(diag):
            points.append(tuple(prefix))
            return
        t = 0
        while diag[i] * t * t <= budget:
            for s in ((t,) if t == 0 else (t, -t)):
                prefix.append(s)
                extend(prefix, budget - diag[i] * t * t)
                prefix.pop()
            t += 1

    extend([], radius_sq)
    return points


def unit_upper_inverse(s: Sequence[Sequence[int]]) -> Matrix:
    """Inverse of a unit upper-triangular integer matrix, over the integers."""
    m = len(s)
    inv = [[int(i == j) for j in range(m)] for i in range(m)]
    for col in range(m):
        for row in range(col - 1, -1, -1):
            inv[row][col] = -sum(s[row][k] * inv[k][col] for k in range(row + 1, col + 1))
    return tuple(tuple(r) for r in inv)


def mat_vec(a: Sequence[Sequence[int]], v: Sequence[int]) -> Vector:
    return tuple(sum(a[i][j] * v[j] for j in range(len(v))) for i in range(len(a)))


# ---------------------------------------------------------------------------
# index formulas
# ---------------------------------------------------------------------------

def p1_su(rank: int, c1_sq: int, c2: int) -> int:
    """``<p1(su(E))> = (N-1)<c1^2> - 2N<c2>``."""
    return (rank - 1) * c1_sq - 2 * rank * c2


def dirac_index(rank: int, c1_sq: int, c1_cs: int, c2: int, cs_sq: int, sigma: int) -> Fraction:
    """Degree-four part of ``ch(E) e^{c1(s)/2} Ahat``, with ``Ahat = 1 - p1/24``."""
    return Fraction(c1_sq - 2 * c2 + c1_cs, 2) + Fraction(rank * (cs_sq - sigma), 8)


def dim_pun(rank, c1_sq, c1_cs, c2, cs_sq, sigma, b2plus, b1, mult) -> Fraction:
    return (
        -2 * p1_su(rank, c1_sq, c2)
        - (rank * rank - 1) * (b2plus - b1 + 1)
        + mult * dirac_index(rank, c1_sq, c1_cs, c2, cs_sq, sigma)
    )


def dim_un(rank, c1_sq, c1_cs, c2, cs_sq, sigma, b2plus, b1, mult) -> Fraction:
    return (
        -2 * p1_su(rank, c1_sq, c2)
        - rank * rank * (b2plus - b1 + 1)
        + mult * dirac_index(rank, c1_sq, c1_cs, c2, cs_sq, sigma)
    )


def dim_asd(rank: int, c1_sq: int, c2: int, b2plus: int, b1: int) -> int:
    return -2 * p1_su(rank, c1_sq, c2) - (rank * rank - 1) * (b2plus - b1 + 1)


def abelian_dimension(twisted_sq: int, b2: int, sigma: int, b1: int) -> Fraction:
    """Classical abelian monopole dimension ``(c1(s x L)^2 - 2 chi - 3 sigma)/4 + b1``."""
    euler = 2 - 2 * b1 + b2
    return Fraction(twisted_sq - 2 * euler - 3 * sigma, 4) + b1


def instanton_dimension(c2: int, b2plus: int) -> int:
    """Classical charge-``c2`` SU(2) instanton dimension ``8 c2 - 3(1 + b2+)``."""
    return 8 * c2 - 3 * (1 + b2plus)


# ---------------------------------------------------------------------------
# the reduction census, recomputed from the ball of D
# ---------------------------------------------------------------------------

def c2_window(c1_sq: int, plus_energy: Fraction, minus_energy: Fraction) -> range:
    """``[ceil(c1^2/2 - C+^2/8pi^2), floor(c1^2/2 + C-^2/8pi^2)]``, given the two energies."""
    half = Fraction(c1_sq, 2)
    return range(math.ceil(half - plus_energy), math.floor(half + minus_energy) + 1)


def expected_census(
    ball: Sequence[Vector],
    form: Sequence[Sequence[int]],
    rank: int,
    bundle_c1: Sequence[int],
    bundle_c2: int,
    k_max: int,
    plus_energy: Fraction,
    minus_energy: Fraction,
) -> tuple[set[tuple[int, int, Vector, int]], int]:
    """Keys ``(n, k, c1(F), c2(F))`` of every consistent candidate, and the pruned count.

    A rank-1 subbundle has ``c2 = 0``; the complement's ``c2`` is forced by
    the Whitney formula, and a forced nonzero ``c2`` on a line-bundle
    complement is pruned.
    """
    keys = set()
    pruned = 0
    for n in range(1, rank):
        for k in range(k_max + 1):
            for v in ball:
                c1_sq = pair(v, form, v)
                perp_c1 = tuple(a - b for a, b in zip(bundle_c1, v))
                mixed = pair(v, form, perp_c1)
                for c2 in c2_window(c1_sq, plus_energy, minus_energy):
                    if n == 1 and c2 != 0:
                        continue
                    if rank - n == 1 and (bundle_c2 - k) - c2 - mixed != 0:
                        pruned += 1
                        continue
                    keys.add((n, k, v, c2))
    return keys, pruned


# ---------------------------------------------------------------------------
# closed forms of the spinor-map certificates
# ---------------------------------------------------------------------------

def properness_constant(n: int, tau: float) -> float:
    """``min |mu(tau, Psi, Psi)|`` over unit spinors: ``sqrt((n-1+tau^2)/(2n))``.

    In the invariants ``x = |alpha|^2``, ``y = |beta|^2``, ``z = |<alpha,beta>|^2``
    the squared norm is linear in ``z`` with negative slope, so its minimum
    on the unit sphere sits at ``z = xy``, where it is constant.
    """
    return math.sqrt((n - 1 + tau * tau) / (2 * n))


def identity_margin(n: int, tau: float, lam: complex) -> float:
    """``min_t |a t - lam|^2 + (n-1)|b t + lam|^2``, square-rooted, ``a = (n-1+tau)/n``, ``b = (1-tau)/n``."""
    return abs(lam) * math.sqrt(n * (n - 1) / (n - 1 + tau * tau))
