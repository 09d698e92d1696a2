"""Census of circle-action fixed-point candidates and Uhlenbeck strata.

A reduction candidate is an isomorphism class of proper subbundle splittings
``E = F (+) Fperp``, identified (on a closed oriented 4-manifold) with the
triple ``(rank, c1, c2)`` of ``F``; the complement is forced by the Whitney
formula.  Curvature bounds cut the census down to finitely many candidates:
the trace bound confines ``c1(F)`` to a ball of the harmonic-form metric
``G``, and the self-dual/anti-self-dual bounds confine ``<c2(F)>`` to an
integer window around ``<c1(F)^2>/2``.

All filtering is exact: ``G`` is a rational positive-definite matrix, the
ball test clears denominators and compares integers, and window endpoints
are floored/ceiled through exact rationals.  Enumeration order is
deterministic (rank, stratum, c1 lexicographic, c2) regardless of how the
(rank, stratum) cells would be scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

from .cohomology import (
    BundleData,
    CohClass2,
    FourManifold,
    SpincStructure,
    cup,
    dirac_index,
    expected_dim_asd,
    expected_dim_pun,
    expected_dim_un,
    inertia,
    p1_su,
)

__all__ = [
    "InconsistentCandidateError",
    "CurvatureBounds",
    "ReductionCandidate",
    "EnumerationReport",
    "StratumRow",
    "Tau0Verdict",
    "whitney_complement",
    "tau_parameter",
    "component_dims",
    "chern_weil_c2_window",
    "enumerate_reductions",
    "uhlenbeck_strata",
    "generic_tau0_vanishing",
    "lattice_points_in_ball",
    "identity_metric",
]


class InconsistentCandidateError(ValueError):
    """A forced complement violates line-bundle Chern constraints."""


def _as_fraction(x, what: str) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise ValueError(f"{what} must be a rational number")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)  # exact value of the float
    raise ValueError(f"{what} must be a rational number, got {x!r}")


def _rational_matrix(rows: Sequence[Sequence], what: str) -> tuple[tuple[Fraction, ...], ...]:
    mat = tuple(tuple(_as_fraction(x, f"{what} entry") for x in row) for row in rows)
    m = len(mat)
    if any(len(row) != m for row in mat):
        raise ValueError(f"{what} must be a square matrix")
    for i in range(m):
        for j in range(i + 1, m):
            if mat[i][j] != mat[j][i]:
                raise ValueError(f"{what} must be symmetric")
    return mat


def identity_metric(b2: int) -> tuple[tuple[Fraction, ...], ...]:
    """The standard inner product on H^2 coordinates, as an exact matrix."""
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(b2)) for i in range(b2)
    )


@dataclass(frozen=True)
class CurvatureBounds:
    """L^2 curvature bounds plus the harmonic-form metric they refer to.

    ``c_trace`` bounds the L^2 norm of the curvature trace on the subbundle,
    ``c_plus``/``c_minus`` the self-dual and anti-self-dual parts.  ``G`` is
    the positive-definite Gram matrix of the harmonic representatives of the
    chosen H^2 basis; positivity is checked exactly.
    """

    c_trace: float
    c_plus: float
    c_minus: float
    metric: tuple[tuple[Fraction, ...], ...]

    def __init__(self, c_trace, c_plus, c_minus, metric):
        for name, v in (("c_trace", c_trace), ("c_plus", c_plus), ("c_minus", c_minus)):
            if not (float(v) >= 0.0):
                raise ValueError(f"{name} must be a nonnegative real")
        g = _rational_matrix(metric, "harmonic metric")
        if inertia(g) != (len(g), 0, 0):
            raise ValueError("harmonic metric must be positive definite")
        object.__setattr__(self, "c_trace", float(c_trace))
        object.__setattr__(self, "c_plus", float(c_plus))
        object.__setattr__(self, "c_minus", float(c_minus))
        object.__setattr__(self, "metric", g)

    @property
    def b2(self) -> int:
        return len(self.metric)


def _metric_inverse(g: tuple[tuple[Fraction, ...], ...]) -> list[list[Fraction]]:
    m = len(g)
    a = [list(row) + [Fraction(int(i == j)) for j in range(m)] for i, row in enumerate(g)]
    for c in range(m):
        piv = next(r for r in range(c, m) if a[r][c] != 0)
        a[c], a[piv] = a[piv], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for r in range(m):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[m:] for row in a]


def _floor_sqrt(x: Fraction) -> int:
    """floor(sqrt(x)) for a nonnegative rational, exactly."""
    if x < 0:
        raise ValueError("negative radicand")
    # floor of sqrt(p/q): integer square root of floor(p*q) over q
    p, q = x.numerator, x.denominator
    r = math.isqrt(p * q) // q
    while (r + 1) * (r + 1) <= x:
        r += 1
    while r * r > x:
        r -= 1
    return r


def lattice_points_in_ball(
    metric: Sequence[Sequence], radius_sq
) -> list[tuple[int, ...]]:
    """All integer vectors with v^T G v <= radius_sq, exactly, sorted.

    Bounding-box enumeration: the box half-widths come from the diagonal of
    the exact inverse metric (for v in the ball, v_i^2 <= radius_sq *
    (G^{-1})_{ii}), then every box point is filtered through the cleared-
    denominator integer quadratic form.
    """
    g = _rational_matrix(metric, "metric")
    if inertia(g) != (len(g), 0, 0):
        raise ValueError("metric must be positive definite")
    r2 = _as_fraction(radius_sq, "radius_sq")
    if r2 < 0:
        return []
    m = len(g)
    if m == 0:
        return [()]

    ginv = _metric_inverse(g)
    bounds = [_floor_sqrt(r2 * ginv[i][i]) for i in range(m)]
    denom = math.lcm(*(e.denominator for row in g for e in row))

    gi = [[int(e * denom) for e in row] for row in g]
    threshold = r2 * denom  # compare integers against this exact rational
    points = []
    for v in product(*(range(-b, b + 1) for b in bounds)):
        q = 0
        for i in range(m):
            vi = v[i]
            if vi:
                row = gi[i]
                q += vi * sum(row[j] * v[j] for j in range(m))
        if q <= threshold:
            points.append(v)
    points.sort()
    return points


def whitney_complement(
    bundle: BundleData, sub: BundleData, manifold: FourManifold, k: int = 0
) -> BundleData:
    """The complement forced by Whitney arithmetic in stratum ``k``.

    ``c1`` is the difference of first Chern classes; ``c2`` solves
    ``c2(F) + c2(Fperp) + <c1(F) c1(Fperp)> = c2(E) - k``.  A rank-1
    complement whose forced ``c2`` is nonzero cannot exist and raises
    :class:`InconsistentCandidateError` (callers prune and count these).
    """
    if not 1 <= sub.rank < bundle.rank:
        raise ValueError("subbundle rank must satisfy 1 <= rank(F) < rank(E)")
    if k < 0:
        raise ValueError("stratum index must be nonnegative")
    rank_perp = bundle.rank - sub.rank
    c1_perp = bundle.c1 - sub.c1
    pairing = cup(sub.c1, c1_perp, manifold)
    c2_perp = (bundle.c2 - k) - sub.c2 - pairing
    if rank_perp == 1 and c2_perp != 0:
        raise InconsistentCandidateError(
            f"rank-1 complement forced to <c2> = {c2_perp}; no such line bundle"
        )
    return BundleData(rank_perp, c1_perp, c2_perp)


def tau_parameter(n: int, big_n: int) -> Fraction:
    """The interpolation parameter 1 - n/N of a rank-n reduction, exactly."""
    if not 1 <= n < big_n:
        raise ValueError("need 1 <= n < N")
    return 1 - Fraction(n, big_n)


def component_dims(
    bundle: BundleData,
    s: SpincStructure,
    manifold: FourManifold,
    sub: BundleData,
    k: int = 0,
    dirac_multiplicity: int = 2,
) -> tuple[int, int, int]:
    """(unitary part, instanton part, total) expected dimensions of a candidate.

    The unitary monopole dimension is evaluated on the subbundle; the
    instanton dimension on the forced complement.  A rank-1 complement
    contributes 0 whatever its Chern data (the projective connection space
    of a line bundle is a point), so the line-bundle consistency check is
    left to the census; here only the dimensions are computed.
    """
    if not 1 <= sub.rank < bundle.rank:
        raise ValueError("subbundle rank must satisfy 1 <= rank(F) < rank(E)")
    dim_un = expected_dim_un(sub, s, manifold, dirac_multiplicity)
    if bundle.rank - sub.rank == 1:
        dim_asd = 0
    else:
        perp = whitney_complement(bundle, sub, manifold, k)
        dim_asd = expected_dim_asd(perp, manifold)
    return dim_un, dim_asd, dim_un + dim_asd


def chern_weil_c2_window(
    c1f: CohClass2, manifold: FourManifold, bounds: CurvatureBounds
) -> range:
    """Integer window of <c2> values compatible with the curvature bounds.

    From ``<c2> = <c1^2>/2 + (||F-||^2 - ||F+||^2)/(8 pi^2)``:
    the window is ``[ceil(<c1^2>/2 - C+^2/(8 pi^2)),
    floor(<c1^2>/2 + C-^2/(8 pi^2))]``, possibly empty.
    """
    half_sq = Fraction(cup(c1f, c1f, manifold), 2)
    eight_pi_sq = 8.0 * math.pi * math.pi
    lo = half_sq - Fraction(bounds.c_plus * bounds.c_plus / eight_pi_sq)
    hi = half_sq + Fraction(bounds.c_minus * bounds.c_minus / eight_pi_sq)
    return range(math.ceil(lo), math.floor(hi) + 1)


@dataclass(frozen=True)
class ReductionCandidate:
    """A fixed-point component label: subbundle, forced complement, invariants.

    The unitary factor of a candidate carries the interpolation parameter
    ``tau = 1 - n/N``; the perturbation it inherits is the determinant-line
    curvature scaled by 1/N, which is analytic data with no topological
    proxy, so only ``tau`` is recorded here.
    """

    F: BundleData
    Fperp: BundleData
    tau: Fraction
    dim_un_part: int
    dim_asd_part: int
    total_dim: int
    stratum_k: int
    c1_norm: float

    def sort_key(self):
        return (self.F.rank, self.stratum_k, self.F.c1.coeffs, self.F.c2)


@dataclass(frozen=True)
class EnumerationReport:
    """Sorted candidate census plus pruning diagnostics."""

    candidates: tuple[ReductionCandidate, ...]
    pruned_inconsistent: int
    lattice_points: int
    warnings: tuple[str, ...] = ()


def enumerate_reductions(
    manifold: FourManifold,
    bundle: BundleData,
    s: SpincStructure,
    bounds: CurvatureBounds,
    k_max: int = 0,
    dirac_multiplicity: int = 2,
) -> EnumerationReport:
    """Enumerate all reduction candidates allowed by the curvature bounds.

    For every subbundle rank ``n`` in ``1..N-1`` and stratum ``k`` in
    ``0..k_max``: all integer classes in the trace-bound ball (radius
    ``c_trace / 2 pi`` in the harmonic metric), all ``<c2(F)>`` in the
    Chern-Weil window (line bundles only contribute ``c2 = 0``), complement
    forced by Whitney arithmetic, inconsistent rank-1 complements pruned and
    counted.  The census is finite for any positive-definite metric and
    finite bounds, and is returned sorted by (rank, stratum, c1, c2).
    """
    if bounds.b2 != manifold.b2:
        raise ValueError("harmonic metric size does not match b2")
    if bundle.rank < 2:
        raise ValueError("reductions need a bundle of rank >= 2")
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    notes = []
    if manifold.b1 != 0:
        notes.append(
            "b1 != 0: the product description of fixed-point components "
            "assumes a simply connected manifold"
        )
    notes.extend(manifold.warnings)
    radius = bounds.c_trace / (2.0 * math.pi)
    radius_sq = Fraction(radius) * Fraction(radius)
    points = lattice_points_in_ball(bounds.metric, radius_sq)
    big_n = bundle.rank
    candidates = []
    pruned = 0
    for n in range(1, big_n):
        tau = tau_parameter(n, big_n)
        for k in range(k_max + 1):
            for v in points:
                c1f = CohClass2(v)
                window = chern_weil_c2_window(c1f, manifold, bounds)
                for c2f in window:
                    if n == 1 and c2f != 0:
                        continue
                    sub = BundleData(n, c1f, c2f)
                    try:
                        perp = whitney_complement(bundle, sub, manifold, k)
                    except InconsistentCandidateError:
                        pruned += 1
                        continue
                    dim_un, dim_asd, total = component_dims(
                        bundle, s, manifold, sub, k, dirac_multiplicity
                    )
                    g = bounds.metric
                    norm_sq = sum(
                        Fraction(v[i]) * g[i][j] * v[j]
                        for i in range(len(v))
                        for j in range(len(v))
                    )
                    candidates.append(
                        ReductionCandidate(
                            F=sub,
                            Fperp=perp,
                            tau=tau,
                            dim_un_part=dim_un,
                            dim_asd_part=dim_asd,
                            total_dim=total,
                            stratum_k=k,
                            c1_norm=math.sqrt(float(norm_sq)),
                        )
                    )
    candidates.sort(key=ReductionCandidate.sort_key)
    return EnumerationReport(
        candidates=tuple(candidates),
        pruned_inconsistent=pruned,
        lattice_points=len(points),
        warnings=tuple(notes),
    )


@dataclass(frozen=True)
class StratumRow:
    """One Uhlenbeck stratum: bubbling number, bundle, index breakdown."""

    k: int
    bundle: BundleData
    expected_dim: int
    instanton_part: int
    dirac_index: int


def uhlenbeck_strata(
    bundle: BundleData,
    manifold: FourManifold,
    s: SpincStructure,
    k_max: int,
    dirac_multiplicity: int = 2,
) -> tuple[StratumRow, ...]:
    """Bundles and expected dimensions down the bubbling strata.

    Stratum ``k`` carries the bundle with the same ``c1`` and ``<c2>``
    lowered by ``k``; the expected monopole dimension is recomputed per
    stratum, and the two index constituents (instanton part, Dirac index)
    are reported alongside.

    Relative to stratum 0, row ``k`` satisfies, for rank ``N`` and Dirac
    multiplicity ``m``:

    * the instanton part ``-2<p1(su(E))> - (N^2-1)(b2+ - b1 + 1)`` drops by
      ``4Nk``, since ``<p1(su(E))> = (N-1)<c1^2> - 2N<c2>``;
    * the twisted Dirac index rises by ``k``, since it contains ``-<c2>``;
    * the expected dimension therefore drops by ``(4N - m)k``: ``(4N-2)k``
      with the default ``m = 2``, the classical 6 per level for ``N = 2``.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    n = bundle.rank
    rows = []
    for k in range(k_max + 1):
        b_k = BundleData(n, bundle.c1, bundle.c2 - k)
        instanton = -2 * p1_su(b_k, manifold) - (n * n - 1) * (
            manifold.b2plus - manifold.b1 + 1
        )
        rows.append(
            StratumRow(
                k=k,
                bundle=b_k,
                expected_dim=expected_dim_pun(b_k, s, manifold, dirac_multiplicity),
                instanton_part=instanton,
                dirac_index=dirac_index(b_k, s, manifold),
            )
        )
    return tuple(rows)


@dataclass(frozen=True)
class Tau0Verdict:
    """Generic-parameter emptiness verdict for the tau = 0 trace equation."""

    vanishes_generically: bool
    cokernel_dimension: int


def generic_tau0_vanishing(manifold: FourManifold) -> Tau0Verdict:
    """Whether the tau = 0 abelian trace equation is generically unsolvable.

    At ``tau = 0`` the quadratic map is traceless and the trace of the
    curvature equation decouples into a perturbed abelian anti-self-duality
    equation; the linearization has cokernel of dimension ``b2+``, so the
    solution set is empty for generic perturbation exactly when ``b2+ > 0``.
    """
    return Tau0Verdict(
        vanishes_generically=manifold.b2plus > 0,
        cokernel_dimension=manifold.b2plus,
    )
