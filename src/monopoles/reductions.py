"""Census of circle-action fixed-point candidates and Uhlenbeck strata.

A reduction candidate is an isomorphism class of proper subbundle splittings
``E = F (+) Fperp``, identified (on a closed oriented 4-manifold) with the
triple ``(rank, c1, c2)`` of ``F``; the complement is forced by the Whitney
formula.  Curvature bounds cut the census down to finitely many candidates:
the trace bound confines ``c1(F)`` to a ball of the harmonic-form metric
``G``, and the self-dual/anti-self-dual bounds confine ``<c2(F)>`` to an
integer window around ``<c1(F)^2>/2``.

The ball is enumerated by Fincke-Pohst depth-first search over the exact
``L D L^T`` factorization of ``G`` from :func:`cohomology.ldl`, so the work
follows the ball's own search tree rather than a bounding box around it.
A ball that holds more than :data:`MAX_BALL_POINTS` points is refused while
it is enumerated.
The same factorization's pivots decide, for :class:`CurvatureBounds` and
the ball alike, that ``G`` is positive definite.

Each ball point ``v = c1(F)`` is paired through one exact product ``Q v``,
whose dot products with ``v``, ``c1(s)`` and ``c1(E)`` give every pairing of
``c1(F)`` and ``c1(Fperp)``, so the window and the counts cost no object.
Only a point that keeps a candidate computes ``c1(Fperp) = c1(E) - v`` and
its norm (``v . G v`` over the metric's common denominator, cleared once),
which all its candidates share.  A candidate then differs from its
neighbours only in ``<c2>``, so its dimensions are integer arithmetic in the
private index functions of :mod:`cohomology`, with no pairing, and it is
built as its report row: integers, coordinate tuples, ``tau`` and the norm,
with no class or bundle object.

What one rank keeps on one class is stated once, in ``_cells``: the
``(stratum, <c2(F)>)`` cells it keeps, and how many it keeps and prunes, by
range arithmetic.  A line bundle has ``c2 = 0``, so a rank-1 subbundle is
eligible only at ``<c2(F)> = 0``.  For rank ``N-1`` the line-bundle
complement forces ``c2(F) = c2(E) - k - <c1(F) c1(Fperp)>``, so only the
strata where that value lies in the window keep it, and every other eligible
window entry is counted as pruned, unwalked.  The census is one pass over
the ball: ``_cells`` runs once per point and rank, and the point's
candidates are built at once while the running count stays within
:data:`MAX_CENSUS_CANDIDATES`.  Past the cap nothing more is built, but the
census is counted to its end, and refused with its full size.

All filtering is exact: ``G`` is a rational positive-definite matrix, the
ball test clears denominators and compares integers, and window endpoints
are floored/ceiled through exact rationals.  Enumeration order is
deterministic (rank, stratum, c1 lexicographic, c2) regardless of how the
(rank, stratum) cells would be scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from fractions import Fraction
from operator import attrgetter, mul, sub
from typing import Sequence

from .cohomology import (
    BundleData,
    CohClass2,
    FourManifold,
    SpincStructure,
    _asd_dim,
    _check_multiplicity,
    _chi,
    _monopole_dim,
    _symmetric_matrix,
    _times,
    cup,
    dirac_index,
    expected_dim_asd,
    expected_dim_pun,
    expected_dim_un,
    ldl,
    p1_su,  # noqa: F401  unused here; the benchmark tracer wraps it under this name
)

__all__ = [
    "BallTooLargeError",
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


# A census and its report hold every candidate at once.  Through the CLI one
# candidate costs about 1.03 KB of peak memory at b2 = 22 (its row plus the
# report text; measured between 5.0*10^4 and 1.18*10^5 candidates, at 78
# and 147 MB).  The cap was set at 8 KB each, a 1 GiB budget, when the
# report went through the stdlib's indented encoder; at today's cost its
# 131 072 candidates take about 0.13 GiB.  Candidates are built only while
# the running count is within the cap; past it the census is counted to its
# end and refused, so a refused census holds at most the cap's rows and no
# report text (a K3 census of 131 599 candidates is refused at 53 MB).
MAX_CENSUS_CANDIDATES = 2**30 // 8192

# A strata table holds one row per stratum 0..k_max.  Through the CLI one row
# costs about 1.5 KB of peak memory (measured between 2*10^4 and 5*10^4 rows).
# Every row follows from the first by the drops stated in uhlenbeck_strata, so
# a long table says nothing a short one does not: its budget is 128 MiB, an
# eighth of the census's, which holds 87 381 rows.
MAX_STRATA_ROWS = 2**27 // 1536


# The census holds every point of the trace bound's ball at once.  Through
# the CLI a point costs about 0.24 KB of peak memory at b2 = 22 if it keeps
# no candidate and about 1.9 KB if it keeps one: its complement class and
# norm, the candidate, its report row and the row writer's texts for the
# point (each measured between 1.3*10^4 and 1.3*10^5 points).  At 1.25 KB
# each, a 256 MiB budget, a quarter of the census's, holds 209 715 points;
# the enumeration stops with an error before it holds more.  At most
# MAX_CENSUS_CANDIDATES of them keep a built candidate, so a full ball
# costs at most about 263 MiB.
MAX_BALL_POINTS = 2**28 // 1280


class BallTooLargeError(ValueError):
    """The trace bound's ball holds more than :data:`MAX_BALL_POINTS` lattice points."""


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


def identity_metric(b2: int) -> tuple[tuple[Fraction, ...], ...]:
    """The standard inner product on H^2 coordinates, as an exact matrix."""
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(b2)) for i in range(b2)
    )


def _positive_ldl(g: Sequence[Sequence]) -> tuple[list[list[Fraction]], list[Fraction]] | None:
    """``(L, pivots)`` of ``G = L D L^T`` if ``G`` is positive definite, else ``None``.

    Exact: ``G`` is positive definite when all of its ``m`` pivots are
    positive (Sylvester), and then :func:`ldl` has needed no swap or repair.
    """
    low, d = ldl(g)
    return (low, d) if sum(x > 0 for x in d) == len(g) else None


@dataclass(frozen=True)
class CurvatureBounds:
    """L^2 curvature bounds plus the harmonic-form metric they refer to.

    ``c_trace`` bounds the L^2 norm of the curvature trace on the subbundle,
    ``c_plus``/``c_minus`` the self-dual and anti-self-dual parts.  ``G`` is
    the positive-definite Gram matrix of the harmonic representatives of the
    chosen H^2 basis; positivity is checked exactly.

    The census rounds here, once: ``radius_sq`` is the float ``c_trace /
    (2 pi)`` squared exactly, and ``plus_energy``/``minus_energy`` are the
    floats ``C+-^2 / (8 pi^2)``, all exact rationals that the census reads.
    So a class exactly on the intended boundary falls on the side its float
    rounds to; give ``c_trace`` a little slack to keep such a class.
    """

    c_trace: float
    c_plus: float
    c_minus: float
    metric: tuple[tuple[Fraction, ...], ...]
    radius_sq: Fraction = field(init=False)
    plus_energy: Fraction = field(init=False)
    minus_energy: Fraction = field(init=False)

    def __init__(self, c_trace, c_plus, c_minus, metric):
        c_trace, c_plus, c_minus = float(c_trace), float(c_plus), float(c_minus)
        for name, c in (("c_trace", c_trace), ("c_plus", c_plus), ("c_minus", c_minus)):
            if not (math.isfinite(c) and c >= 0.0):
                raise ValueError(f"{name} must be a finite nonnegative real")
            if math.isinf(c * c):
                raise ValueError(f"{name} = {c!r} is too large: its square overflows a float")
        g = _symmetric_matrix(metric, _as_fraction, "harmonic metric")
        if _positive_ldl(g) is None:
            raise ValueError("harmonic metric must be positive definite")
        radius = Fraction(c_trace / (2.0 * math.pi))
        energies = (Fraction(c * c / (8.0 * math.pi * math.pi)) for c in (c_plus, c_minus))
        for f, value in zip(fields(self), (c_trace, c_plus, c_minus, g, radius * radius, *energies)):
            object.__setattr__(self, f.name, value)

    @property
    def b2(self) -> int:
        return len(self.metric)


def lattice_points_in_ball(
    metric: Sequence[Sequence], radius_sq
) -> list[tuple[int, ...]]:
    """All integer vectors with v^T G v <= radius_sq, exactly, sorted.

    Fincke-Pohst enumeration (Math. Comp. 44, 1985): with ``G = L D L^T``,
    ``v^T G v = sum_i d_i (v_i + c_i)^2`` where ``c_i = sum_{j>i} L_ji v_j``
    depends only on the later coordinates.  A depth-first search fixes
    ``v_{m-1}, ..., v_0`` in turn; at coordinate ``i``, with ``budget`` left
    of ``radius_sq``, ``v_i`` ranges over the integers with
    ``|v_i + c_i| <= sqrt(budget / d_i)``, so the search visits the ball's
    own tree and no box around it.  The range is computed exactly: scaling
    by ``a^2 b`` (``a``, ``b`` the common denominators of ``L`` and ``D``)
    turns each test into ``w_i (a v_i + s_i)^2 <= B`` with integers
    ``w_i = b d_i``, ``s_i = a c_i`` and ``B = floor(a^2 b radius_sq)``,
    whose solutions are ``|a v_i + s_i| <= isqrt(B // w_i)``.

    Raises :class:`BallTooLargeError` once the ball is found to hold more
    than :data:`MAX_BALL_POINTS` points.
    """
    g = _symmetric_matrix(metric, _as_fraction, "metric")
    factors = _positive_ldl(g)
    if factors is None:
        raise ValueError("metric must be positive definite")
    low, d = factors
    r2 = _as_fraction(radius_sq, "radius_sq")
    if r2 < 0:
        return []
    m = len(g)
    a = math.lcm(*(x.denominator for row in low for x in row))
    b = math.lcm(*(x.denominator for x in d))
    w = [int(x * b) for x in d]
    # a L_ji for the nonzero L_ji (j > i) of each column: s_i reads only these
    later = [[(j, int(low[j][i] * a)) for j in range(i + 1, m) if low[j][i]] for i in range(m)]
    points = []
    v = [0] * m

    def descend(i: int, budget: int) -> None:
        if i < 0:
            if len(points) == MAX_BALL_POINTS:
                raise BallTooLargeError(
                    f"ball too large: more than {MAX_BALL_POINTS} lattice points lie in the trace "
                    f"bound's ball (radius squared {float(r2):.6g}), the cap on ball points"
                )
            points.append(tuple(v))
            return
        s = sum(x * v[j] for j, x in later[i])
        h = math.isqrt(budget // w[i])
        for t in range(-((s + h) // a), (h - s) // a + 1):
            v[i] = t
            descend(i - 1, budget - w[i] * (a * t + s) ** 2)
        v[i] = 0

    descend(m - 1, math.floor(r2 * b * a * a))
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
    c1_perp = bundle.c1 - sub.c1
    rank_perp = bundle.rank - sub.rank
    c2_perp = (bundle.c2 - k) - sub.c2 - cup(sub.c1, c1_perp, manifold)
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
    perp = whitney_complement(bundle, sub, manifold, k) if bundle.rank - sub.rank > 1 else None
    dim_un = expected_dim_un(sub, s, manifold, dirac_multiplicity)
    dim_asd = 0 if perp is None else expected_dim_asd(perp, manifold)
    return dim_un, dim_asd, dim_un + dim_asd


def chern_weil_c2_window(
    c1f: CohClass2, manifold: FourManifold, bounds: CurvatureBounds
) -> range:
    """Integer window of <c2> values compatible with the curvature bounds.

    From ``<c2> = <c1^2>/2 + (||F-||^2 - ||F+||^2)/(8 pi^2)``:
    the window is ``[ceil(<c1^2>/2 - C+^2/(8 pi^2)),
    floor(<c1^2>/2 + C-^2/(8 pi^2))]``, possibly empty, from the exact energies of ``bounds``.
    """
    return _c2_window(cup(c1f, c1f, manifold), _cleared_energies(bounds.plus_energy, bounds.minus_energy))


def _cleared_energies(plus_energy: Fraction, minus_energy: Fraction) -> tuple[int, int, int, int]:
    """``(h, p, q, d)`` with ``1/2 = h/d``, ``plus_energy = p/d`` and ``minus_energy = q/d``."""
    d = math.lcm(2, plus_energy.denominator, minus_energy.denominator)
    p, q = (e.numerator * (d // e.denominator) for e in (plus_energy, minus_energy))
    return d // 2, p, q, d


def _c2_window(c1_sq: int, energies: tuple[int, int, int, int]) -> range:
    """:func:`chern_weil_c2_window` given ``c1_sq = <c1^2>`` and the :func:`_cleared_energies` of the bounds.

    The ends are ``ceil((h c1_sq - p) / d)`` and ``floor((h c1_sq + q) / d)``,
    each one floor division of integers, with ``ceil(x / d) = -(-x // d)``.
    """
    h, p, q, d = energies
    return range(-((p - h * c1_sq) // d), (h * c1_sq + q) // d + 1)


def _width(r: range) -> int:
    """``len(r)`` of a step-1 range; ``len`` refuses a range longer than ``sys.maxsize``."""
    return max(0, r.stop - r.start)


@dataclass(frozen=True, slots=True)
class ReductionCandidate:
    """A fixed-point component label: subbundle, forced complement, invariants.

    Its fields are the ``reductions enumerate`` report's row, written as they
    are: the subbundle ``F`` and its forced complement ``Fperp`` as rank,
    ``c1`` coordinate tuple and ``<c2>``, which :attr:`F` and :attr:`Fperp`
    build as :class:`BundleData`.

    The unitary factor of a candidate carries the interpolation parameter
    ``tau = 1 - n/N``; the perturbation it inherits is the determinant-line
    curvature scaled by 1/N, which is analytic data with no topological
    proxy, so only ``tau`` is recorded here.
    """

    rank: int
    c1: tuple[int, ...]
    c2: int
    complement_rank: int
    complement_c1: tuple[int, ...]
    complement_c2: int
    tau: Fraction
    dim_un_part: int
    dim_asd_part: int
    total_dim: int
    stratum_k: int
    c1_norm: float

    @property
    def F(self) -> BundleData:
        return BundleData(self.rank, self.c1, self.c2)

    @property
    def Fperp(self) -> BundleData:
        return BundleData(self.complement_rank, self.complement_c1, self.complement_c2)

    def sort_key(self):
        return _SORT_KEY(self)


# the census order, (rank, stratum, c1, c2), read in C
_SORT_KEY = attrgetter("rank", "stratum_k", "c1", "c2")


@dataclass(frozen=True)
class EnumerationReport:
    """Sorted candidate census plus pruning diagnostics."""

    candidates: tuple[ReductionCandidate, ...]
    pruned_inconsistent: int
    lattice_points: int
    warnings: tuple[str, ...] = ()


def _cells(window: range, pairing: int, n: int, big_n: int, k_max: int, c2: int):
    """What rank ``n`` keeps on a class in the strata ``0..k_max``: ``(kept, pruned, cells)``.

    The class enters as its ``<c2(F)>`` window and ``pairing = <c1F . c1Fperp>``;
    ``cells`` yields each kept ``(k, <c2(F)>)`` lazily; ``kept`` and
    ``pruned`` count the kept and the pruned window entries by range
    arithmetic, so counting walks no window.  Ranks ``1..N-2`` keep every
    eligible entry in every stratum.  Rank ``N-1`` keeps the one value its
    line-bundle complement forces, in the strata where that value lies in
    the window; its other eligible entries are pruned.
    """
    eligible = window if n > 1 else range(int(0 in window))  # a line bundle has c2 = 0
    if n < big_n - 1:
        strata = range(k_max + 1 if eligible else 0)  # an empty window walks no stratum
        return _width(strata) * _width(eligible), 0, ((k, c2f) for k in strata for c2f in eligible)
    base = c2 - pairing  # the line-bundle complement forces c2(F) = base - k
    strata = range(max(0, base - eligible.stop + 1), min(k_max, base - eligible.start) + 1)
    kept = _width(strata)
    return kept, (k_max + 1) * _width(eligible) - kept, ((k, base - k) for k in strata)


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
    ``0..k_max``: all integer classes in the trace-bound ball (radius squared
    ``bounds.radius_sq`` in the harmonic metric), all ``<c2(F)>`` in the
    Chern-Weil window (line bundles only contribute ``c2 = 0``), complement
    forced by Whitney arithmetic, inconsistent rank-1 complements pruned and
    counted.  The census is finite for any positive-definite metric and
    finite bounds, and is returned sorted by (rank, stratum, c1, c2).
    Everything here is exact: the bounds were rounded once, in :class:`CurvatureBounds`.

    Candidates are built in (c1, rank, stratum, c2) order: a non-integral
    twisted Dirac index is reported for the first faulty one built, before
    a refusal of the census's size.
    """
    if bounds.b2 != manifold.b2:
        raise ValueError("harmonic metric size does not match b2")
    if bundle.rank < 2:
        raise ValueError("reductions need a bundle of rank >= 2")
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    _check_multiplicity(dirac_multiplicity)
    if len(bundle.c1) != manifold.b2 or len(s.c1s) != manifold.b2:
        raise ValueError(
            f"class length mismatch: c1(E) has {len(bundle.c1)} and c1(s) has {len(s.c1s)} "
            f"coordinates, expected b2={manifold.b2}"
        )
    notes = []
    if manifold.b1 != 0:
        notes.append(
            "b1 != 0: the product description of fixed-point components "
            "assumes a simply connected manifold"
        )
    points = lattice_points_in_ball(bounds.metric, bounds.radius_sq)
    # each point is paired through one Q c1(F); <c1(Fperp)^2> = <c1E^2> - 2<c1F . c1E> + <c1F^2>
    q, c1s, c1e = manifold.intersection_form, s.c1s.coeffs, bundle.c1.coeffs
    e_sq = cup(bundle.c1, bundle.c1, manifold)
    energies = _cleared_energies(bounds.plus_energy, bounds.minus_energy)
    # ||c1F||^2 = v^T G v over the common denominator of G: one exact int / int division
    den = math.lcm(*(x.denominator for row in bounds.metric for x in row))
    g = [[int(x * den) for x in row] for row in bounds.metric]
    big_n = bundle.rank
    # the constants of every candidate's index formulas
    ssq_minus_sig = cup(s.c1s, s.c1s, manifold) - manifold.signature
    chi = _chi(manifold)
    # one list per rank, so that the sort below gets each rank's candidates in ball order
    ranks = [(n, tau_parameter(n, big_n), big_n - n, []) for n in range(1, big_n)]
    size = pruned = 0
    for v in points:
        qv = _times(q, v)
        f_sq, f_s, f_e = sum(map(mul, v, qv)), sum(map(mul, c1s, qv)), sum(map(mul, c1e, qv))
        window, pairing = _c2_window(f_sq, energies), f_e - f_sq
        norm = None
        for n, tau, rank_perp, built in ranks:
            kept, dropped, cells = _cells(window, pairing, n, big_n, k_max, bundle.c2)
            size += kept
            pruned += dropped
            if not kept or size > MAX_CENSUS_CANDIDATES:
                continue  # past the cap the census is only counted, for the refusal below
            if norm is None:  # what every candidate of this point shares
                c1_perp, perp_sq = tuple(map(sub, c1e, v)), e_sq - 2 * f_e + f_sq
                norm = math.sqrt(sum(map(mul, v, _times(g, v))) / den)
            # _cells keeps a rank-1 complement only where its forced c2 is 0
            for k, c2f in cells:
                c2_perp = bundle.c2 - k - c2f - pairing
                dim_un = _monopole_dim(n * n, n, f_sq, f_s, c2f, ssq_minus_sig, chi, dirac_multiplicity)
                dim_asd = 0 if rank_perp == 1 else _asd_dim(
                    rank_perp * rank_perp - 1, rank_perp, perp_sq, c2_perp, chi
                )
                built.append(ReductionCandidate(
                    n, v, c2f, rank_perp, c1_perp, c2_perp, tau, dim_un, dim_asd, dim_un + dim_asd, k, norm
                ))
    if size > MAX_CENSUS_CANDIDATES:
        raise ValueError(
            f"census too large: the energy bounds c_plus = {bounds.c_plus!r} and c_minus = "
            f"{bounds.c_minus!r} with k_max = {k_max} admit {size} candidates, more than {MAX_CENSUS_CANDIDATES}"
        )
    candidates = [c for *_, built in ranks for c in built]
    candidates.sort(key=_SORT_KEY)
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

    A ``k_max`` of :data:`MAX_STRATA_ROWS` or more is refused before any row
    is built.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    if k_max >= MAX_STRATA_ROWS:
        raise ValueError(f"too many strata: k_max must be below {MAX_STRATA_ROWS}, the cap on strata rows")
    rows = []
    for k in range(k_max + 1):
        b_k = BundleData(bundle.rank, bundle.c1, bundle.c2 - k)
        expected_dim = expected_dim_pun(b_k, s, manifold, dirac_multiplicity)
        rows.append(
            StratumRow(
                k=k,
                bundle=b_k,
                expected_dim=expected_dim,
                instanton_part=expected_dim_asd(b_k, manifold),
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
