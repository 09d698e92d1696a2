"""Exact cohomology arithmetic on a closed oriented 4-manifold.

The manifold enters only through its intersection form ``Q`` on
``H^2(X;Z)/torsion`` (a nondegenerate symmetric integer matrix), its first
Betti number and the invariants derived from ``Q``.  All arithmetic here is
exact: one rational congruence diagonalization of ``Q`` (:func:`ldl`) gives
its rank, ``b2+``, the signature and ``|det Q|``.  The index formulas read a
bundle only through four integers, its rank, ``<c1^2>``, ``<c1 . c1(s)>`` and
``<c2>``, plus the constants ``<c1(s)^2>``, the signature, ``b2+`` and ``b1``;
private integer functions of those numbers hold each formula once, and the
public functions pair the classes and call them.  The twisted Dirac index is
an integer numerator over 8, checked divisible by 8 before it is returned.

Derived conventions, fixed once for the whole package:

* ``p1(TX) = 3 * signature`` (signature theorem) and
  ``euler = 2 - 2*b1 + b2``.
* Degree-two classes are integer coordinate vectors in a fixed basis of
  ``H^2/torsion``; the cup pairing is ``x^T Q y``, read as ``x . (Q y)``.
* ``<p1(su(E)), [X]> = (N-1)<c1(E)^2> - 2N <c2(E)>`` for a rank-``N``
  Hermitian bundle ``E`` (degree-4 term of ``ch(E)ch(E*)``, trivial summand
  removed).
* The index of the Dirac operator twisted by ``E`` is the degree-4 part of
  ``ch(E) e^{c1(s)/2} Ahat(TX)`` with ``Ahat = 1 - p1(TX)/24``, i.e.

      <c1(E)^2 - 2 c2(E)>/2 + <c1(E) . c1(s)>/2 + (N/8)(<c1(s)^2> - sigma).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

__all__ = [
    "CohClass2",
    "FourManifold",
    "BundleData",
    "SpincStructure",
    "InconsistentTopologyError",
    "cup",
    "p1_su",
    "dirac_index",
    "expected_dim_pun",
    "expected_dim_un",
    "expected_dim_asd",
    "pun_dimension_report",
    "un_dimension_report",
    "asd_dimension_report",
    "characteristic_defects",
    "ldl",
]


class InconsistentTopologyError(ValueError):
    """Raised when topological input cannot come from a Spin^c 4-manifold."""


def _as_int(x, what: str) -> int:
    if type(x) is int:
        return x
    # numpy integers land here; a boolean (numpy's too) is no integer, nor is a float of integral value
    boolean = isinstance(x, bool) or getattr(getattr(x, "dtype", None), "kind", "") == "b"
    try:
        if not (boolean or isinstance(x, (float, complex))) and int(x) == x:
            return int(x)
    except (TypeError, ValueError):
        pass
    raise ValueError(f"{what} must be an integer, got {x!r}")


def _symmetric_matrix(rows: Sequence[Sequence], convert, what: str) -> tuple[tuple, ...]:
    """Validate a symmetric matrix, entries by ``convert(x, what)``; 0 x 0 is allowed (b2 = 0)."""
    entry = f"{what} entry"
    mat = tuple(tuple(convert(x, entry) for x in row) for row in rows)
    m = len(mat)
    if any(len(row) != m for row in mat):
        raise ValueError(f"{what} must be square")
    for i in range(m):
        for j in range(i + 1, m):
            if mat[i][j] != mat[j][i]:
                raise ValueError(f"{what} is not symmetric at ({i},{j})")
    return mat


_ZERO, _ONE = Fraction(0), Fraction(1)  # shared entries of L: a Fraction is immutable


def ldl(mat: Sequence[Sequence]) -> tuple[list[list[Fraction]] | None, list[Fraction]]:
    """Exact congruence diagonalization ``mat = L D L^T`` over Q.

    Returns ``(L, pivots)``: the nonzero diagonal entries of ``D`` in
    elimination order (``D`` pads them with zeros), and the unit
    lower-triangular ``L`` when no pivot needed a symmetric swap or a
    repair, else ``None``.  A zero pivot is swapped for the next nonzero
    diagonal entry; when the whole remaining diagonal is zero, a nonzero
    off-diagonal ``a_ij`` is repaired by adding row and column ``j`` to row
    and column ``i`` (which puts ``2*a_ij`` on the diagonal); a remaining
    block of zeros ends the elimination.

    Every step is a congruence of determinant +-1, so the pivots carry the
    inertia by sign (Sylvester), their count is the rank and, when that is
    full, their product is ``det(mat)``.  A positive-definite matrix never
    needs a swap or a repair, so its ``L`` is always returned.

    An integer entry stays an integer until elimination updates it, and a
    zero below a pivot costs no division; every entry of ``L`` and every
    pivot is returned as a :class:`~fractions.Fraction`.
    """
    a = [[x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row] for row in mat]
    m = len(a)
    pivots = []
    plain = True
    k = 0
    while k < m:
        piv = next((i for i in range(k, m) if a[i][i]), None)
        if piv is None:
            hit = next(((i, j) for i in range(k, m) for j in range(i + 1, m) if a[i][j]), None)
            if hit is None:
                break  # the remaining block is zero
            i, j = hit
            for t in range(k, m):
                a[i][t] += a[j][t]
            for t in range(k, m):
                a[t][i] += a[t][j]
            plain = False
            continue
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            for row in a:
                row[k], row[piv] = row[piv], row[k]
            plain = False
        d = Fraction(a[k][k])
        pivots.append(d)
        # Schur complement of the pivot, over the nonzero entries of its row and column;
        # column k keeps the multipliers, which are the k-th column of L
        row_k = [(t, x) for t, x in enumerate(a[k][k + 1:], k + 1) if x]
        for i in range(k + 1, m):
            if a[i][k]:
                f = a[i][k] = a[i][k] / d
                for t, x in row_k:
                    a[i][t] -= f * x
        k += 1
    if not plain:
        return None, pivots
    # below the diagonal: the multipliers, and zeros, which may still be integers
    return [[(a[i][j] or _ZERO) if j < i else (_ONE if i == j else _ZERO) for j in range(m)] for i in range(m)], pivots


@dataclass(frozen=True)
class CohClass2:
    """A degree-2 integral class, as coordinates in a fixed basis of H^2/torsion."""

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int]):
        object.__setattr__(
            self, "coeffs", tuple(_as_int(c, "class coordinate") for c in coeffs)
        )

    def __len__(self) -> int:
        return len(self.coeffs)

    def __add__(self, other: "CohClass2") -> "CohClass2":
        if len(other) != len(self):
            raise ValueError("class length mismatch")
        return CohClass2(a + b for a, b in zip(self.coeffs, other.coeffs))

    def __sub__(self, other: "CohClass2") -> "CohClass2":
        if len(other) != len(self):
            raise ValueError("class length mismatch")
        return CohClass2(a - b for a, b in zip(self.coeffs, other.coeffs))

    @staticmethod
    def zero(b2: int) -> "CohClass2":
        return CohClass2((0,) * b2)


@dataclass
class FourManifold:
    """Topological input: intersection form plus Betti data.

    ``signature``, ``euler`` and (if not supplied) ``b2plus`` are derived in
    ``__post_init__`` from exact arithmetic on the intersection form.  A
    supplied ``b2plus`` that disagrees with the positive inertia index of the
    form is rejected.  Non-unimodularity (``|det Q| != 1``) is recorded as a
    warning, not an error.
    """

    name: str
    b1: int
    intersection_form: Sequence[Sequence[int]]
    b2plus: int | None = None
    signature: int = field(init=False)
    euler: int = field(init=False)
    warnings: tuple[str, ...] = field(init=False, default=())

    def __post_init__(self):
        self.b1 = _as_int(self.b1, "b1")
        if self.b1 < 0:
            raise ValueError("b1 must be nonnegative")
        self.intersection_form = _symmetric_matrix(self.intersection_form, _as_int, "intersection form")
        _, pivots = ldl(self.intersection_form)
        if len(pivots) < self.b2:
            raise ValueError(
                "intersection form is degenerate over Q (determinant 0)"
            )
        pos = sum(d > 0 for d in pivots)
        neg = self.b2 - pos
        if self.b2plus is None:
            self.b2plus = pos
        else:
            self.b2plus = _as_int(self.b2plus, "b2plus")
            if self.b2plus != pos:
                raise ValueError(
                    f"b2plus={self.b2plus} does not match the positive index "
                    f"{pos} of the intersection form"
                )
        self.signature = pos - neg
        self.euler = 2 - 2 * self.b1 + self.b2
        notes = []
        det = abs(math.prod(pivots))
        if det != 1:
            notes.append(f"intersection form is not unimodular (|det| = {det})")
        self.warnings = tuple(notes)

    @property
    def b2(self) -> int:
        return len(self.intersection_form)

    def zero_class(self) -> CohClass2:
        return CohClass2.zero(self.b2)


@dataclass(frozen=True)
class BundleData:
    """A Hermitian bundle up to isomorphism: (rank, c1, <c2,[X]>).

    On a closed oriented 4-manifold these three data classify unitary
    bundles, so no further structure is stored.  A line bundle has no
    second Chern class: rank 1 forces ``c2 == 0``.
    """

    rank: int
    c1: CohClass2
    c2: int

    def __init__(self, rank: int, c1, c2: int):
        rank = _as_int(rank, "rank")
        if rank < 1:
            raise ValueError("bundle rank must be >= 1")
        if not isinstance(c1, CohClass2):
            c1 = CohClass2(c1)
        c2 = _as_int(c2, "c2")
        if rank == 1 and c2 != 0:
            raise ValueError("a line bundle has <c2,[X]> = 0")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2", c2)


@dataclass(frozen=True)
class SpincStructure:
    """A Spin^c structure reduced to the class c1 of its positive spinor bundle."""

    c1s: CohClass2

    def __init__(self, c1s):
        if not isinstance(c1s, CohClass2):
            c1s = CohClass2(c1s)
        object.__setattr__(self, "c1s", c1s)


def _times(rows: Sequence[Sequence[int]], v: Sequence[int]) -> list[int]:
    """The integer vector ``M v`` of a symmetric ``M``, exactly: ``v_i`` times row ``i``, summed.

    Reads only the rows at the nonzero entries of ``v`` and only their
    nonzero entries: classes are mostly zeros and unimodular forms sparse.
    """
    out = [0] * len(v)
    for i, x in enumerate(v):
        if x:
            for j, q in enumerate(rows[i]):
                if q:
                    out[j] += x * q
    return out


def cup(x: CohClass2, y: CohClass2, manifold: FourManifold) -> int:
    """Evaluate the cup product pairing <x . y, [X]> = x^T Q y, exactly."""
    if not isinstance(x, CohClass2):
        x = CohClass2(x)
    if not isinstance(y, CohClass2):
        y = CohClass2(y)
    b2 = manifold.b2
    if len(x) != b2 or len(y) != b2:
        raise ValueError(
            f"class length mismatch: got {len(x)} and {len(y)}, expected b2={b2}"
        )
    return sum(a * b for a, b in zip(x.coeffs, _times(manifold.intersection_form, y.coeffs)))


def characteristic_defects(s: SpincStructure, manifold: FourManifold) -> tuple[int, ...]:
    """Basis indices where the characteristic condition c1(s).x = x.x (mod 2) fails.

    An empty result means the class passes the mod-2 test.  Failure is
    advisory only; callers surface it as a warning.
    """
    q = manifold.intersection_form
    if len(s.c1s) != manifold.b2:
        raise ValueError("Spin^c class length does not match b2")
    pairings = _times(q, s.c1s.coeffs)
    return tuple(i for i, x in enumerate(pairings) if (x - q[i][i]) % 2)


def _p1_su(rank: int, c1_sq: int, c2: int) -> int:
    """``(N-1)<c1^2> - 2N<c2>``: :func:`p1_su` from its integers."""
    return (rank - 1) * c1_sq - 2 * rank * c2


def _dirac_index(rank: int, c1_sq: int, c1_s: int, c2: int, ssq_minus_sig: int) -> int:
    """:func:`dirac_index` from its integers, with ``ssq_minus_sig = <c1(s)^2> - sigma``.

    Eight times the index is the integer ``4(<c1^2> - 2<c2> + <c1 . c1(s)>)
    + N(<c1(s)^2> - sigma)``; one not divisible by 8 raises.
    """
    num = 4 * (c1_sq - 2 * c2 + c1_s) + rank * ssq_minus_sig
    if num % 8:
        raise InconsistentTopologyError(
            "inconsistent topological input: twisted Dirac index "
            f"{Fraction(num, 8)} is not an integer"
        )
    return num // 8


def _asd_dim(group_dim: int, rank: int, c1_sq: int, c2: int, chi: int) -> int:
    """``-2<p1(su(E))> - dim(G) chi`` with ``chi = b2+ - b1 + 1``.

    The deformation index of the connections: ``dim(G) = N^2 - 1`` for the
    projective (instanton) part, ``N^2`` for the unitary one.
    """
    return -2 * _p1_su(rank, c1_sq, c2) - group_dim * chi


def _monopole_dim(
    group_dim: int, rank: int, c1_sq: int, c1_s: int, c2: int, ssq_minus_sig: int, chi: int, mult: int
) -> int:
    """:func:`_asd_dim` plus ``mult`` times the twisted Dirac index."""
    dirac = _dirac_index(rank, c1_sq, c1_s, c2, ssq_minus_sig)
    return _asd_dim(group_dim, rank, c1_sq, c2, chi) + mult * dirac


def _chi(manifold: FourManifold) -> int:
    return manifold.b2plus - manifold.b1 + 1


def _dirac_args(bundle: BundleData, s: SpincStructure, manifold: FourManifold) -> tuple[int, ...]:
    """``(N, <c1^2>, <c1 . c1(s)>, <c2>, <c1(s)^2> - sigma)``: all the index formulas read."""
    c1 = bundle.c1
    return (
        bundle.rank,
        cup(c1, c1, manifold),
        cup(c1, s.c1s, manifold),
        bundle.c2,
        cup(s.c1s, s.c1s, manifold) - manifold.signature,
    )


def _check_multiplicity(dirac_multiplicity: int) -> None:
    if dirac_multiplicity not in (1, 2):
        raise ValueError("dirac_multiplicity must be 1 or 2")


def p1_su(bundle: BundleData, manifold: FourManifold) -> int:
    """<p1(su(E)), [X]> for the traceless endomorphism bundle of E.

    Equals ``(N-1)<c1^2> - 2N<c2>``; for a line bundle su(E) has rank zero
    and the pairing is 0.
    """
    return _p1_su(bundle.rank, cup(bundle.c1, bundle.c1, manifold), bundle.c2)


def dirac_index(bundle: BundleData, s: SpincStructure, manifold: FourManifold) -> int:
    """Complex index of the Dirac operator twisted by the bundle.

    Computed exactly; a non-integral value means the data are not realizable
    on a Spin^c 4-manifold (for instance a failed characteristic condition)
    and raises :class:`InconsistentTopologyError`.
    """
    return _dirac_index(*_dirac_args(bundle, s, manifold))


def expected_dim_pun(
    bundle: BundleData,
    s: SpincStructure,
    manifold: FourManifold,
    dirac_multiplicity: int = 2,
) -> int:
    """Expected dimension of the projective-unitary monopole moduli space.

    ``-2<p1(su(E))> - (N^2-1)(b2+ - b1 + 1) + m * ind(Dirac)`` with the Dirac
    multiplicity ``m`` defaulting to 2 (the convention that reduces to the
    classical rank-1 dimension; ``m=1`` remains selectable).
    """
    n = bundle.rank
    if n < 2:
        raise ValueError("projective monopole dimension needs rank >= 2")
    _check_multiplicity(dirac_multiplicity)
    return _monopole_dim(n * n - 1, *_dirac_args(bundle, s, manifold), _chi(manifold), dirac_multiplicity)


def expected_dim_un(
    bundle: BundleData,
    s: SpincStructure,
    manifold: FourManifold,
    dirac_multiplicity: int = 2,
) -> int:
    """Expected dimension of the full unitary monopole moduli space.

    Same shape as :func:`expected_dim_pun` with ``n^2`` in place of
    ``N^2 - 1``; defined for every rank >= 1.  At rank 1 with multiplicity 2
    this reproduces the classical abelian monopole dimension.
    """
    n = bundle.rank
    if n < 1:
        raise ValueError("rank must be >= 1")
    _check_multiplicity(dirac_multiplicity)
    return _monopole_dim(n * n, *_dirac_args(bundle, s, manifold), _chi(manifold), dirac_multiplicity)


def expected_dim_asd(bundle: BundleData, manifold: FourManifold) -> int:
    """Index of the anti-self-duality deformation operator, rank >= 2.

    ``-2<p1(su(F))> - (m^2-1)(b2+ - b1 + 1)``.  Rank 1 is rejected: the
    projective connection space of a line bundle is a single point and
    callers should use dimension 0 directly.
    """
    if bundle.rank < 2:
        raise ValueError(
            "instanton dimension needs rank >= 2; a rank-1 projective "
            "connection space is a point (dimension 0)"
        )
    m = bundle.rank
    return _asd_dim(m * m - 1, m, cup(bundle.c1, bundle.c1, manifold), bundle.c2, _chi(manifold))


def _index_terms(bundle, s, manifold, dirac_multiplicity, group_dim, term_name) -> dict:
    """The terms of a monopole dimension whose connections have a structure group of ``group_dim``."""
    args = _dirac_args(bundle, s, manifold)
    rank, c1_sq, _, c2, _ = args
    terms = {
        "p1_su": _p1_su(rank, c1_sq, c2),
        "dirac_index": _dirac_index(*args),
        "dirac_multiplicity": dirac_multiplicity,
        "b2plus": manifold.b2plus,
        "b1": manifold.b1,
        "signature": manifold.signature,
        "euler": manifold.euler,
    }
    terms[term_name] = _asd_dim(group_dim, rank, c1_sq, c2, _chi(manifold))
    terms["dirac_term"] = dirac_multiplicity * terms["dirac_index"]
    return terms


def pun_dimension_report(
    bundle: BundleData,
    s: SpincStructure,
    manifold: FourManifold,
    dirac_multiplicity: int = 2,
) -> dict:
    """Full term-by-term breakdown of :func:`expected_dim_pun`."""
    n = bundle.rank
    terms = _index_terms(bundle, s, manifold, dirac_multiplicity, n * n - 1, "instanton_term")
    terms["expected_dim"] = expected_dim_pun(bundle, s, manifold, dirac_multiplicity)
    return terms


def un_dimension_report(
    bundle: BundleData,
    s: SpincStructure,
    manifold: FourManifold,
    dirac_multiplicity: int = 2,
) -> dict:
    """Full term-by-term breakdown of :func:`expected_dim_un`."""
    n = bundle.rank
    terms = _index_terms(bundle, s, manifold, dirac_multiplicity, n * n, "curvature_term")
    terms["expected_dim"] = expected_dim_un(bundle, s, manifold, dirac_multiplicity)
    return terms


def asd_dimension_report(bundle: BundleData, manifold: FourManifold) -> dict:
    """Term breakdown of :func:`expected_dim_asd`."""
    return {
        "p1_su": p1_su(bundle, manifold),
        "b2plus": manifold.b2plus,
        "b1": manifold.b1,
        "expected_dim": expected_dim_asd(bundle, manifold),
    }
