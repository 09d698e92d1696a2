"""Exact cohomology arithmetic: pinned values, identities, invariances."""

import math

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from monopoles import (
    BundleData,
    CohClass2,
    FourManifold,
    InconsistentTopologyError,
    SpincStructure,
    cup,
    dirac_index,
    expected_dim_asd,
    expected_dim_pun,
    expected_dim_un,
    p1_su,
)
from monopoles.cohomology import characteristic_defects, ldl, pun_dimension_report, un_dimension_report

from conftest import (
    characteristic_class,
    det_oracle,
    hyperbolic,
    inertia_oracle,
    k3_like,
    leading_minors,
    make_rng,
    random_manifold,
    random_symmetric_rational,
    random_unimodular,
    s4_like,
    sw_dimension_oracle,
    unimodular_manifold,
)


class TestCup:
    def test_hyperbolic_pairing(self):
        m = hyperbolic()
        assert cup(CohClass2([1, 0]), CohClass2([0, 1]), m) == 1

    def test_zero_class(self):
        m = k3_like()
        z = m.zero_class()
        x = CohClass2([1] * 22)
        assert cup(z, x, m) == 0

    def test_indefinite_diagonal(self):
        m = FourManifold("diag", 0, [[1, 0, 0], [0, 1, 0], [0, 0, -1]])
        v = CohClass2([1, 2, 3])
        assert cup(v, v, m) == 1 + 4 - 9  # hand arithmetic

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            cup(CohClass2([1]), CohClass2([1, 0]), hyperbolic())

    @given(st.lists(st.integers(-5, 5), min_size=2, max_size=2),
           st.lists(st.integers(-5, 5), min_size=2, max_size=2))
    def test_symmetric_bilinear(self, x, y):
        m = hyperbolic()
        cx, cy = CohClass2(x), CohClass2(y)
        assert cup(cx, cy, m) == cup(cy, cx, m)
        assert cup(cx + cy, cx + cy, m) == cup(cx, cx, m) + 2 * cup(cx, cy, m) + cup(cy, cy, m)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_pairings_equal_the_double_sum(self, seed):
        """cup is the sum of x_i Q_ij y_j, and the defects are every i where c . Q_i - Q_ii is odd.

        The forms have zero entries and the classes zero coordinates, which
        the shared product skips.
        """
        rng = make_rng(seed)
        m = random_manifold(rng)
        q, b2 = m.intersection_form, m.b2
        x, y, c = ((rng.integers(-3, 4, size=b2) * rng.integers(0, 2, size=b2)).tolist() for _ in range(3))
        assert cup(CohClass2(x), CohClass2(y), m) == sum(
            x[i] * q[i][j] * y[j] for i in range(b2) for j in range(b2)
        )
        defects = [i for i in range(b2) if (sum(c[j] * q[j][i] for j in range(b2)) - q[i][i]) % 2]
        assert characteristic_defects(SpincStructure(c), m) == tuple(defects)

    def test_characteristic_defects_of_classes_that_fail(self):
        diag = FourManifold("diag", 0, [[1, 0], [0, -1]])
        assert characteristic_defects(SpincStructure([0, 0]), diag) == (0, 1)
        assert characteristic_defects(SpincStructure([1, 0]), hyperbolic()) == (1,)
        assert characteristic_defects(SpincStructure([0, 0]), hyperbolic()) == ()


class TestManifoldValidation:
    def test_derived_invariants(self):
        m = k3_like()
        assert (m.signature, m.b2plus, m.euler, m.b2) == (-16, 3, 24, 22)

    def test_empty_form_is_s4_like(self):
        m = s4_like()
        assert (m.b2, m.signature, m.b2plus, m.euler) == (0, 0, 0, 2)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="not symmetric"):
            FourManifold("bad", 0, [[0, 1], [2, 0]])

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            FourManifold("bad", 0, [[1, 1], [1, 1]])

    def test_b2plus_mismatch_rejected(self):
        with pytest.raises(ValueError, match="positive index"):
            FourManifold("bad", 0, [[0, 1], [1, 0]], b2plus=2)

    @pytest.mark.parametrize("value", [True, False, 2.0, 2.5, "2"])
    def test_an_entry_that_is_no_integer_is_refused(self, value):
        """A boolean is no integer, as in the problem schema; nor is a float or a numeral string."""
        with pytest.raises(ValueError) as refused:
            BundleData(2, [0, 0], value)
        assert str(refused.value) == f"c2 must be an integer, got {value!r}"

    def test_a_boolean_rank_b1_or_form_entry_is_refused(self):
        with pytest.raises(ValueError, match=r"^rank must be an integer, got True$"):
            BundleData(True, [0], 0)
        with pytest.raises(ValueError, match=r"^b1 must be an integer, got False$"):
            FourManifold("m", False, [[True]])
        with pytest.raises(ValueError, match=r"^intersection form entry must be an integer, got True$"):
            FourManifold("m", 0, [[True]])

    def test_a_numpy_integer_is_read_as_an_int(self):
        e = BundleData(np.int64(2), [np.int64(1), 0], np.int64(3))
        assert (e.rank, e.c1.coeffs, e.c2) == (2, (1, 0), 3)
        assert {type(x) for x in (e.rank, *e.c1.coeffs, e.c2)} == {int}

    @pytest.mark.parametrize("value", [np.True_, np.False_, np.array(True)])
    def test_a_numpy_boolean_is_refused(self, value):
        """numpy's boolean is no integer either, though ``int(np.True_) == np.True_``."""
        for build, what in (
            (lambda: BundleData(value, [0], 0), "rank"),
            (lambda: BundleData(2, [value], 0), "class coordinate"),
            (lambda: FourManifold("m", 0, [[value]]), "intersection form entry"),
        ):
            with pytest.raises(ValueError) as refused:
                build()
            assert str(refused.value) == f"{what} must be an integer, got {value!r}"
        assert BundleData(np.int64(3), [Fraction(4)], 0).rank == 3

    def test_non_unimodular_warns_not_errors(self):
        m = FourManifold("Z2", 0, [[2]])
        assert any("unimodular" in w for w in m.warnings)
        assert hyperbolic().warnings == ()

    def test_signature_of_indefinite_forms(self):
        rng = make_rng(5)
        for _ in range(50):
            m = random_manifold(rng)
            eigs = np.linalg.eigvalsh(np.array(m.intersection_form, dtype=float))
            assert m.b2plus == int((eigs > 0).sum())
            assert m.signature == int((eigs > 0).sum()) - int((eigs < 0).sum())


E8 = [[2 * (i == j) for j in range(8)] for i in range(8)]
for _i, _j in ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7)):
    E8[_i][_j] = E8[_j][_i] = -1


def direct_sum(*blocks):
    m = sum(len(b) for b in blocks)
    out = [[0] * m for _ in range(m)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(row)] = row
        at += len(b)
    return out


def rebuild(low, pivots, m):
    d = list(pivots) + [0] * (m - len(pivots))
    return [[sum(low[i][t] * d[t] * low[j][t] for t in range(m)) for j in range(m)] for i in range(m)]


def _ldl_oracle(mat):
    """``ldl`` as it was before it kept integer entries: every entry a Fraction first, every multiplier divided."""
    a = [[Fraction(x) for x in row] for row in mat]
    m = len(a)
    pivots = []
    plain = True
    k = 0
    while k < m:
        piv = next((i for i in range(k, m) if a[i][i]), None)
        if piv is None:
            hit = next(((i, j) for i in range(k, m) for j in range(i + 1, m) if a[i][j]), None)
            if hit is None:
                break
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
        d = a[k][k]
        pivots.append(d)
        row_k = [(t, x) for t, x in enumerate(a[k][k + 1:], k + 1) if x]
        for i in range(k + 1, m):
            f = a[i][k] / d
            a[i][k] = f
            if f:
                for t, x in row_k:
                    a[i][t] -= f * x
        k += 1
    if not plain:
        return None, pivots
    return [[a[i][j] if j < i else Fraction(int(i == j)) for j in range(m)] for i in range(m)], pivots


class TestLdl:
    """The one exact elimination against routes written here: Laplace minors and Descartes."""

    @pytest.mark.parametrize("kind", ["dense", "zero_diagonal", "singular", "definite"])
    def test_random_symmetric_rational_matrices(self, kind):
        rng = make_rng(9)
        for _ in range(60):
            m = int(rng.integers(1, 8))
            a = random_symmetric_rational(rng, m, kind)
            low, pivots = ldl(a)
            pos, neg, null = inertia_oracle(a)
            # the pivot signs are the inertia; their count is the rank
            assert all(pivots)
            assert (sum(x > 0 for x in pivots), sum(x < 0 for x in pivots)) == (pos, neg)
            assert len(pivots) == m - null
            # the product of the pivots is the determinant, which vanishes below full rank
            assert (math.prod(pivots) if null == 0 else 0) == det_oracle(a)
            # L exactly when no leading minor up to the rank vanishes (no swap, no repair)
            minors = leading_minors(a)
            plain = all(minors[: m - null])
            assert (low is not None) == plain
            if low is not None:
                assert rebuild(low, pivots, m) == a
                assert all(low[i][i] == 1 and not any(low[i][i + 1:]) for i in range(m))
            if null == 0 and plain:  # Sylvester: the pivots are ratios of leading minors
                assert pivots == [x / y for x, y in zip(minors, [1] + minors)]
            if kind == "definite":
                assert low is not None and len(pivots) == m and min(pivots) > 0

    def test_hyperbolic_plane_takes_the_repair(self):
        low, pivots = ldl([[0, 1], [1, 0]])
        assert low is None and pivots == [2, Fraction(-1, 2)]

    def test_e8_plus_hyperbolic(self):
        form = direct_sum(E8, [[0, 1], [1, 0]])
        low, pivots = ldl(form)
        assert low is None  # the H block has a zero diagonal
        assert (sum(x > 0 for x in pivots), sum(x < 0 for x in pivots)) == (9, 1)
        assert math.prod(pivots) == -1
        m = FourManifold("E8+H", 0, form)
        assert (m.b2plus, m.signature, m.warnings) == (9, 8, ())

    def test_k3_form_two_minus_e8_plus_three_h(self):
        neg_e8 = [[-x for x in row] for row in E8]
        h = [[0, 1], [1, 0]]
        m = FourManifold("K3", 0, direct_sum(neg_e8, neg_e8, h, h, h))
        assert (m.b2plus, m.signature, m.euler, m.warnings) == (3, -16, 24, ())

    def test_positive_definite_e8_keeps_its_factor(self):
        low, pivots = ldl(E8)
        assert low is not None and min(pivots) > 0 and math.prod(pivots) == 1
        assert rebuild(low, pivots, 8) == E8

    @pytest.mark.parametrize(
        "form, pivots, plain",
        [
            ([[1, 1], [1, 1]], [1], True),  # the zero block ends the elimination
            ([[0, 0], [0, 0]], [], True),
            ([[0, 1, 0], [1, 0, 0], [0, 0, 0]], [2, Fraction(-1, 2)], False),  # repair, then zeros
            ([[0, 0], [0, 3]], [3], False),  # swap, then zeros
        ],
    )
    def test_degenerate_forms(self, form, pivots, plain):
        low, got = ldl(form)
        assert got == pivots and (low is not None) == plain
        if plain:
            assert rebuild(low, got, len(form)) == form
        with pytest.raises(ValueError, match="degenerate"):
            FourManifold("bad", 0, form)

    def test_empty_form(self):
        assert ldl([]) == ([], [])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), m=st.integers(0, 6), rational=st.booleans(), zero_diagonal=st.booleans())
    def test_equals_the_elimination_that_converts_every_entry_first(self, data, m, rational, zero_diagonal):
        """``ldl`` converts an entry only where elimination touches it, and skips zeros below a pivot;
        ``(L, pivots)`` equal the plain algorithm's, held here as the oracle, and are all Fractions."""
        entry = st.integers(-3, 3)
        if rational:
            entry = st.one_of(entry, st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4)))
        a = [[0] * m for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                a[i][j] = a[j][i] = 0 if i == j and zero_diagonal else data.draw(entry)
        low, pivots = ldl(a)
        assert (low, pivots) == _ldl_oracle(a)
        assert all(type(x) is Fraction for x in pivots + [x for row in low or [] for x in row])

    @pytest.mark.parametrize(
        "form, det", [([[2]], 2), ([[2, 1], [1, -3]], 7), (direct_sum(E8, [[-3]]), 3)]
    )
    def test_unimodularity_warning_reads_the_absolute_determinant(self, form, det):
        m = FourManifold("non-unimodular", 0, form)
        assert m.warnings == (f"intersection form is not unimodular (|det| = {det})",)


class TestBundleData:
    def test_line_bundle_c2_forced_zero(self):
        with pytest.raises(ValueError, match="line bundle"):
            BundleData(1, [0, 0], 1)

    def test_rank_positive(self):
        with pytest.raises(ValueError, match="rank"):
            BundleData(0, [0, 0], 0)


class TestP1Su:
    def test_rank2_trivial_c1(self):
        m = k3_like()
        assert p1_su(BundleData(2, m.zero_class(), 1), m) == -4

    def test_rank1_vanishes(self):
        m = hyperbolic()
        assert p1_su(BundleData(1, [3, -2], 0), m) == 0

    def test_rank3_mixed(self):
        # <c1^2> = 3 via diag(1,1,1) with c1 = (1,1,1)
        m = FourManifold("diag3", 0, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert p1_su(BundleData(3, [1, 1, 1], 2), m) == 2 * 3 - 6 * 2

    def test_character_route(self, rng):
        """Degree-4 term of ch(E)ch(E*) minus the trivial summand."""
        for _ in range(30):
            m = random_manifold(rng)
            n = int(rng.integers(1, 5))
            c1 = CohClass2(rng.integers(-3, 4, size=m.b2).tolist())
            c2 = int(rng.integers(-5, 6)) if n > 1 else 0
            e = BundleData(n, c1, c2)
            c1sq = cup(c1, c1, m)
            ch2 = Fraction(c1sq - 2 * c2, 2)
            oracle = 2 * n * ch2 - c1sq
            assert p1_su(e, m) == oracle


class TestDiracIndex:
    def test_k3_trivial_line(self):
        m = k3_like()
        assert dirac_index(BundleData(1, m.zero_class(), 0), SpincStructure(m.zero_class()), m) == 2

    def test_all_zero(self):
        m = hyperbolic()
        s = SpincStructure(m.zero_class())
        assert dirac_index(BundleData(3, m.zero_class(), 0), s, m) == 0

    def test_rank2_negative_square(self):
        m = hyperbolic()  # signature 0
        s = SpincStructure(m.zero_class())
        e = BundleData(2, [1, -2], 0)  # <c1^2> = -4
        assert dirac_index(e, s, m) == -2

    def test_non_integral_raises(self):
        m = FourManifold("odd", 0, [[1]])
        s = SpincStructure([0])  # fails the characteristic condition
        with pytest.raises(InconsistentTopologyError, match="inconsistent topological input"):
            dirac_index(BundleData(1, [1], 0), s, m)

    def test_integer_numerator_is_the_rational_formula(self):
        """The index, also as the reports' ``dirac_index``, is the Fraction formula; a non-integral one raises, named exactly."""
        rng = make_rng(29)
        raised = 0
        for _ in range(60):
            m = random_manifold(rng, b2_max=4)
            s = SpincStructure(rng.integers(-2, 3, size=m.b2).tolist())  # often not characteristic
            n = int(rng.integers(1, 5))
            e = BundleData(n, rng.integers(-2, 3, size=m.b2).tolist(), int(rng.integers(-3, 4)) if n > 1 else 0)
            c1sq, mixed, ssq = cup(e.c1, e.c1, m), cup(e.c1, s.c1s, m), cup(s.c1s, s.c1s, m)
            want = Fraction(c1sq - 2 * e.c2 + mixed, 2) + Fraction(n, 8) * (ssq - m.signature)
            if want.denominator == 1:
                assert dirac_index(e, s, m) == want
                assert un_dimension_report(e, s, m)["dirac_index"] == want
            else:
                raised += 1
                with pytest.raises(InconsistentTopologyError, match=f"index {want} is not an integer$"):
                    dirac_index(e, s, m)
        assert raised > 0

    def test_integral_on_characteristic_unimodular_data(self):
        rng = make_rng(11)
        for _ in range(40):
            m = unimodular_manifold(rng)
            c1s = characteristic_class(m, rng)
            assert characteristic_defects(SpincStructure(c1s), m) == ()
            n = int(rng.integers(1, 4))
            c2 = int(rng.integers(-4, 5)) if n > 1 else 0
            e = BundleData(n, CohClass2(rng.integers(-3, 4, size=m.b2).tolist()), c2)
            dirac_index(e, SpincStructure(c1s), m)  # must not raise


class TestExpectedDimensions:
    def test_pun_k3(self):
        m = k3_like()
        s = SpincStructure(m.zero_class())
        e = BundleData(2, m.zero_class(), 1)
        assert expected_dim_pun(e, s, m, 2) == 2
        assert expected_dim_pun(e, s, m, 1) == -1

    def test_pun_s4(self):
        m = s4_like()
        s = SpincStructure([])
        assert expected_dim_pun(BundleData(2, [], 0), s, m) == -3

    def test_pun_rejects_rank1(self):
        m = s4_like()
        with pytest.raises(ValueError, match="rank >= 2"):
            expected_dim_pun(BundleData(1, [], 0), SpincStructure([]), m)

    def test_un_k3_line(self):
        m = k3_like()
        s = SpincStructure(m.zero_class())
        c1L = [0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
        # <c1L^2> = -2
        assert cup(CohClass2(c1L), CohClass2(c1L), m) == -2
        assert expected_dim_un(BundleData(1, c1L, 0), s, m, 2) == -2

    def test_un_hyperbolic_line(self):
        m = hyperbolic()  # sigma = 0, b2+ = 1
        s = SpincStructure(m.zero_class())
        assert expected_dim_un(BundleData(1, [0, 0], 0), s, m, 2) == -2

    def test_un_s4(self):
        m = s4_like()
        assert expected_dim_un(BundleData(1, [], 0), SpincStructure([]), m) == -1

    def test_asd_classical_charges(self):
        m = hyperbolic()  # b2+ = 1
        assert expected_dim_asd(BundleData(2, m.zero_class(), 1), m) == 2

    def test_asd_s4(self):
        m = s4_like()
        assert expected_dim_asd(BundleData(2, [], 0), m) == -3
        assert expected_dim_asd(BundleData(3, [], 0), m) == -8

    def test_asd_rejects_rank1(self):
        with pytest.raises(ValueError, match="point"):
            expected_dim_asd(BundleData(1, [], 0), s4_like())

    def test_multiplicity_must_be_one_or_two(self):
        m = k3_like()
        s = SpincStructure(m.zero_class())
        e = BundleData(2, m.zero_class(), 1)
        with pytest.raises(ValueError, match="multiplicity"):
            expected_dim_pun(e, s, m, dirac_multiplicity=3)
        with pytest.raises(ValueError, match="multiplicity"):
            expected_dim_un(e, s, m, dirac_multiplicity=0)

    def test_report_terms_sum(self):
        m = k3_like()
        s = SpincStructure(m.zero_class())
        rep = pun_dimension_report(BundleData(2, m.zero_class(), 1), s, m)
        assert rep["instanton_term"] + rep["dirac_term"] == rep["expected_dim"]
        assert rep["expected_dim"] == 2


class TestStructuralIdentities:
    def test_un_vs_pun_offset(self, rng):
        """dim_un(rank N) = dim_pun(rank N) - (b2+ - b1 + 1), identically."""
        for _ in range(40):
            m = random_manifold(rng, b1_max=2)
            n = int(rng.integers(2, 5))
            e = BundleData(
                n, CohClass2(rng.integers(-2, 3, size=m.b2).tolist()), int(rng.integers(-3, 4))
            )
            s = SpincStructure(CohClass2((2 * rng.integers(-2, 3, size=m.b2)).tolist()))
            try:
                d_pun = expected_dim_pun(e, s, m)
                d_un = expected_dim_un(e, s, m)
            except InconsistentTopologyError:
                continue
            assert d_un == d_pun - (m.b2plus - m.b1 + 1)

    def test_rank1_reduces_to_classical_monopole_dimension(self):
        """Rank-1, multiplicity-2 dimension == the classical oracle, 20+ draws."""
        rng = make_rng(101)
        hits = 0
        while hits < 25:
            m = unimodular_manifold(rng)
            c1s = characteristic_class(m, rng)
            s = SpincStructure(c1s)
            c1L = CohClass2(rng.integers(-3, 4, size=m.b2).tolist())
            bundle = BundleData(1, c1L, 0)
            d = expected_dim_un(bundle, s, m, 2)
            oracle = sw_dimension_oracle(m, c1s, c1L)
            assert oracle.denominator == 1
            assert d == int(oracle)
            assert d == 2 * dirac_index(bundle, s, m) - (m.b2plus - m.b1 + 1)
            hits += 1

    def test_basis_change_invariance(self, rng):
        """All outputs invariant under a unimodular change of H^2 basis."""
        for _ in range(25):
            m = random_manifold(rng)
            b2 = m.b2
            p = random_unimodular(rng, b2)
            p_inv = np.round(np.linalg.inv(p)).astype(int)
            assert (p @ p_inv == np.eye(b2, dtype=int)).all()
            q2 = (p.T @ np.array(m.intersection_form) @ p).tolist()
            m2 = FourManifold(m.name, m.b1, q2)
            n = int(rng.integers(1, 4))
            c1 = rng.integers(-2, 3, size=b2)
            c1s = 2 * rng.integers(-1, 2, size=b2)
            c2 = int(rng.integers(-3, 4)) if n > 1 else 0
            e1 = BundleData(n, c1.tolist(), c2)
            s1 = SpincStructure(c1s.tolist())
            e2 = BundleData(n, (p_inv @ c1).tolist(), c2)
            s2 = SpincStructure((p_inv @ c1s).tolist())
            assert m2.signature == m.signature and m2.b2plus == m.b2plus
            assert p1_su(e1, m) == p1_su(e2, m2)
            try:
                d1 = dirac_index(e1, s1, m)
            except InconsistentTopologyError:
                continue
            assert d1 == dirac_index(e2, s2, m2)
            assert expected_dim_un(e1, s1, m) == expected_dim_un(e2, s2, m2)


@settings(max_examples=60, deadline=None)
@given(st.integers(-4, 4), st.integers(-4, 4))
def test_dirac_index_linear_in_c2(c2a, c2b):
    """Index shifts by exactly the c2 difference, all else fixed."""
    m = k3_like()
    s = SpincStructure(m.zero_class())
    ea = BundleData(2, m.zero_class(), c2a)
    eb = BundleData(2, m.zero_class(), c2b)
    assert dirac_index(ea, s, m) - dirac_index(eb, s, m) == c2b - c2a
