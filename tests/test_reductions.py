"""Reduction census, Whitney arithmetic, strata and the tau=0 verdict."""

import dataclasses
import itertools
import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monopoles import (
    BundleData,
    CohClass2,
    CurvatureBounds,
    FourManifold,
    InconsistentCandidateError,
    InconsistentTopologyError,
    SpincStructure,
    chern_weil_c2_window,
    component_dims,
    enumerate_reductions,
    generic_tau0_vanishing,
    tau_parameter,
    uhlenbeck_strata,
    whitney_complement,
)
from monopoles import reductions
from monopoles.cli import main
from monopoles.reductions import BallTooLargeError, ReductionCandidate, identity_metric, lattice_points_in_ball

from conftest import (
    brute_force_ball,
    characteristic_class,
    hyperbolic,
    inertia_oracle,
    k3_like,
    k3_surface,
    make_rng,
    random_symmetric_rational,
    random_unimodular,
    s4_like,
    unimodular_manifold,
)
from test_pinned_reports import BOUNDED_PROBLEM


class TestWhitneyComplement:
    def test_rank1_complement_with_forced_c2_rejected(self):
        m = s4_like()
        e = BundleData(2, [], 1)
        f = BundleData(1, [], 0)
        with pytest.raises(InconsistentCandidateError, match="no such line bundle"):
            whitney_complement(e, f, m)

    def test_improper_subbundle_rejected(self):
        m = hyperbolic()
        e = BundleData(2, [0, 0], 1)
        with pytest.raises(ValueError, match="rank"):
            whitney_complement(e, e, m)

    def test_rank3_hand_arithmetic(self):
        m = FourManifold("diag", 0, [[1, 0], [0, -1]])
        e = BundleData(3, [0, 0], 2)
        f = BundleData(1, [1, 0], 0)
        perp = whitney_complement(e, f, m)
        assert perp.rank == 2
        assert perp.c1.coeffs == (-1, 0)
        assert perp.c2 == 2 - 0 - (1 * (-1))  # pairing <c1F, c1Fperp> = -1

    def test_whitney_identities_hold(self, rng):
        m = hyperbolic()
        for k in (0, 1, 3):
            e = BundleData(4, [1, -1], 5)
            f = BundleData(2, [2, 1], int(rng.integers(-3, 4)))
            perp = whitney_complement(e, f, m, k)
            assert (f.c1 + perp.c1).coeffs == e.c1.coeffs
            from monopoles import cup

            total = f.c2 + perp.c2 + cup(f.c1, perp.c1, m)
            assert total == e.c2 - k


class TestTauParameter:
    @pytest.mark.parametrize(
        "n,N,expected",
        [(1, 2, Fraction(1, 2)), (1, 3, Fraction(2, 3)), (4, 5, Fraction(1, 5))],
    )
    def test_values(self, n, N, expected):
        assert tau_parameter(n, N) == expected

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            tau_parameter(2, 2)
        with pytest.raises(ValueError):
            tau_parameter(0, 2)

    def test_always_strictly_interior(self):
        for big_n in range(2, 8):
            for n in range(1, big_n):
                t = tau_parameter(n, big_n)
                assert 0 < t < 1


class TestComponentDims:
    def test_rank1_complement_contributes_zero(self):
        m = k3_like()
        s = SpincStructure(m.zero_class())
        e = BundleData(2, m.zero_class(), 0)
        f = BundleData(1, m.zero_class(), 0)
        dim_un, dim_asd, total = component_dims(e, s, m, f)
        assert dim_asd == 0
        assert total == dim_un

    def test_k3_line_subbundle(self):
        m = k3_like()
        s = SpincStructure(m.zero_class())
        e = BundleData(2, m.zero_class(), 1)
        c1L = [0, 0, 0, 1, 1] + [0] * 17  # <c1L^2> = -2
        f = BundleData(1, c1L, 0)
        dim_un, dim_asd, _ = component_dims(e, s, m, f)
        assert (dim_un, dim_asd) == (-2, 0)

    def test_s4_rank3(self):
        m = s4_like()
        s = SpincStructure([])
        e = BundleData(3, [], 0)
        f = BundleData(1, [], 0)
        dim_un, dim_asd, total = component_dims(e, s, m, f)
        assert (dim_un, dim_asd, total) == (-1, -3, -4)


class TestChernWeilWindow:
    def test_zero_bounds_force_half_square(self):
        m = FourManifold("diag", 0, [[1, 0], [0, 1]])
        bounds = CurvatureBounds(1.0, 0.0, 0.0, identity_metric(2))
        w = chern_weil_c2_window(CohClass2([1, 1]), m, bounds)  # <c1^2> = 2
        assert list(w) == [1]

    def test_odd_square_gives_empty_window(self):
        m = FourManifold("diag", 0, [[1, 0], [0, 1]])
        bounds = CurvatureBounds(1.0, 0.0, 0.0, identity_metric(2))
        w = chern_weil_c2_window(CohClass2([1, 0]), m, bounds)  # <c1^2> = 1
        assert list(w) == []

    def test_asd_energy_widens_downward_bound(self):
        m = hyperbolic()
        c_minus = 2 * math.pi * math.sqrt(2.0)  # c_minus^2 / (8 pi^2) = 1
        bounds = CurvatureBounds(1.0, 0.0, c_minus, identity_metric(2))
        w = chern_weil_c2_window(CohClass2([0, 0]), m, bounds)
        assert list(w) == [0, 1]

    @given(
        c1_sq=st.integers(-60, 60),
        plus=st.fractions(0, 40, max_denominator=64),
        minus=st.fractions(0, 40, max_denominator=64),
        on_integer=st.tuples(st.booleans(), st.booleans()),
    )
    def test_integer_window_equals_the_fraction_formula(self, c1_sq, plus, minus, on_integer):
        """The cleared-integer window is the Fraction formula, also where an end is an integer."""
        half = Fraction(c1_sq, 2)
        if on_integer[0]:
            plus = half - math.floor(half - plus)  # <c1^2>/2 - plus is an integer, plus only grows
        if on_integer[1]:
            minus = math.ceil(half + minus) - half
        want = range(math.ceil(half - plus), math.floor(half + minus) + 1)
        assert reductions._c2_window(c1_sq, reductions._cleared_energies(plus, minus)) == want


class TestCurvatureBoundsRounding:
    """The bounds round once; the census reads their exact radius and energies."""

    def test_exact_values_are_the_float_expressions_as_rationals(self):
        bounds = CurvatureBounds(12, 4, 9, identity_metric(2))
        assert bounds.radius_sq == Fraction(12 / (2 * math.pi)) ** 2
        assert bounds.plus_energy == Fraction(16.0 / (8 * math.pi * math.pi))
        assert bounds.minus_energy == Fraction(81.0 / (8 * math.pi * math.pi))
        settable = [f.name for f in dataclasses.fields(CurvatureBounds) if f.init]
        assert settable == ["c_trace", "c_plus", "c_minus", "metric"]

    @pytest.mark.parametrize(
        "name, c_trace, c_plus, c_minus",
        [
            ("c_trace", math.inf, 0.0, 0.0),
            ("c_trace", -1.0, 0.0, 0.0),
            ("c_trace", 1e155, 0.0, 0.0),
            ("c_plus", 1.0, math.nan, 0.0),
            ("c_plus", 1.0, 1e200, 0.0),
            ("c_minus", 1.0, 0.0, 1.4e154),
        ],
    )
    def test_refuses_a_bound_it_cannot_round_naming_it(self, name, c_trace, c_plus, c_minus):
        with pytest.raises(ValueError, match=f"^{name} "):
            CurvatureBounds(c_trace, c_plus, c_minus, identity_metric(2))

    def test_largest_bounds_keep_a_finite_square(self):
        c = 1.3e154
        bounds = CurvatureBounds(c, c, c, identity_metric(1))
        assert bounds.plus_energy == bounds.minus_energy == Fraction(c * c / (8 * math.pi * math.pi))

    def test_pruned_window_longer_than_maxsize_is_counted_exactly(self):
        m = hyperbolic()
        e = BundleData(3, m.zero_class(), 0)
        bounds = CurvatureBounds(1.0, 0.0, 1e11, identity_metric(2))
        rep = enumerate_reductions(m, e, SpincStructure(m.zero_class()), bounds, k_max=1)
        assert rep.lattice_points == 1  # the origin: its window is [0, floor(C-^2 / 8 pi^2)]
        window = math.floor(bounds.minus_energy) + 1
        assert window > sys.maxsize
        kept = sum(c.F.rank == 2 for c in rep.candidates)
        assert kept == 1  # c2(F) is forced to -k, inside the window only at k = 0
        assert rep.pruned_inconsistent == 2 * window - kept


class TestLatticeEnumeration:
    def test_matches_brute_force_on_random_instances(self):
        rng = make_rng(77)
        for _ in range(25):
            b2 = int(rng.integers(1, 5))
            a = rng.integers(-2, 3, size=(b2, b2))
            g = a.T @ a + np.eye(b2, dtype=int) * int(rng.integers(1, 4))
            metric = tuple(tuple(Fraction(int(x)) for x in row) for row in g)
            radius_sq = Fraction(int(rng.integers(0, 26)))
            fast = lattice_points_in_ball(metric, radius_sq)
            assert len(fast) <= 10_000
            assert fast == brute_force_ball(metric, radius_sq)

    def test_zero_radius_is_origin_only(self):
        assert lattice_points_in_ball(identity_metric(3), 0) == [(0, 0, 0)]

    def test_rational_metric_denominators_cleared_exactly(self):
        g = (
            (Fraction(1), Fraction(1, 2)),
            (Fraction(1, 2), Fraction(2, 3)),
        )
        got = lattice_points_in_ball(g, Fraction(5, 2))
        assert got == brute_force_ball(g, Fraction(5, 2))
        # boundary point: v = (1, -1) has v^T G v = 1 - 1 + 2/3 = 2/3 <= 5/2
        assert (1, -1) in got

    def test_a_float_metric_entry_is_taken_exactly(self):
        # 0.1 as a float is 0.1000000000000000055...: v = 1 lies outside the ball of radius^2 1/10
        assert lattice_points_in_ball(((0.1,),), Fraction(1, 10)) == [(0,)]
        assert lattice_points_in_ball(((Fraction(1, 10),),), Fraction(1, 10)) == [(-1,), (0,), (1,)]

    @pytest.mark.parametrize("entry", [True, "1"])
    def test_a_boolean_or_string_metric_entry_is_refused(self, entry):
        with pytest.raises(ValueError, match=r"^metric entry must be a rational number"):
            lattice_points_in_ball(((entry,),), 1)

    def test_matches_brute_force_on_sheared_rational_metrics(self):
        """G = S^T D S with non-integer shears and diagonal, radius^2 on the boundary."""
        rng = make_rng(2024)
        for _ in range(12):
            b2 = int(rng.integers(1, 6))
            shear = [[Fraction(int(i == j)) for j in range(b2)] for i in range(b2)]
            for i in range(b2):
                for j in range(i + 1, b2):
                    shear[i][j] = Fraction(int(rng.integers(-1, 2)), int(rng.integers(2, 4)))
            diag = [Fraction(2 * int(rng.integers(1, 4)) + 1, 2) for _ in range(b2)]
            metric = tuple(
                tuple(sum(shear[k][i] * diag[k] * shear[k][j] for k in range(b2)) for j in range(b2))
                for i in range(b2)
            )
            assert metric[0][0].denominator > 1

            def norm_sq(v):
                return sum(v[i] * metric[i][j] * v[j] for i in range(b2) for j in range(b2))

            # radius^2 attained by a short vector, so the ball has boundary points
            v = tuple(int(x) for x in rng.integers(-1, 2, size=b2))
            radius_sq = norm_sq(v)
            got = lattice_points_in_ball(metric, radius_sq)
            assert got == brute_force_ball(metric, radius_sq)
            assert v in got and tuple(-x for x in v) in got

    def test_k3_unit_ball_is_origin_and_basis_vectors(self):
        got = lattice_points_in_ball(identity_metric(22), 1)
        expected = [(0,) * 22] + [
            tuple(sign * int(i == j) for j in range(22)) for i in range(22) for sign in (1, -1)
        ]
        assert len(got) == 45
        assert got == sorted(expected)

    def test_negative_radius_is_empty(self):
        assert lattice_points_in_ball(identity_metric(3), Fraction(-1, 4)) == []

    def test_ball_cap_admits_a_full_ball_and_refuses_one_point_more(self, monkeypatch):
        g = ((Fraction(2), Fraction(1, 2)), (Fraction(1, 2), Fraction(3)))
        ball = lattice_points_in_ball(g, 40)
        monkeypatch.setattr(reductions, "MAX_BALL_POINTS", len(ball))
        assert lattice_points_in_ball(g, 40) == ball
        monkeypatch.setattr(reductions, "MAX_BALL_POINTS", len(ball) - 1)
        with pytest.raises(BallTooLargeError, match=rf"^ball too large: more than {len(ball) - 1} lattice points "):
            lattice_points_in_ball(g, 40)

    def test_b2_zero_is_the_empty_vector(self):
        assert lattice_points_in_ball((), 0) == [()]
        assert lattice_points_in_ball((), 5) == [()]

    def test_rejects_indefinite_metric(self):
        with pytest.raises(ValueError, match="positive definite"):
            lattice_points_in_ball(((Fraction(1), Fraction(0)), (Fraction(0), Fraction(-1))), 4)


class TestPositivity:
    """One predicate decides positive-definiteness for the bounds and for the ball."""

    @staticmethod
    def accepted(metric) -> tuple[bool, bool]:
        verdicts = []
        for build in (
            lambda: CurvatureBounds(1.0, 0.0, 0.0, metric),
            lambda: lattice_points_in_ball(metric, 2),
        ):
            try:
                build()
                verdicts.append(True)
            except ValueError as exc:
                assert "positive definite" in str(exc)
                verdicts.append(False)
        return tuple(verdicts)

    @pytest.mark.parametrize(
        "metric, definite",
        [
            ([[2, -1], [-1, 2]], True),
            ([[1, 1], [1, 1]], False),  # singular, semidefinite: one positive pivot
            ([[0, 0], [0, 0]], False),
            ([[1, 0], [0, 0]], False),
            ([[0, 1], [1, 0]], False),  # repaired, indefinite
            ([[-1, 0], [0, -2]], False),
            ([[1, 0, 0], [0, 1, 0], [0, 0, -1]], False),
        ],
    )
    def test_named_metrics(self, metric, definite):
        assert self.accepted(metric) == (definite, definite)

    @pytest.mark.parametrize("kind", ["dense", "zero_diagonal", "singular", "definite"])
    def test_random_metrics_against_the_inertia_oracle(self, kind):
        rng = make_rng(31)
        for _ in range(40):
            m = int(rng.integers(1, 6))
            metric = random_symmetric_rational(rng, m, kind)
            definite = inertia_oracle(metric) == (m, 0, 0)
            assert self.accepted(metric) == (definite, definite)
            if definite:
                assert lattice_points_in_ball(metric, 2) == brute_force_ball(metric, Fraction(2))


def _random_census(rng, max_rank):
    """A census on a random unimodular form with a characteristic Spin^c class, rank 2..max_rank."""
    m = unimodular_manifold(rng, b2_max=4)
    b2 = m.b2
    s = SpincStructure(characteristic_class(m, rng))
    big_n = int(rng.integers(2, max_rank + 1))
    e = BundleData(
        big_n,
        CohClass2(rng.integers(-1, 2, size=b2).tolist()),
        int(rng.integers(-2, 3)),
    )
    gmat = rng.integers(-1, 2, size=(b2, b2))
    g = tuple(
        tuple(Fraction(int(x)) for x in row)
        for row in (gmat.T @ gmat + 2 * np.eye(b2, dtype=int))
    )
    bounds = CurvatureBounds(
        float(rng.uniform(0, 4 * math.pi)),
        float(rng.uniform(0, 6)),
        float(rng.uniform(0, 12)),
        g,
    )
    return m, s, e, bounds


def _assert_object_route(m, s, e, bounds, k_max):
    """The census of ``bounds``, each candidate checked against the object-level functions."""
    rep = enumerate_reductions(m, e, s, bounds, k_max=k_max)
    g = bounds.metric
    for c in rep.candidates:
        f, k, v = c.F, c.stratum_k, c.F.c1.coeffs
        assert c.Fperp == whitney_complement(e, f, m, k)
        assert (c.dim_un_part, c.dim_asd_part, c.total_dim) == component_dims(e, s, m, f, k)
        support = [(i, x) for i, x in enumerate(v) if x]
        norm_sq = sum(x * g[i][j] * y for i, x in support for j, y in support)
        assert c.c1_norm == math.sqrt(float(norm_sq))
    return rep


def _basic_census():
    m = hyperbolic()
    s = SpincStructure(m.zero_class())
    e = BundleData(2, m.zero_class(), 0)
    bounds = CurvatureBounds(2 * math.pi, 0.0, 0.0, identity_metric(2))
    return m, s, e, bounds


class TestEnumerateReductions:
    def test_unit_ball_census(self):
        m, s, e, bounds = _basic_census()
        rep = enumerate_reductions(m, e, s, bounds)
        c1s = [c.F.c1.coeffs for c in rep.candidates]
        assert c1s == sorted(c1s)
        assert set(c1s) == {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}
        assert len(rep.candidates) == 5
        assert all(c.tau == Fraction(1, 2) for c in rep.candidates)
        assert all(c.Fperp.rank == 1 and c.dim_asd_part == 0 for c in rep.candidates)

    def test_zero_trace_bound_keeps_origin_only(self):
        m, s, e, _ = _basic_census()
        bounds = CurvatureBounds(0.0, 0.0, 0.0, identity_metric(2))
        rep = enumerate_reductions(m, e, s, bounds)
        assert [c.F.c1.coeffs for c in rep.candidates] == [(0, 0)]

    def test_rank2_bundle_gives_rank1_subbundles_only(self):
        m, s, e, bounds = _basic_census()
        rep = enumerate_reductions(m, e, s, bounds, k_max=2)
        assert all(c.F.rank == 1 for c in rep.candidates)

    def test_census_against_brute_force(self):
        """Independent re-enumeration: ball oracle + window + Whitney filter."""
        rng = make_rng(123)
        instances = [_random_census(rng, max_rank=3) for _ in range(10)]
        # N = 2 with zero energies: the window of c1 = (1, 1) is [1], which excludes 0
        m = FourManifold("diag", 0, [[1, 0], [0, 1]])
        instances.append(
            (m, SpincStructure([1, 1]), BundleData(2, [0, 0], 0),
             CurvatureBounds(3 * math.pi, 0.0, 0.0, identity_metric(2)))
        )
        assert list(chern_weil_c2_window(CohClass2([1, 1]), m, instances[-1][3])) == [1]
        skipped = 0  # censuses whose rank N-1 keeps no candidate in the last stratum
        for (m, s, e, bounds), k_max in itertools.product(instances, (1, 9)):
            rep = enumerate_reductions(m, e, s, bounds, k_max=k_max)
            # oracle: rebuild the census from scratch, walking every stratum
            r = Fraction(bounds.c_trace / (2 * math.pi))
            expected = []
            pruned = 0
            for n in range(1, e.rank):
                for k in range(k_max + 1):
                    for v in brute_force_ball(bounds.metric, r * r):
                        for c2f in chern_weil_c2_window(CohClass2(v), m, bounds):
                            if n == 1 and c2f != 0:
                                continue
                            f = BundleData(n, CohClass2(v), c2f)
                            try:
                                whitney_complement(e, f, m, k)
                            except InconsistentCandidateError:
                                pruned += 1
                                continue
                            expected.append((n, k, tuple(v), c2f))
            got = [
                (c.F.rank, c.stratum_k, c.F.c1.coeffs, c.F.c2) for c in rep.candidates
            ]
            assert got == sorted(expected)
            assert rep.pruned_inconsistent == pruned
            assert all(c.F == BundleData(c.rank, c.c1, c.c2) for c in rep.candidates)
            skipped += max((c.stratum_k for c in rep.candidates if c.F.rank == e.rank - 1), default=-1) < k_max
        assert skipped > 0

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), den=st.integers(1, 3), k_max=st.integers(0, 2))
    def test_census_matches_the_object_route(self, seed, den, k_max):
        """Each candidate's complement, dimensions and norm equal the object-level functions' (N up to 5).

        Ranks 4 and 5 walk the c2 windows of the ranks 2 <= n < N-1; ``den``
        puts a denominator in the metric.
        """
        m, s, e, bounds = _random_census(make_rng(seed), max_rank=5)
        g = tuple(tuple(x / den for x in row) for row in bounds.metric)
        _assert_object_route(m, s, e, CurvatureBounds(bounds.c_trace, bounds.c_plus, bounds.c_minus, g), k_max)

    def test_census_matches_the_object_route_on_the_k3_form(self):
        """The paper's form -E8 (+) -E8 (+) 3H, whose pairings mix coordinates: 969 ball points, N = 4."""
        m = k3_surface()
        c1 = [0] * 22
        c1[0] = c1[21] = 1
        e = BundleData(4, c1, 2)
        bounds = CurvatureBounds(2 * math.pi * math.sqrt(2.5), 1.0, 1.0, identity_metric(22))
        rep = _assert_object_route(m, SpincStructure(m.zero_class()), e, bounds, 1)
        assert (rep.lattice_points, len(rep.candidates), rep.pruned_inconsistent) == (969, 2793, 1205)

    def test_points_that_keep_no_candidate_build_no_class(self, monkeypatch):
        """The census builds no class or bundle object, for the ball points that keep a candidate or any other."""
        built = []

        def counting(cls):
            return lambda *args: built.append(args) or cls(*args)

        monkeypatch.setattr(reductions, "CohClass2", counting(CohClass2))
        monkeypatch.setattr(reductions, "BundleData", counting(BundleData))
        m = k3_surface()
        s = SpincStructure(m.zero_class())
        bounds = CurvatureBounds(2 * math.pi * math.sqrt(2.5), 0.0, 0.0, identity_metric(22))
        # rank 1 needs <c2(F)> = 0 = <c1(F)^2>/2, and its complement forces <c2(F)> = 100 + <c1(F)^2> - k
        rep = enumerate_reductions(m, BundleData(2, m.zero_class(), 100), s, bounds, k_max=1)
        assert (rep.candidates, rep.lattice_points) == ((), 969)
        assert rep.pruned_inconsistent > 0
        assert built == []
        rep = enumerate_reductions(m, BundleData(3, m.zero_class(), 0), s, bounds, k_max=1)
        kept = {c.c1 for c in rep.candidates}
        assert 1 < len(kept) < rep.lattice_points
        assert built == []

    def test_class_lengths_are_checked_before_the_ball_is_walked(self, monkeypatch):
        m = hyperbolic()
        bounds = CurvatureBounds(2 * math.pi, 0.0, 0.0, identity_metric(2))
        monkeypatch.setattr(reductions, "lattice_points_in_ball", lambda *a: pytest.fail("walked the ball"))
        for c1e, c1s in (([0, 0, 0], [0, 0]), ([0, 0], [0]), ([1], [0, 0, 0])):
            with pytest.raises(
                ValueError,
                match=rf"^class length mismatch: c1\(E\) has {len(c1e)} and c1\(s\) has {len(c1s)} "
                r"coordinates, expected b2=2$",
            ):
                enumerate_reductions(m, BundleData(2, c1e, 0), SpincStructure(c1s), bounds)

    def test_census_is_counted_exactly_and_built_up_to_the_cap(self, monkeypatch):
        """A cap equal to the census size admits it; one less refuses it, naming the energy bounds.

        The refused census is counted to its end but builds no candidate past the cap.
        """
        rng = make_rng(5)
        walked = 0
        for _ in range(12):
            m, s, e, bounds = _random_census(rng, max_rank=5)
            rep = enumerate_reductions(m, e, s, bounds, k_max=2)
            size = len(rep.candidates)
            walked += sum(1 < c.F.rank < e.rank - 1 for c in rep.candidates)
            monkeypatch.setattr(reductions, "MAX_CENSUS_CANDIDATES", size)
            assert enumerate_reductions(m, e, s, bounds, k_max=2) == rep
            monkeypatch.setattr(reductions, "MAX_CENSUS_CANDIDATES", size - 1)
            with pytest.raises(ValueError, match=rf"^census too large: the energy bounds c_plus = .* admit {size} "):
                enumerate_reductions(m, e, s, bounds, k_max=2)
            monkeypatch.undo()
        assert walked > 0  # some instance kept a rank 2 <= n < N-1, whose window is walked
        # a census that passes the cap after several points builds no candidate past it
        m = k3_surface()
        e, s = BundleData(3, m.zero_class(), 0), SpincStructure(m.zero_class())
        bounds = CurvatureBounds(2 * math.pi * math.sqrt(2.5), 0.0, 0.0, identity_metric(22))
        size = len(enumerate_reductions(m, e, s, bounds, k_max=1).candidates)
        made = []
        monkeypatch.setattr(reductions, "MAX_CENSUS_CANDIDATES", size // 2)
        monkeypatch.setattr(reductions, "ReductionCandidate", lambda *a: made.append(a) or ReductionCandidate(*a))
        with pytest.raises(ValueError, match=rf"^census too large: .* admit {size} candidates, more than {size // 2}$"):
            enumerate_reductions(m, e, s, bounds, k_max=1)
        assert len({a[1] for a in made}) > 1 and len(made) <= size // 2

    def test_cells_runs_once_per_ball_point_and_rank(self, monkeypatch, tmp_path, capsys):
        """The census is one pass over the ball: each point asks ``_cells`` once for each rank 1..N-1."""
        calls = []
        cells = reductions._cells
        monkeypatch.setattr(reductions, "_cells", lambda *a: calls.append(a) or cells(*a))
        path = tmp_path / "bounded.json"
        path.write_text(json.dumps(BOUNDED_PROBLEM))
        assert main(["reductions", "enumerate", "--input", str(path)]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["count"] > 0
        assert len(calls) == result["lattice_points"] * (BOUNDED_PROBLEM["bundle"]["rank"] - 1)
        calls.clear()
        m = k3_surface()
        bounds = CurvatureBounds(2 * math.pi * math.sqrt(2.5), 8.0, 8.0, identity_metric(22))
        rep = enumerate_reductions(m, BundleData(4, m.zero_class(), 2), SpincStructure(m.zero_class()), bounds, k_max=1)
        assert rep.candidates
        assert len(calls) == rep.lattice_points * 3

    def test_half_integral_dirac_index_is_refused(self):
        """c1(s) = 0 is not characteristic for diag(1, -1): the first candidate's index is -1/2."""
        m = FourManifold("diag", 0, [[1, 0], [0, -1]])
        bounds = CurvatureBounds(6.2832, 0.0, 10.0, identity_metric(2))
        with pytest.raises(
            InconsistentTopologyError,
            match=r"^inconsistent topological input: twisted Dirac index -1/2 is not an integer$",
        ):
            enumerate_reductions(m, BundleData(3, [0, 0], 1), SpincStructure([0, 0]), bounds)

    def test_a_non_integral_dirac_index_is_reported_in_build_order(self):
        """Candidates are built in (c1, rank, stratum, c2) order, and the first faulty one is reported.

        c1(s) = 0 is not characteristic for [[1]].  The ball's first point c1(F) = -1 keeps
        no line subbundle (its window [1, 11] misses 0) but keeps rank 2 at the forced
        <c2(F)> = 4, whose index is -15/4.  In (rank, c1) order the line subbundle
        c1(F) = 0, index -1/8, would come first.
        """
        m = FourManifold("one", 0, [[1]])
        bounds = CurvatureBounds(6.3, 5.0, 30.0, identity_metric(1))
        with pytest.raises(
            InconsistentTopologyError,
            match=r"^inconsistent topological input: twisted Dirac index -15/4 is not an integer$",
        ):
            enumerate_reductions(m, BundleData(3, [0], 3), SpincStructure([0]), bounds)

    def test_unimodular_basis_change_permutes_census(self, rng):
        m, s, e, bounds = _basic_census()
        rep = enumerate_reductions(m, e, s, bounds)
        p = random_unimodular(rng, 2)
        p_inv = np.round(np.linalg.inv(p)).astype(int)
        q2 = (p.T @ np.array(m.intersection_form) @ p).tolist()
        g2 = tuple(
            tuple(Fraction(int(x)) for x in row)
            for row in (p.T @ np.array([[1, 0], [0, 1]]) @ p)
        )
        m2 = FourManifold(m.name, 0, q2)
        bounds2 = CurvatureBounds(bounds.c_trace, 0.0, 0.0, g2)
        rep2 = enumerate_reductions(m2, e, s, bounds2)
        mapped = sorted(
            tuple((p_inv @ np.array(c.F.c1.coeffs)).tolist()) for c in rep.candidates
        )
        got = sorted(tuple(c.F.c1.coeffs) for c in rep2.candidates)
        assert got == mapped

    def test_nonzero_b1_warns_in_report(self):
        """The census states its own note only; the manifold's warnings stay on the manifold."""
        m = FourManifold("b1", 2, [[2, 0], [0, -1]])
        assert m.warnings == ("intersection form is not unimodular (|det| = 2)",)
        s = SpincStructure([0, 0])
        e = BundleData(2, [0, 0], 5)
        bounds = CurvatureBounds(1.0, 0.0, 0.0, identity_metric(2))
        rep = enumerate_reductions(m, e, s, bounds)
        assert (rep.candidates, rep.pruned_inconsistent) == ((), 1)  # the origin alone, pruned
        assert rep.warnings == (
            "b1 != 0: the product description of fixed-point components assumes a simply connected manifold",
        )


class TestUhlenbeckStrata:
    def test_top_stratum_is_input_bundle(self):
        m = k3_like()
        s = SpincStructure(m.zero_class())
        e = BundleData(2, m.zero_class(), 3)
        rows = uhlenbeck_strata(e, m, s, 4)
        assert rows[0].bundle == e

    def test_c2_strictly_decreasing(self):
        m = k3_like()
        s = SpincStructure(m.zero_class())
        rows = uhlenbeck_strata(BundleData(3, m.zero_class(), 2), m, s, 5)
        c2s = [r.bundle.c2 for r in rows]
        assert c2s == [2 - k for k in range(6)]
        assert all(r.bundle.c1 == rows[0].bundle.c1 for r in rows)

    @pytest.mark.parametrize("big_n", [2, 3, 4])
    def test_index_part_drops(self, big_n):
        """Instanton part drops by 4Nk; the Dirac index gains k per stratum,
        so the full multiplicity-2 dimension drops by (4N - 2)k."""
        m = k3_like()
        s = SpincStructure(m.zero_class())
        rows = uhlenbeck_strata(BundleData(big_n, m.zero_class(), 5), m, s, 5)
        for k, row in enumerate(rows):
            assert rows[0].instanton_part - row.instanton_part == 4 * big_n * k
            assert row.dirac_index - rows[0].dirac_index == k
            assert rows[0].expected_dim - row.expected_dim == (4 * big_n - 2) * k

    def test_row_cap_is_checked_before_any_row_is_built(self, monkeypatch):
        """A cap equal to the row count admits the table; one less refuses it, whatever the bundle."""
        m = k3_like()
        s = SpincStructure(m.zero_class())
        e = BundleData(2, m.zero_class(), 3)
        rows = uhlenbeck_strata(e, m, s, 4)
        monkeypatch.setattr(reductions, "MAX_STRATA_ROWS", 5)
        assert uhlenbeck_strata(e, m, s, 4) == rows
        monkeypatch.setattr(reductions, "MAX_STRATA_ROWS", 4)
        for bundle in (e, BundleData(1, m.zero_class(), 0)):  # the rank-1 refusal would come later
            with pytest.raises(ValueError, match="^too many strata: k_max must be below 4, the cap on strata rows$"):
                uhlenbeck_strata(bundle, m, s, 4)
        monkeypatch.undo()
        with pytest.raises(ValueError, match="^too many strata: "):
            uhlenbeck_strata(e, m, s, 10**400)

    def test_rank1_is_refused_by_the_monopole_dimension(self):
        m = k3_like()
        with pytest.raises(ValueError, match="^projective monopole dimension needs rank >= 2$"):
            uhlenbeck_strata(BundleData(1, m.zero_class(), 0), m, SpincStructure(m.zero_class()), 1)


class TestTau0Verdict:
    def test_positive_b2plus(self):
        v = generic_tau0_vanishing(k3_like())
        assert v.vanishes_generically is True
        assert v.cokernel_dimension == 3

    def test_zero_b2plus(self):
        m = FourManifold("neg", 0, [[-1]])
        v = generic_tau0_vanishing(m)
        assert v.vanishes_generically is False
        assert v.cokernel_dimension == 0
