"""The benchmark's independent computations against brute force."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

import oracles
import workloads

F = Fraction


def brute_force_ball(g, radius_sq, box):
    """Every vector of the cube ``[-box, box]^m`` with ``v^T G v <= radius_sq``, exactly."""
    m = len(g)
    return sorted(
        v for v in itertools.product(range(-box, box + 1), repeat=m)
        if sum(F(v[i] * v[j]) * g[i][j] for i in range(m) for j in range(m)) <= radius_sq
    )


@pytest.mark.parametrize(
    "diag, radius_sq",
    [
        ((F(1), F(1), F(1)), F(9, 4)),
        ((F(1, 2), F(3, 2), F(2)), F(13, 4)),
        ((F(1), F(1, 3), F(5, 2), F(1)), F(7, 3)),
        ((F(2),), F(1)),
        ((F(1), F(1)), F(0)),
    ],
)
def test_theta_count_matches_brute_force_on_diagonal_metrics(diag, radius_sq):
    g = [[d if i == j else F(0) for j, _ in enumerate(diag)] for i, d in enumerate(diag)]
    brute = brute_force_ball(g, radius_sq, box=4)
    assert oracles.theta_ball_count(diag, radius_sq) == len(brute)
    assert sorted(oracles.diagonal_ball_points(diag, radius_sq)) == brute


@pytest.mark.parametrize(
    "diag, shear, radius_sq",
    [
        ((F(1), F(1), F(1)), {(0, 1): 1, (1, 2): 1}, F(9, 4)),
        ((F(1), F(1, 2), F(3, 2)), {(0, 1): -1, (0, 2): 2}, F(9, 4)),
        ((F(1), F(2), F(1), F(1, 2)), {(0, 1): 1, (2, 3): -1, (1, 3): 1}, F(5, 4)),
    ],
)
def test_theta_count_matches_brute_force_on_sheared_metrics(diag, shear, radius_sq):
    m = len(diag)
    s = workloads._shear(m, shear)
    g = [[sum(s[k][i] * diag[k] * s[k][j] for k in range(m)) for j in range(m)] for i in range(m)]
    brute = brute_force_ball(g, radius_sq, box=5)
    assert all(max(map(abs, v)) < 5 for v in brute)  # the box was wide enough
    assert oracles.theta_ball_count(diag, radius_sq) == len(brute)
    inverse = oracles.unit_upper_inverse(s)
    mapped = sorted(oracles.mat_vec(inverse, u) for u in oracles.diagonal_ball_points(diag, radius_sq))
    assert mapped == brute


def test_unit_upper_inverse():
    s = workloads._shear(5, {(0, 1): 2, (1, 3): -1, (2, 4): 3, (0, 4): 1})
    inv = oracles.unit_upper_inverse(s)
    prod = [[sum(s[i][k] * inv[k][j] for k in range(5)) for j in range(5)] for i in range(5)]
    assert prod == [[int(i == j) for j in range(5)] for i in range(5)]


@pytest.mark.parametrize("name", sorted(workloads.BLOCKS))
def test_block_signs_follow_sylvester(name):
    mat, (plus, minus), odd = workloads.BLOCKS[name]
    eig = np.linalg.eigvalsh(np.array(mat, dtype=float))
    assert (int((eig > 0).sum()), int((eig < 0).sum())) == (plus, minus)
    assert round(abs(np.linalg.det(np.array(mat, dtype=float)))) == 1
    assert odd == any(mat[i][i] % 2 for i in range(len(mat)))


@pytest.mark.parametrize("spec", workloads.INDEX_SPECS, ids=lambda s: s.name)
def test_index_inputs_are_unimodular_and_characteristic(spec):
    q = spec.form.matrix()
    cs = spec.form.characteristic(spec.odd_value, spec.even_value)
    for i in range(spec.form.b2):
        e = [int(i == j) for j in range(spec.form.b2)]
        assert (oracles.pair(cs, q, e) - oracles.pair(e, q, e)) % 2 == 0
    for seed in range(5):
        perm = spec.form.automorphism(random.Random(seed))
        assert sorted(perm) == list(range(spec.form.b2))
        assert workloads.permuted_matrix(q, perm) == q


def test_census_expectation_is_the_same_for_every_seed():
    spec = workloads.ENUMERATE_SPECS[3]
    cases = [workloads.enumerate_case(spec, seed, "p.json") for seed in (1, 2, 3)]
    assert len({(len(c.keys), c.pruned, c.theta_count, len(c.points)) for c in cases}) == 1
    assert cases[0].theta_count == len(cases[0].points)
    sizes = {len(str(c.doc)) for c in cases}
    assert len(sizes) == 1


def test_closed_forms_by_brute_minimization():
    # properness: minimize |mu|^2 = ||P||^2 + tau^2 ||Q||^2 over the invariants (x, y, z) by a grid
    for n, tau in itertools.product((2, 3), (0.0, 0.5, 1.0)):
        best = np.inf
        for x in np.linspace(0, 1, 201):
            y = 1 - x
            for z in np.linspace(0, x * y, 41):
                p_sq = 0.5 * (x * x + y * y - 2 * z - (x - y) ** 2 / n) + 2 * (x * y - z / n)
                q_sq = (x - y) ** 2 / (2 * n) + 2 * z / n
                best = min(best, p_sq + tau * tau * q_sq)
        assert np.sqrt(best) == pytest.approx(oracles.properness_constant(n, tau), rel=1e-9)
    # identity margin: minimize over the complex trace t on a fine grid around the minimizer
    for n, tau, lam in ((2, 0.25, 1.0), (3, 0.5, 2j)):
        a, b = (n - 1 + tau) / n, (1 - tau) / n
        ts = np.linspace(-4, 4, 1601)
        t = ts[:, None] + 1j * ts[None, :]
        vals = np.abs(a * t - lam) ** 2 + (n - 1) * np.abs(b * t + lam) ** 2
        assert np.sqrt(vals.min()) == pytest.approx(oracles.identity_margin(n, tau, lam), rel=1e-4)
