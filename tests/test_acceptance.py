"""Acceptance gate: one test per release criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion.

Criteria 7 and 10 pin constants derived from the defining formulas; each
is paired with a companion test that checks the same relationship against
an independent oracle.  The derivations:

* Criterion 7 pins the identity-obstruction margin, the minimum over all
  ``(alpha, beta)`` of ``||brace(beta alpha^*, tau) - lam id||``, to
  ``|lam| sqrt(n(n-1)/(n-1+tau^2))``.  With ``a = (n-1+tau)/n`` and
  ``b = (1-tau)/n`` the squared distance at trace ``t`` is at least
  ``|a t - lam|^2 + (n-1)|b t + lam|^2``; since ``a + b = 1`` and
  ``a^2 + (n-1) b^2 = (n-1+tau^2)/n``, its minimum over ``t`` is
  ``n(n-1)|lam|^2/(n-1+tau^2)``.  The expression
  ``n sqrt(n-1) |lam| / (n-1+tau)`` is the distance at the one trace that
  zeroes the rank-direction eigenvalue, ``t = lam/a``: an upper bound, since
  the difference of the squares is proportional to ``(n-1)(1-tau)^2 >= 0``,
  attained only at ``tau = 1``.  The criterion asserts that bound as well.
* Criterion 10 pins the per-stratum drop of the expected PU(N) monopole
  dimension to ``(4N-2)k``.  Lowering ``<c2>`` by ``k`` lowers the instanton
  part ``-2<p1(su(E))>`` by ``4Nk`` (as ``<p1(su(E))> = (N-1)c1^2 - 2N c2``)
  and raises the twisted Dirac index by ``k``, which enters with
  multiplicity ``m = 2``: the drop is ``4Nk - m k = (4N-2)k``, the classical
  6 per bubbling level for ``N = 2``.
"""

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from monopoles import (
    BundleData,
    CohClass2,
    CurvatureBounds,
    FourManifold,
    SpincStructure,
    chern_weil_c2_window,
    decoupling_bound,
    enumerate_reductions,
    expected_dim_asd,
    expected_dim_un,
    impossibility_margin,
    mu_norm_batch,
    properness_constant_estimate,
    uhlenbeck_strata,
    whitney_complement,
)
from monopoles.kaehler import PointwiseField, mu_kaehler, verify_curvature_split
from monopoles.mu_kernel import mu
from monopoles.mu_kernel import SpinorPair, random_sphere_search
from monopoles.reductions import InconsistentCandidateError
from monopoles.suites import (
    make_satisfying_field,
    mu_suite,
    zero_divisor_identity_batch,
)

from conftest import (
    brute_force_ball,
    characteristic_class,
    make_rng,
    schur_margin_oracle,
    sw_dimension_oracle,
    unimodular_manifold,
)

SEED = 7


def report(num: int, slug: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[ACCEPTANCE] {num:02d} {slug:<38s} {status}  {detail}")


def test_criterion_01_rank1_dimension_matches_classical_oracle():
    """Rank-1 multiplicity-2 dimension == (c1(s (x) L)^2 - 2chi - 3sig)/4, b1=0."""
    t0 = time.monotonic()
    rng = make_rng(SEED)
    checked = 0
    ok = True
    while checked < 24:
        m = unimodular_manifold(rng, b2_max=6)
        c1s = characteristic_class(m, rng)
        c1L = CohClass2(rng.integers(-3, 4, size=m.b2).tolist())
        got = expected_dim_un(BundleData(1, c1L, 0), SpincStructure(c1s), m, 2)
        oracle = sw_dimension_oracle(m, c1s, c1L)
        ok = ok and oracle.denominator == 1 and got == int(oracle)
        checked += 1
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1.0
    report(1, "rank1_classical_dimension", ok, f"{checked} inputs, {elapsed:.2f}s")
    assert ok


def test_criterion_02_instanton_dimension_table():
    """Charge-k rank-2 instanton dimension == 8k - 3(1 + b2+), k<=5, b2+<=3."""
    t0 = time.monotonic()
    ok = True
    for b2p in range(4):
        diag = [1] * b2p + [-1]
        q = [[diag[i] if i == j else 0 for j in range(len(diag))] for i in range(len(diag))]
        m = FourManifold(f"b2p{b2p}", 0, q)
        assert m.b2plus == b2p
        for k in range(6):
            e = BundleData(2, m.zero_class(), k)
            ok = ok and expected_dim_asd(e, m) == 8 * k - 3 * (1 + b2p)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1.0
    report(2, "instanton_dimension_table", ok, f"24 cells, {elapsed:.2f}s")
    assert ok


def test_criterion_03_mu_identity_suite():
    """Seven spinor-map identities, 1e-10 relative, 1e4 samples per (n, tau)."""
    t0 = time.monotonic()
    names = (
        "quartic",
        "block_formula",
        "orthogonality",
        "hermiticity",
        "monotonicity",
        "equivariance",
        "phase",
    )
    failures = []
    worst = 0.0
    for name in names:
        rep = mu_suite(suite=name, samples=10_000, seed=SEED)
        for check in rep.checks:
            worst = max(worst, check.worst)
            if not check.passed:
                failures.append(check.name)
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 30.0
    report(3, "mu_identity_suite", ok, f"worst dev {worst:.2e}, {elapsed:.1f}s")
    assert ok, failures


def test_criterion_04_zero_divisor_identity():
    """||(a b^*)_0||^2 == |a|^2|b|^2 - |tr|^2/n and >= (1 - 1/n)|a|^2|b|^2, 1e5 samples."""
    t0 = time.monotonic()
    rng = make_rng(SEED)
    ok = True
    worst = 0.0
    per_n = 20_000
    for n in (2, 3, 4, 5, 6):
        a = rng.standard_normal((per_n, n)) + 1j * rng.standard_normal((per_n, n))
        b = rng.standard_normal((per_n, n)) + 1j * rng.standard_normal((per_n, n))
        lhs, rhs_id, rhs_ineq = zero_divisor_identity_batch(a, b)
        rel = float((np.abs(lhs - rhs_id) / np.maximum(np.abs(rhs_id), 1e-30)).max())
        worst = max(worst, rel)
        ok = ok and rel <= 1e-10 and bool((lhs >= rhs_ineq).all())
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 10.0
    report(4, "zero_divisor_identity", ok, f"1e5 samples, worst {worst:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_05_properness_estimates():
    """tau=0 estimates in (1e-3, sqrt((n-1)/2n) + 1e-6]; 1e6-sample search concurs."""
    t0 = time.monotonic()
    ok = True
    details = []
    for n in (2, 3, 4, 5):
        rep = properness_constant_estimate(n, 0.0, starts=64, seed=SEED)
        upper = math.sqrt((n - 1) / (2 * n))
        ok = ok and 1e-3 < rep.estimate <= upper + 1e-6
        found = random_sphere_search(n, 0.0, samples=1_000_000, seed=SEED)
        ok = ok and found >= rep.estimate - 1e-4
        details.append(f"n={n}:{rep.estimate:.6f}")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 120.0
    report(5, "properness_estimates", ok, f"{' '.join(details)}, {elapsed:.1f}s")
    assert ok


def test_criterion_06_kaehler_cross_checks():
    """Brace blocks == projection mu on 1e4 samples; split verdicts never false."""
    t0 = time.monotonic()
    rng = make_rng(SEED)
    worst = 0.0
    for _ in range(10_000):
        n = int(rng.integers(1, 6))
        tau = float(rng.choice([0.0, 0.25, 1.0]))
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        dev = float(
            np.abs(mu_kaehler(a, b, tau).mat - mu(tau, SpinorPair(a, b)).mat).max()
        )
        worst = max(worst, dev)
    ok = worst <= 1e-12
    false_verdicts = 0
    for _ in range(5_000):
        n = int(rng.integers(1, 5))
        tau = float(rng.random())
        good = make_satisfying_field(rng, n, tau)
        v = verify_curvature_split(good, tol=1e-9)
        if not (v.matrix_satisfied and v.split_satisfied and v.equivalent):
            false_verdicts += 1
        f02 = good.f02.copy()
        f02[0, 0] += 1.0 + rng.random()
        broken = PointwiseField(
            good.alpha, good.beta, f02, good.lambda_f, good.eta02, good.eta_lambda, tau
        )
        v = verify_curvature_split(broken, tol=1e-9)
        if v.matrix_satisfied or v.split_satisfied or not v.equivalent:
            false_verdicts += 1
    ok = ok and false_verdicts == 0
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    report(
        6,
        "kaehler_cross_checks",
        ok,
        f"worst block dev {worst:.2e}, false verdicts {false_verdicts}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_07_impossibility_margin_pinned_formula():
    """Measured margin == |lam| sqrt(n(n-1)/(n-1+tau^2)), 1e-4 relative.

    The expression n sqrt(n-1)|lam|/(n-1+tau) is the distance at a single
    trace value, so it bounds the margin from above and equals it at
    tau = 1; the module docstring has the derivation.
    """
    t0 = time.monotonic()
    rows = []
    for n in (2, 3):
        for tau in (0.25, 0.5, 1.0):
            for lam in (1.0, 2j):
                measured = impossibility_margin(n, tau, lam, starts=16, seed=SEED).estimate
                pinned = abs(lam) * math.sqrt(n * (n - 1) / (n - 1 + tau**2))
                upper = n * math.sqrt(n - 1) * abs(lam) / (n - 1 + tau)
                rel = abs(measured - pinned) / pinned
                if rel > 1e-4:
                    rows.append(
                        f"n={n} tau={tau} lam={lam}: measured {measured:.6f} "
                        f"!= pinned {pinned:.6f} (rel {rel:.1e})"
                    )
                if measured > upper * (1 + 1e-12):
                    rows.append(
                        f"n={n} tau={tau} lam={lam}: measured {measured:.6f} "
                        f"> upper bound {upper:.6f}"
                    )
                if tau == 1.0 and abs(measured - upper) / upper > 1e-4:
                    rows.append(
                        f"n={n} tau={tau} lam={lam}: measured {measured:.6f} "
                        f"!= upper bound {upper:.6f} at tau = 1"
                    )
    ok = not rows
    zero_margin = impossibility_margin(2, 0.5, 0.0, starts=4, seed=SEED).estimate
    ok = ok and zero_margin == 0.0
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    report(7, "impossibility_margin_pinned", ok, f"{len(rows)} mismatches, {elapsed:.1f}s")
    assert ok, "\n".join(rows)


def test_criterion_07_companion_margin_matches_independent_oracle():
    """Green companion: measured margin == trace-scan oracle, 1e-4 relative."""
    t0 = time.monotonic()
    ok = True
    worst = 0.0
    for n in (2, 3):
        for tau in (0.25, 0.5, 1.0):
            for lam in (1.0, 2j):
                measured = impossibility_margin(n, tau, lam, starts=16, seed=SEED).estimate
                oracle = schur_margin_oracle(n, tau, lam)
                rel = abs(measured - oracle) / oracle
                worst = max(worst, rel)
                ok = ok and rel <= 1e-4
    zero_margin = impossibility_margin(2, 0.5, 0.0, starts=4, seed=SEED).estimate
    ok = ok and zero_margin == 0.0
    elapsed = time.monotonic() - t0
    report(7, "impossibility_margin_vs_oracle", ok, f"worst rel {worst:.1e}, {elapsed:.1f}s")
    assert ok


def test_criterion_08_decoupling_inequality():
    """lhs >= rhs on 1e6 pointwise samples across tau in [0, 1], zero violations."""
    t0 = time.monotonic()
    rng = make_rng(SEED)
    violations = 0
    total = 0
    for n in (1, 2, 3, 4, 6):
        remaining = 200_000
        while remaining > 0:
            m = min(100_000, remaining)
            a = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
            b = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
            taus = rng.random(m)
            lhs, rhs = decoupling_bound(a, b, taus)
            scale = np.maximum(np.abs(rhs), 1.0)
            violations += int(((rhs - lhs) / scale > 1e-12).sum())
            violations += int((rhs < -1e-15).sum())
            total += m
            remaining -= m
    elapsed = time.monotonic() - t0
    ok = violations == 0 and total == 1_000_000 and elapsed < 30.0
    report(8, "decoupling_inequality", ok, f"{total} samples, {violations} violations, {elapsed:.1f}s")
    assert ok


def test_criterion_09_enumeration_against_brute_force():
    """Census == from-scratch brute enumeration on 25 small random instances."""
    t0 = time.monotonic()
    rng = make_rng(SEED)
    ok = True
    n2_instances = 0
    for trial in range(25):
        m = unimodular_manifold(rng, b2_max=4)
        b2 = m.b2
        s = SpincStructure(characteristic_class(m, rng))
        big_n = int(rng.integers(2, 5))
        e = BundleData(
            big_n, CohClass2(rng.integers(-1, 2, size=b2).tolist()), int(rng.integers(-2, 3))
        )
        gm = rng.integers(-1, 2, size=(b2, b2))
        metric = tuple(
            tuple(Fraction(int(x)) for x in row)
            for row in (gm.T @ gm + 2 * np.eye(b2, dtype=int))
        )
        bounds = CurvatureBounds(
            float(rng.uniform(0, 4 * math.pi)),
            float(rng.uniform(0, 6.0)),
            float(rng.uniform(0, 12.0)),
            metric,
        )
        kmax = int(rng.integers(0, 3))
        census = enumerate_reductions(m, e, s, bounds, kmax)
        assert len(census.candidates) < math.inf  # always a finite list
        radius = Fraction(bounds.c_trace / (2 * math.pi))
        ball = brute_force_ball(metric, radius * radius)
        assert len(ball) <= 10_000
        expected = []
        for n in range(1, big_n):
            for k in range(kmax + 1):
                for v in ball:
                    for c2f in chern_weil_c2_window(CohClass2(v), m, bounds):
                        if n == 1 and c2f != 0:
                            continue
                        try:
                            whitney_complement(e, BundleData(n, CohClass2(v), c2f), m, k)
                        except InconsistentCandidateError:
                            continue
                        expected.append((n, k, tuple(v), c2f))
        got = [(c.F.rank, c.stratum_k, c.F.c1.coeffs, c.F.c2) for c in census.candidates]
        ok = ok and got == sorted(expected)
        if big_n == 2:
            n2_instances += 1
            ok = ok and all(c.F.rank == 1 for c in census.candidates)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    report(9, "enumeration_vs_brute_force", ok, f"25 instances ({n2_instances} rank-2), {elapsed:.1f}s")
    assert ok


def test_criterion_10_strata_dimension_drop_pinned():
    """Per-stratum monopole dimension drop pinned to (4N-2)k.

    The instanton part drops by 4Nk and the Dirac index, which enters with
    multiplicity 2, rises by k; the module docstring has the derivation.
    """
    t0 = time.monotonic()
    rng = make_rng(SEED)
    rows = []
    ok = True
    for big_n in (2, 3, 4):
        m = unimodular_manifold(rng, b2_max=4)
        s = SpincStructure(characteristic_class(m, rng))
        e = BundleData(big_n, m.zero_class(), 7)
        strata = uhlenbeck_strata(e, m, s, 5)
        for k, row in enumerate(strata):
            drop = strata[0].expected_dim - row.expected_dim
            pinned = (4 * big_n - 2) * k
            if drop != pinned:
                rows.append(f"N={big_n} k={k}: drop {drop} != pinned {pinned}")
            ok = ok and drop == pinned
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1.0
    report(10, "strata_drop_pinned_(4N-2)k", ok, f"{len(rows)} mismatches, {elapsed:.2f}s")
    assert ok, "\n".join(rows)


def test_criterion_10_companion_strata_index_bookkeeping():
    """Green companion: instanton part drops 4Nk; full dimension (4N-2)k."""
    t0 = time.monotonic()
    rng = make_rng(SEED)
    ok = True
    for big_n in (2, 3, 4):
        m = unimodular_manifold(rng, b2_max=4)
        s = SpincStructure(characteristic_class(m, rng))
        e = BundleData(big_n, m.zero_class(), 7)
        strata = uhlenbeck_strata(e, m, s, 5)
        for k, row in enumerate(strata):
            ok = ok and row.bundle.c2 == e.c2 - k
            ok = ok and strata[0].instanton_part - row.instanton_part == 4 * big_n * k
            ok = ok and row.dirac_index - strata[0].dirac_index == k
            ok = ok and strata[0].expected_dim - row.expected_dim == (4 * big_n - 2) * k
    elapsed = time.monotonic() - t0
    report(10, "strata_index_bookkeeping", ok, f"N in 2..4, k<=5, {elapsed:.2f}s")
    assert ok


def test_criterion_11_byte_identical_reports():
    """Same (input, seed, version) => byte-identical reports, any thread setting."""
    t0 = time.monotonic()

    def run(argv, threads):
        env = dict(os.environ, MONOPOLES_THREADS=str(threads))
        proc = subprocess.run(
            [sys.executable, "-m", "monopoles.cli", *argv],
            capture_output=True,
            env=env,
            check=False,
        )
        return proc.returncode, proc.stdout

    suites = [
        ["mu", "check", "--suite", "all", "--samples", "120", "--seed", str(SEED)],
        ["kaehler", "check", "--suite", "all", "--samples", "40", "--seed", str(SEED)],
        ["mu", "properness", "--n", "3", "--tau", "0.5", "--starts", "8", "--seed", str(SEED)],
    ]
    ok = True
    for argv in suites:
        code_a, out_a = run(argv, threads=1)
        code_b, out_b = run(argv, threads=16)
        ok = ok and code_a == code_b == 0 and out_a == out_b and len(out_a) > 0
        parsed = json.loads(out_a)
        ok = ok and parsed["version"] == "0.1.0"
    elapsed = time.monotonic() - t0
    report(11, "byte_identical_reports", ok, f"{len(suites)} commands x 2 runs, {elapsed:.1f}s")
    assert ok
