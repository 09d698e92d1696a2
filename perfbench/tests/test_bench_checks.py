"""Every output check accepts the program's real output and rejects a corrupted one."""

import dataclasses
import json
from fractions import Fraction

import pytest

import monopoles.kaehler as ka
import monopoles.mu_kernel as mk
import monopoles.suites as su
import spans
import workloads

F = Fraction

SMALL_CENSUS = workloads.EnumerateSpec(
    "small", 3, 1, workloads.Form(("+1", "-1", "-1")), (F(1), F(1, 2), F(3, 2)),
    workloads._shear(3, {(0, 1): 1, (1, 2): -1}), F(9, 4), F(5, 4), F(9, 4), (1, 0, 0), 1,
)


def _cli_output(case, tmp_path, name):
    path = tmp_path / name
    path.write_text(json.dumps(case.doc))
    return workloads.run_cli(case.argv)


def _rewrite(out, edit):
    code, text = out
    report = json.loads(text)
    edit(report["result"])
    return code, json.dumps(report)


@pytest.fixture
def census(tmp_path):
    case = workloads.enumerate_case(SMALL_CENSUS, 5, str(tmp_path / "e.json"))
    return case, _cli_output(case, tmp_path, "e.json")


def test_census_output_passes(census):
    case, out = census
    assert json.loads(out[1])["result"]["count"] > 10
    assert workloads.check_enumerate(case, out) == []


@pytest.mark.parametrize(
    "edit",
    [
        lambda r: r["candidates"].pop(len(r["candidates"]) // 2),  # dropped candidate
        lambda r: r.update(lattice_points=r["lattice_points"] + 1),  # ball count off by one
        lambda r: r.update(pruned_inconsistent=r["pruned_inconsistent"] - 1),
        lambda r: r["candidates"].insert(1, r["candidates"][1]),  # duplicate
        lambda r: r["candidates"].reverse(),  # unsorted
        lambda r: r["candidates"][0].update(total_dim=r["candidates"][0]["total_dim"] + 1),
        lambda r: r["candidates"][-1].update(complement_c2=r["candidates"][-1]["complement_c2"] + 1),
        lambda r: r["candidates"][2].update(tau={"num": 1, "den": 2}),
        lambda r: r["candidates"][3].update(c1_norm=r["candidates"][3]["c1_norm"] * (1 + 1e-9) + 1e-9),
    ],
)
def test_census_check_rejects_corruption(census, edit):
    case, out = census
    assert workloads.check_enumerate(case, _rewrite(out, edit)) != []


def test_census_check_rejects_nonstrict_json_and_exit_codes(census):
    case, out = census
    code, text = out
    assert workloads.check_enumerate(case, (code, text.replace('"c1_norm": 0.0', '"c1_norm": NaN', 1))) != []
    assert workloads.check_enumerate(case, (1, text)) != []


@pytest.mark.parametrize("spec", workloads.INDEX_SPECS, ids=lambda s: s.name)
def test_index_outputs_pass_and_corruptions_fail(spec, tmp_path):
    case = workloads.index_case(spec, 3, str(tmp_path / "i.json"))
    out = _cli_output(case, tmp_path, "i.json")
    assert workloads.check_index(case, out) == []
    if spec.kind == "strata":
        corrupt = lambda r: r["strata"][-1].update(expected_dim=r["strata"][-1]["expected_dim"] - 1)  # noqa: E731
    elif spec.kind == "tau0":
        corrupt = lambda r: r.update(vanishes_generically=not r["vanishes_generically"])  # noqa: E731
    else:
        corrupt = lambda r: r.update(expected_dim=r["expected_dim"] + 2)  # noqa: E731
    assert workloads.check_index(case, _rewrite(out, corrupt)) != []


@pytest.mark.parametrize("n, tau, lam", [(2, 1.0, 1.0), (3, 0.5, 1.0)])
def test_margin_check(n, tau, lam):
    report = ka.impossibility_margin(n, tau, lam, starts=workloads.CERTIFY_STARTS, seed=workloads.CERTIFY_SEED)
    assert workloads.check_margin(n, tau, lam, report) == []
    for factor in (1 + 1e-3, 1 - 1e-3, 1 - 1e-11):
        bad = dataclasses.replace(report, estimate=report.estimate * factor)
        assert workloads.check_margin(n, tau, lam, bad) != []


def test_properness_check():
    report = mk.properness_constant_estimate(2, 0.5, starts=workloads.CERTIFY_STARTS, seed=workloads.CERTIFY_SEED)
    assert workloads.check_properness(2, 0.5, report) == []
    assert workloads.check_properness(2, 0.5, dataclasses.replace(report, estimate=report.estimate * 1.001)) != []
    assert workloads.check_properness(2, 0.5, dataclasses.replace(report, success=False)) != []


def test_zero_divisor_check():
    report = mk.zero_divisor_margin(2, 1.0, starts=workloads.CERTIFY_STARTS, seed=workloads.CERTIFY_SEED)
    assert workloads.check_zero_divisor(2, 1.0, report) == []
    assert workloads.check_zero_divisor(2, 1.0, dataclasses.replace(report, estimate=report.estimate * 0.999)) != []
    assert workloads.check_zero_divisor(2, 1.0, dataclasses.replace(report, positivity_floor=1.0)) != []


def test_suite_check():
    report = su.mu_suite("zero_divisor", samples=10, seed=workloads.SUITE_SEED)
    assert workloads.check_suite(report) == []
    check = report.checks[0]
    for bad in (
        dataclasses.replace(check, passed=False),
        dataclasses.replace(check, worst=check.tolerance * 2 + 1e-30),
        dataclasses.replace(check, samples=0),
    ):
        assert workloads.check_suite(dataclasses.replace(report, checks=(bad,))) != []


def test_sphere_check():
    want = 0.5590169943749475  # sqrt((2 - 1 + 0.25) / 4)
    assert workloads.check_sphere(2, 0.5, want * (1 + 1e-4)) == []
    assert workloads.check_sphere(2, 0.5, want * (1 - 1e-9)) != []
    assert workloads.check_sphere(2, 0.5, want * (1 + 2 * workloads.SPHERE_SLACK)) != []


def test_tracer_counts_match_the_report_and_uninstall_restores(census):
    import monopoles.cli as cli
    import monopoles.reductions as red

    case, out = census
    before = (cli.main, cli.enumerate_reductions, red.lattice_points_in_ball, red.cup)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = workloads.run_cli(case.argv)
    finally:
        tracer.uninstall()
    assert (cli.main, cli.enumerate_reductions, red.lattice_points_in_ball, red.cup) == before
    assert traced == out
    result = json.loads(out[1])["result"]
    figures = tracer.figures({}, len(out[1].encode()), 0)
    assert figures["reductions.ball_points"] == result["lattice_points"]
    assert figures["reductions.candidates"] == result["count"]
    assert figures["reductions.pruned"] == result["pruned_inconsistent"]
    assert figures["cohomology.index_calls"] > 0
    assert 0 < figures["reductions.ball_s"] + figures["reductions.loop_s"] <= tracer.incl["cli.main"]
