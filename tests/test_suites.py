"""The grid-check harness shared by the property suites."""

import numpy as np

from monopoles.suites import _grid_check


def test_grid_check_first_cell_above_tolerance_supplies_counterexample():
    cells = [
        (np.array([1e-13, 3e-13]), "below tolerance"),
        (np.array([0.0, 2e-12, 5e-12]), "first above"),
        (np.array([9e-12]), "worse, but later"),
        (4e-12, "scalar cell"),
    ]
    report = _grid_check(
        "demo", 1e-12, ((devs, lambda i, tag=tag: {"cell": tag, "at": i}) for devs, tag in cells)
    )
    assert report.counterexample == {"cell": "first above", "at": 2}
    assert report.worst == 9e-12
    assert report.samples == 2 + 3 + 1 + 1
    assert report.passed is False and report.tolerance == 1e-12


def test_grid_check_passes_exactly_when_worst_within_tolerance():
    for worst, passed in ((0.0, True), (1e-12, True), (1.0000001e-12, False)):
        report = _grid_check("demo", 1e-12, iter([(np.array([worst / 2, worst]), lambda i: {"i": i})]))
        assert report.passed is (report.worst <= report.tolerance) is passed
        assert report.samples == 2
        assert (report.counterexample is None) is passed


def test_grid_check_builder_runs_before_the_generator_advances():
    def cells():
        for n in (1, 2, 3):
            devs = np.full(n, float(n))
            yield devs, lambda i: {"n": n, "i": i}

    report = _grid_check("demo", 1.5, cells())
    assert report.counterexample == {"n": 2, "i": 0}
    assert report.samples == 6 and report.worst == 3.0
