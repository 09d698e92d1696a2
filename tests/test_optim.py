"""Stopping rule of the shared descent engine."""

import numpy as np
import pytest

import monopoles.kaehler as kaehler
from monopoles.kaehler import impossibility_margin, impossibility_margin_closed_form
from monopoles.optim import _descend, _identity_projector, _identity_tangent


def counted(value_and_grad, calls):
    def wrapped(x):
        calls.append(1)
        return value_and_grad(x)

    return wrapped


def test_descent_stops_when_armijo_decrease_is_below_ulp():
    # f = 1e8 + |x|^2 near x = 1e-5: the Armijo decrease 1e-4 t |g|^2 ~ 1e-13
    # is far below ulp(1e8) ~ 1.5e-8, so the accepted step leaves f bitwise equal.
    calls = []
    f = counted(lambda x: (1e8 + float(x @ x), 2.0 * x), calls)
    x0 = np.full(3, 1e-5)
    x, fx, converged = _descend(
        f, x0, _identity_projector, _identity_tangent, gtol=1e-12, max_iter=50
    )
    assert converged is True
    assert fx == 1e8
    assert len(calls) == 2  # the start point and one accepted, non-decreasing trial
    assert np.array_equal(x, x0)


def test_only_running_out_of_iterations_is_unconverged():
    def rosenbrock(x):
        a, b = x
        value = (1 - a) ** 2 + 100 * (b - a * a) ** 2
        grad = np.array([-2 * (1 - a) - 400 * a * (b - a * a), 200 * (b - a * a)])
        return value, grad

    args = (rosenbrock, np.array([-1.2, 1.0]), _identity_projector, _identity_tangent, 1e-8)
    assert _descend(*args, max_iter=3)[2] is False
    x, fx, converged = _descend(*args, max_iter=5000)
    assert converged is True
    assert fx < 1e-12


def test_margin_starts_stop_at_the_floating_point_floor(monkeypatch):
    """n=2, tau=0.25, lam=1, seed 7: two starts used to spin to max_iter (12 838 calls)."""
    calls = []
    original = kaehler.multistart_minimize

    def counting_multistart(value_and_grad, *args, **kwargs):
        return original(counted(value_and_grad, calls), *args, **kwargs)

    monkeypatch.setattr(kaehler, "multistart_minimize", counting_multistart)
    report = impossibility_margin(2, 0.25, 1, starts=16, seed=7)
    assert len(calls) < 2000
    assert report.starts == 17
    assert all(report.converged_per_start)
    assert report.estimate == pytest.approx(impossibility_margin_closed_form(2, 0.25, 1), rel=1e-12)
