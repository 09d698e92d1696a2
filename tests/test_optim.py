"""Stopping rule and lockstep exactness of the shared descent engine."""

import numpy as np
import pytest

import monopoles.kaehler as kaehler
import monopoles.mu_kernel as mu_kernel
from monopoles.kaehler import (
    _impossibility_value_grad,
    impossibility_margin,
    impossibility_margin_closed_form,
)
from monopoles.mu_kernel import (
    _zero_divisor_value_grad,
    properness_constant_estimate,
    properness_value_grad,
    zero_divisor_margin,
)
from monopoles.optim import (
    _descend,
    _identity_projector,
    _identity_tangent,
    multistart_minimize,
    row_dots,
    sphere_blocks_projector,
)


def counted(value_and_grad, rows):
    """``value_and_grad`` that appends the number of points of every call to ``rows``."""

    def wrapped(x):
        rows.append(len(x))
        return value_and_grad(x)

    return wrapped


def test_descent_stops_when_armijo_decrease_is_below_ulp():
    # f = 1e8 + |x|^2 near x = 1e-5: the Armijo decrease 1e-4 t |g|^2 ~ 1e-13
    # is far below ulp(1e8) ~ 1.5e-8, so the accepted step leaves f bitwise equal.
    rows = []
    f = counted(lambda x: (1e8 + row_dots(x, x), 2.0 * x), rows)
    x0 = np.full((1, 3), 1e-5)
    x, fx, converged = _descend(
        f, x0, _identity_projector, _identity_tangent, gtol=1e-12, max_iter=50
    )
    assert converged.tolist() == [True]
    assert fx.tolist() == [1e8]
    assert sum(rows) == 2  # the start point and one accepted, non-decreasing trial
    assert np.array_equal(x, x0)


def test_only_running_out_of_iterations_is_unconverged():
    def rosenbrock(x):
        a, b = x[:, 0], x[:, 1]
        value = (1 - a) ** 2 + 100 * (b - a * a) ** 2
        grad = np.stack([-2 * (1 - a) - 400 * a * (b - a * a), 200 * (b - a * a)], axis=-1)
        return value, grad

    args = (rosenbrock, np.array([[-1.2, 1.0]]), _identity_projector, _identity_tangent, 1e-8)
    assert _descend(*args, max_iter=3)[2].tolist() == [False]
    x, fx, converged = _descend(*args, max_iter=5000)
    assert converged.tolist() == [True]
    assert fx[0] < 1e-12


def test_max_iter_is_checked_before_the_gradient_test():
    # f = |x|^2 / 2: the first step (t = 1) lands on the minimum, gradient 0
    def quadratic(x):
        return 0.5 * row_dots(x, x), x.copy()

    args = (quadratic, np.array([[1.0, 2.0], [3.0, -1.0]]), _identity_projector, _identity_tangent, 1e-8)
    x, fx, converged = _descend(*args, max_iter=1)
    assert fx.tolist() == [0.0, 0.0] and converged.tolist() == [False, False]
    assert _descend(*args, max_iter=2)[2].tolist() == [True, True]


def test_backtracking_gives_up_once_the_step_reaches_1e_18():
    # f is 0 at the start and 1 anywhere else: no trial passes the Armijo test,
    # from t = 1 down to t = 2**-59, the last step above 1e-18
    rows = []
    x0 = np.array([[1.0, -2.0, 0.5]])
    f = counted(lambda x: (np.where((x == x0).all(axis=-1), 0.0, 1.0), np.ones_like(x)), rows)
    x, fx, converged = _descend(f, x0, _identity_projector, _identity_tangent, 1e-12, 50)
    assert converged.tolist() == [True]
    assert sum(rows) == 1 + 60 and np.array_equal(x, x0)


def test_backtracking_stops_once_no_decrease_is_representable():
    # f is 1e8 at the start and 2 ulp above it anywhere else, |g|^2 = 3e-10: after
    # one failed trial, even the whole decrease t |g|^2 of the next is below ulp(1e8).
    # Halving until t <= 1e-18 alone would take 41 evaluations, until the step left x bitwise unmoved.
    rows = []
    x0 = np.array([[1.0, -2.0, 0.5]])
    g = np.full(3, np.sqrt(1e-10))
    above = np.nextafter(np.nextafter(1e8, np.inf), np.inf)
    f = counted(lambda x: (np.where((x == x0).all(axis=-1), 1e8, above), np.broadcast_to(g, x.shape).copy()), rows)
    x, fx, converged = _descend(f, x0, _identity_projector, _identity_tangent, 1e-12, 50)
    assert converged.tolist() == [True] and fx.tolist() == [1e8]
    assert sum(rows) == 2 and np.array_equal(x, x0)


def test_properness_stragglers_stop_at_the_floor(monkeypatch):
    """n=3, tau=1, seed 7: start 5 sits at f = 0.5 with |g| = 2.2e-8, 59 halvings above t = 1e-18."""
    calls = []
    original = mu_kernel.multistart_minimize

    def counting_multistart(value_and_grad, *args, **kwargs):
        return original(counted(value_and_grad, calls), *args, **kwargs)

    monkeypatch.setattr(mu_kernel, "multistart_minimize", counting_multistart)
    report = properness_constant_estimate(3, 1.0, starts=16, seed=7)
    assert len(calls) <= 12  # 64 if only t <= 1e-18 stopped a failing row
    assert all(report.converged_per_start)


def test_margin_starts_stop_at_the_floating_point_floor(monkeypatch):
    """n=2, tau=0.25, lam=1, seed 7: two starts used to spin to max_iter (12 838 evaluations)."""
    rows = []
    original = kaehler.multistart_minimize

    def counting_multistart(value_and_grad, *args, **kwargs):
        return original(counted(value_and_grad, rows), *args, **kwargs)

    monkeypatch.setattr(kaehler, "multistart_minimize", counting_multistart)
    report = impossibility_margin(2, 0.25, 1, starts=16, seed=7)
    assert sum(rows) < 2000
    assert report.starts == 17
    assert all(report.converged_per_start)
    assert report.estimate == pytest.approx(impossibility_margin_closed_form(2, 0.25, 1), rel=1e-12)


# -- lockstep exactness --------------------------------------------------------


def serial_descend(value_and_grad, x0, project, tangent, gtol, max_iter):
    """One start at a time: the engine before the starts were stacked, kept as an oracle.

    ``value_and_grad``, ``project`` and ``tangent`` are called on single points.
    """
    x = project(np.asarray(x0, dtype=float))
    f, g = value_and_grad(x)
    direction = tangent(x, g)
    step = 1.0
    converged = False
    for _ in range(max_iter):
        gnorm = float(np.linalg.norm(direction))
        if gnorm < gtol:
            converged = True
            break
        accepted = False
        t = step
        while True:
            x_new = project(x - t * direction)
            f_new, g_new = value_and_grad(x_new)
            if f_new <= f - 1e-4 * t * gnorm * gnorm:
                accepted = True
                break
            t *= 0.5
            if t <= 1e-18 or f - t * gnorm * gnorm == f:
                break
        if not accepted or not f_new < f:
            converged = True
            break
        direction_new = tangent(x_new, g_new)
        s = x_new - x
        y = direction_new - direction
        sy = float(np.dot(s, y))
        step = float(np.dot(s, s)) / sy if sy > 1e-300 else t * 2.0
        step = min(max(step, 1e-12), 1e8)
        x, f, direction = x_new, f_new, direction_new
    return x, float(f), converged


def _start_points(sample, starts, seed, fixed=()):
    points = [np.asarray(p, dtype=float) for p in fixed]
    for i in range(starts):
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        )
        points.append(sample(rng))
    return np.stack(points)


def _problems():
    """(name, objective, sampler, projector pair, fixed starts, gtol, max_iter) of the three estimators."""
    out = []
    for n, tau in ((1, 0.0), (2, 0.0), (2, 0.5), (3, 1.0), (4, 0.25)):
        out.append((f"properness-n{n}-tau{tau}", properness_value_grad(n, tau),
                    lambda rng, n=n: rng.standard_normal(4 * n),
                    sphere_blocks_projector([4 * n]), (), 1e-8, 2000))
    for n, tau in ((1, 0.5), (2, 0.0), (3, 0.5), (4, 1.0)):
        out.append((f"zero_divisor-n{n}-tau{tau}", _zero_divisor_value_grad(n, tau),
                    lambda rng, n=n: rng.standard_normal(8 * n),
                    sphere_blocks_projector([4 * n, 4 * n]), (), 1e-8, 2000))
    for n, tau, lam in ((2, 0.25, 1.0), (2, 1.0, 0.0), (3, 0.05, 3 - 4j), (4, 0.5, 1e3)):
        scale = 1.0 + abs(lam)
        out.append((f"margin-n{n}-tau{tau}-lam{lam}", _impossibility_value_grad(n, tau, complex(lam)),
                    lambda rng, n=n, scale=scale: scale * rng.standard_normal(4 * n),
                    (_identity_projector, _identity_tangent), (np.zeros(4 * n),), 1e-10, 4000))
    return out


PROBLEMS = _problems()


@pytest.mark.parametrize(
    "estimate, budget",
    [
        (lambda: properness_constant_estimate(2, 0.5, starts=1), (2000, 1e-8, 1e-3)),
        (lambda: zero_divisor_margin(2, 0.5, starts=1), (2000, 1e-8, 1e-3)),
        (lambda: impossibility_margin(2, 0.5, 1.0, starts=1), (4000, 1e-10, None)),
    ],
    ids=["properness", "zero_divisor", "identity_margin"],
)
def test_each_certificate_reports_its_fixed_budget(estimate, budget):
    """(iterations per start, gradient tolerance, positivity floor) of each certificate."""
    report = estimate()
    assert (report.iterations_per_start, report.gradient_tolerance, report.positivity_floor) == budget


@pytest.mark.parametrize("problem", PROBLEMS, ids=[p[0] for p in PROBLEMS])
def test_multistart_equals_one_start_runs_bit_for_bit(problem):
    """S stacked starts give the values, flags and winning point of S one-start runs."""
    _, value_and_grad, sample, (project, tangent), fixed, gtol, max_iter = problem
    for starts, seed in ((1, 0), (5, 3), (12, 7)):
        best_x, values, flags = multistart_minimize(
            value_and_grad, sample, starts=starts, seed=seed, gradient_tolerance=gtol,
            max_iter=max_iter, project=project, tangent=tangent, fixed_starts=fixed,
        )
        points = _start_points(sample, starts, seed, fixed)
        alone = [
            _descend(value_and_grad, p[None, :], project, tangent, gtol, max_iter)
            for p in points
        ]
        serial = [serial_descend(value_and_grad, p, project, tangent, gtol, max_iter) for p in points]
        assert values == tuple(float(f[0]) for _, f, _ in alone)
        assert values == tuple(f for _, f, _ in serial)
        assert flags == tuple(bool(c[0]) for _, _, c in alone)
        assert flags == tuple(c for _, _, c in serial)
        best = min(range(len(values)), key=lambda i: (values[i], i))
        assert np.array_equal(best_x, alone[best][0][0])
        assert np.array_equal(best_x, serial[best][0])


def test_stack_rows_do_not_depend_on_their_neighbours():
    """A row's path is the same whichever rows share its stack and in which order."""
    value_and_grad = properness_value_grad(3, 0.5)
    project, tangent = sphere_blocks_projector([12])
    points = np.random.default_rng(11).standard_normal((9, 12))
    x, f, c = _descend(value_and_grad, points, project, tangent, 1e-8, 2000)
    order = np.array([4, 0, 8, 2])
    xs, fs, cs = _descend(value_and_grad, points[order], project, tangent, 1e-8, 2000)
    assert np.array_equal(xs, x[order]) and np.array_equal(fs, f[order]) and np.array_equal(cs, c[order])


def test_evaluated_rows_follow_the_active_starts():
    """One objective call per round, on the rows still backtracking or starting an iteration."""
    rows = []
    value_and_grad = counted(properness_value_grad(2, 0.5), rows)
    project, tangent = sphere_blocks_projector([8])
    points = np.random.default_rng(3).standard_normal((6, 8))
    _descend(value_and_grad, points, project, tangent, 1e-8, 2000)
    assert rows[0] == 6 and rows[-1] >= 1
    assert rows == sorted(rows, reverse=True)  # a row leaves the stack only when it stops
    alone = []
    for p in points:
        per_row = []
        _descend(counted(properness_value_grad(2, 0.5), per_row), p[None, :], project, tangent, 1e-8, 2000)
        alone.append(sum(per_row))
    assert sum(rows) == sum(alone)
    assert len(rows) == max(alone)


@pytest.mark.parametrize("length", [1, 3, 4, 7, 8, 15, 16, 17, 31, 32, 33, 40])
def test_row_dots_equal_single_row_blas_calls(length):
    rng = np.random.default_rng(length)
    a, b = rng.standard_normal((2, 6, length + 2)) * 10.0 ** rng.integers(-6, 6, size=(2, 6, 1))
    a, b = a[:, 1 : length + 1], b[:, 1 : length + 1]  # rows of a strided view
    dots = row_dots(a, b)
    norms = np.sqrt(row_dots(a, a))
    u = a + 1j * b[::-1]
    w = b - 1j * a[::-1]
    vdots = row_dots(u.conj(), w)
    for i in range(6):
        assert dots[i] == np.dot(a[i], b[i])
        assert norms[i] == np.linalg.norm(a[i])
        assert vdots[i] == np.vdot(u[i], w[i])
    assert row_dots(a[0], b[0]) == np.dot(a[0], b[0])


@pytest.mark.parametrize("sizes", [[4], [12], [16, 16], [8, 8], [20]])
def test_sphere_projector_rows_match_single_points(sizes):
    project, tangent = sphere_blocks_projector(sizes)
    rng = np.random.default_rng(sum(sizes))
    x = rng.standard_normal((2, 5, sum(sizes)))
    g = rng.standard_normal((2, 5, sum(sizes)))
    x[1, 3, : sizes[0]] = 0.0  # a zero block goes to a fixed point of the sphere
    px, tg = project(x), tangent(x, g)
    for i in range(2):
        for j in range(5):
            one = project(x[i, j])
            assert np.array_equal(px[i, j], one)
            assert np.array_equal(tg[i, j], tangent(x[i, j], g[i, j]))
            at = 0
            for size in sizes:
                blk = x[i, j, at : at + size]
                nrm = np.linalg.norm(blk)
                want = blk / nrm if nrm else np.eye(size)[0]
                assert np.array_equal(one[at : at + size], want)
                want_t = g[i, j, at : at + size] - np.dot(g[i, j, at : at + size], blk) * blk
                assert np.array_equal(tg[i, j, at : at + size], want_t)
                at += size
