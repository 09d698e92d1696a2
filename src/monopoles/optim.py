"""Seeded multistart projected gradient descent, every start in lockstep.

Small shared engine behind the numerical estimates (properness constant,
zero-divisor margin, identity-obstruction margin).  Objectives are smooth
polynomials on R^d, optionally constrained to a product of unit spheres.
Descent is projected gradient with spectral (Barzilai-Borwein) steps and
monotone Armijo backtracking; each start draws its own counter-based Philox
stream, and the reduction over starts is performed in start-index order.
A start stops at the gradient tolerance, or converged at its last point
once no strict decrease is representable at machine precision (see
:func:`_descend`); only a start that runs out of iterations is unconverged.

The starts of one call descend together as the rows of an ``(S, d)``
stack.  Each round makes one objective call on the rows that are
backtracking or starting an iteration, and every row follows its own step
length, Armijo test and stopping rule.  Objectives and projectors take
leading batch axes ``(..., d)`` and compute each row of a stack bit for bit
as the row alone would be computed; their dot products and the engine's
own go through :func:`row_dots`, never ``einsum`` or ``.sum``.  A start's
path is therefore decided by its own numbers alone: its value, flag and
point are the same, bit for bit, whichever starts share its stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = ["OptimizationReport", "multistart_minimize", "row_dots", "sphere_blocks_projector"]


@dataclass(frozen=True)
class OptimizationReport:
    """Outcome of a multistart minimization.

    ``estimate`` is the reported scalar (already post-processed, e.g. a
    square root of the best objective value); ``values_per_start`` holds the
    per-start post-processed values in start order, so
    ``estimate == min(values_per_start)`` whenever at least one start ran.
    ``success`` is ``None`` when no positivity criterion applies.
    ``converged_per_start[i]`` is ``False`` only when start ``i`` ran out of
    ``iterations_per_start`` iterations; a start that met the gradient
    tolerance or could make no strict decrease at machine precision (its
    backtracking reached a step of 1e-18 or one whose whole first-order
    decrease is below ulp(f), or accepted a step that left f unchanged)
    reads ``True``.
    """

    estimate: float
    argmin: object
    starts: int
    seed: int
    iterations_per_start: int
    gradient_tolerance: float
    values_per_start: tuple[float, ...]
    converged_per_start: tuple[bool, ...]
    positivity_floor: float | None = None
    success: bool | None = None

    @classmethod
    def from_squares(
        cls,
        values_sq: Sequence[float],
        converged: tuple[bool, ...],
        argmin,
        *,
        seed: int,
        max_iter: int,
        tol: float,
        positivity_floor: float | None = None,
        judge: bool = True,
    ) -> "OptimizationReport":
        """Report of a minimized squared norm: every value is its square root.

        ``success`` is ``estimate > positivity_floor`` when a floor is given
        and ``judge`` holds, otherwise ``None``.
        """
        values = tuple(math.sqrt(max(v, 0.0)) for v in values_sq)
        estimate = min(values)
        judged = judge and positivity_floor is not None
        return cls(
            estimate=estimate,
            argmin=argmin,
            starts=len(values),
            seed=seed,
            iterations_per_start=max_iter,
            gradient_tolerance=tol,
            values_per_start=values,
            converged_per_start=converged,
            positivity_floor=positivity_floor,
            success=(estimate > positivity_floor) if judged else None,
        )


def _rng(seed: int, index: int) -> np.random.Generator:
    """The Philox stream spawned from ``(seed, index)``: one per start, and one per suite check."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(index,))))


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products ``sum_i a[..., i] b[..., i]`` over the last axis, one per row.

    ``np.matmul`` on ``(..., 1, L) @ (..., L, 1)`` calls, row by row, the
    BLAS dot that ``np.dot`` calls on one row; so each entry equals
    ``np.dot(a_row, b_row)`` bit for bit, ``np.vdot(u, v)`` for
    ``a = u.conj()``, and ``np.linalg.norm(u) ** 2`` before its square root
    for real ``a = b = u``.  ``np.einsum`` and ``.sum`` add in other orders.
    A 1-d pair gives a scalar.
    """
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _identity_projector(x: np.ndarray) -> np.ndarray:
    return x


def _identity_tangent(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    return g


def sphere_blocks_projector(block_sizes: Sequence[int]):
    """Projection/tangent pair for a product of unit spheres.

    ``block_sizes`` are the real dimensions of the consecutive blocks of the
    state vector; each block is normalized independently.  Both maps take
    points with leading batch axes, ``(..., d)``, and treat every row bit
    for bit as they treat the row alone.
    """
    offsets = np.cumsum([0, *block_sizes])
    blocks = [slice(a, b) for a, b in zip(offsets[:-1], offsets[1:])]

    def project(x: np.ndarray) -> np.ndarray:
        y = np.array(x, dtype=float)
        for blk in blocks:
            nrm = np.sqrt(row_dots(y[..., blk], y[..., blk]))
            zero = nrm == 0.0
            y[..., blk] /= np.where(zero, 1.0, nrm)[..., None]
            # arbitrary point of the sphere; never hit in practice
            y[..., blk.start] = np.where(zero, 1.0, y[..., blk.start])
        return y

    def tangent(x: np.ndarray, g: np.ndarray) -> np.ndarray:
        t = np.array(g, dtype=float)
        for blk in blocks:
            t[..., blk] -= row_dots(g[..., blk], x[..., blk])[..., None] * x[..., blk]
        return t

    return project, tangent


def _descend(value_and_grad, x0, project, tangent, gtol, max_iter):
    """Projected gradient descent of every row of ``x0`` (shape ``(S, d)``) in lockstep.

    Per row, the spectral (BB1) step length <s,s>/<s,y> is clipped to
    [1e-12, 1e8] and safeguarded by monotone Armijo backtracking: the trial
    step starts at the last spectral step and halves after each failed
    trial.  Each round evaluates the rows that are backtracking or starting
    an iteration in one ``value_and_grad`` call, which maps ``(k, d)``
    points to ``k`` values and ``(k, d)`` gradients.

    Returns ``(x, f, converged)`` as arrays over the rows.  A row stops
    converged when its projected gradient norm drops below ``gtol`` or when
    no strict decrease is representable at machine precision: backtracking
    accepts a step with ``f_new == f`` because the Armijo decrease has
    fallen below ulp(f), or, after halving, the step ``t`` reaches 1e-18 or
    ``f - t |g|^2 == f``, so that even the whole first-order decrease of
    the next trial is below ulp(f); the row then keeps its last point.
    ``converged`` is ``False`` only for a row whose ``max_iter`` iterations
    ran out, which is checked before the gradient test.
    """
    x = project(np.array(x0, dtype=float))
    f, g = value_and_grad(x)
    f = np.array(f, dtype=float)
    direction = tangent(x, g)
    rows = len(x)
    step = np.ones(rows)
    t = np.empty(rows)
    gnorm = np.empty(rows)
    iterations = np.zeros(rows, dtype=int)
    converged = np.zeros(rows, dtype=bool)
    starting = np.arange(rows)  # rows about to start an iteration
    backtracking = starting[:0]  # rows whose last trial failed the Armijo test
    while True:
        starting = starting[iterations[starting] < max_iter]
        norms = np.sqrt(row_dots(direction[starting], direction[starting]))
        small = norms < gtol
        converged[starting[small]] = True
        starting = starting[~small]
        gnorm[starting] = norms[~small]
        t[starting] = step[starting]
        trial = np.concatenate([backtracking, starting])
        if trial.size == 0:
            return x, f, converged
        x_new = project(x[trial] - t[trial, None] * direction[trial])
        f_new, g_new = value_and_grad(x_new)
        tt, gn = t[trial], gnorm[trial]
        accepted = f_new <= f[trial] - 1e-4 * tt * gn * gn
        decreased = accepted & (f_new < f[trial])
        # an accepted step without strict decrease: the floating-point floor
        converged[trial[accepted & ~decreased]] = True
        failed = trial[~accepted]
        t[failed] *= 0.5
        tf, gf, ff = t[failed], gnorm[failed], f[failed]
        # the floor, before the next trial: not even its whole first-order decrease changes f
        exhausted = (tf <= 1e-18) | (ff - tf * gf * gf == ff)
        converged[failed[exhausted]] = True
        backtracking = failed[~exhausted]
        moved = trial[decreased]
        x_m, f_m = x_new[decreased], f_new[decreased]
        direction_m = tangent(x_m, g_new[decreased])
        s = x_m - x[moved]
        y = direction_m - direction[moved]
        sy = row_dots(s, y)
        positive = sy > 1e-300
        spectral = row_dots(s, s) / np.where(positive, sy, 1.0)
        step_m = np.where(positive, spectral, t[moved] * 2.0)
        step[moved] = np.minimum(np.maximum(step_m, 1e-12), 1e8)
        x[moved], f[moved], direction[moved] = x_m, f_m, direction_m
        iterations[moved] += 1
        starting = moved


def multistart_minimize(
    value_and_grad: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    sample_start: Callable[[np.random.Generator], np.ndarray],
    *,
    starts: int,
    seed: int,
    gradient_tolerance: float,
    max_iter: int,
    project=None,
    tangent=None,
    fixed_starts: Sequence[np.ndarray] = (),
) -> tuple[np.ndarray, tuple[float, ...], tuple[bool, ...]]:
    """Run descent from ``starts`` seeded random points plus ``fixed_starts``.

    All starts descend as one stack (see :func:`_descend`), so
    ``value_and_grad`` maps ``(k, d)`` points to ``k`` values and ``(k, d)``
    gradients, and ``project``/``tangent`` act row by row on ``(k, d)``.
    Returns ``(best_x, objective_values, converged_flags)`` with values in
    start order (fixed starts first).  Start ``i`` uses the Philox stream
    spawned from ``(seed, i)``; the minimum is taken in index order so ties
    resolve deterministically.
    """
    if starts < 1:
        raise ValueError("starts must be >= 1")
    points = [np.asarray(x0, dtype=float) for x0 in fixed_starts]
    points += [sample_start(_rng(seed, i)) for i in range(starts)]
    x, f, converged = _descend(
        value_and_grad,
        np.stack(points),
        project or _identity_projector,
        tangent or _identity_tangent,
        gradient_tolerance,
        max_iter,
    )
    values = tuple(float(v) for v in f)
    best = min(range(len(values)), key=lambda i: (values[i], i))
    return x[best], values, tuple(bool(c) for c in converged)
