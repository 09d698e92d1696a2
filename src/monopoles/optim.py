"""Seeded multistart projected gradient descent.

Small shared engine behind the numerical estimates (properness constant,
zero-divisor margin, identity-obstruction margin).  Objectives are smooth
polynomials on R^d, optionally constrained to a product of unit spheres.
Descent is plain projected gradient with Armijo backtracking; each start
draws its own counter-based Philox stream, so results are bit-identical no
matter how the starts would be scheduled, and the reduction over starts is
performed in start-index order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = ["OptimizationReport", "multistart_minimize", "sphere_blocks_projector"]


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
    tolerance or could make no strict decrease at machine precision reads
    ``True``.
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

    def as_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "argmin": self.argmin,
            "starts": self.starts,
            "seed": self.seed,
            "iterations_per_start": self.iterations_per_start,
            "gradient_tolerance": self.gradient_tolerance,
            "values_per_start": list(self.values_per_start),
            "converged_per_start": list(self.converged_per_start),
            "positivity_floor": self.positivity_floor,
            "success": self.success,
        }


def _identity_projector(x: np.ndarray) -> np.ndarray:
    return x


def _identity_tangent(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    return g


def sphere_blocks_projector(block_sizes: Sequence[int]):
    """Projection/tangent pair for a product of unit spheres.

    ``block_sizes`` are the real dimensions of the consecutive blocks of the
    state vector; each block is normalized independently.
    """
    offsets = np.cumsum([0, *block_sizes])

    def project(x: np.ndarray) -> np.ndarray:
        y = x.copy()
        for a, b in zip(offsets[:-1], offsets[1:]):
            nrm = np.linalg.norm(y[a:b])
            if nrm == 0.0:
                y[a] = 1.0  # arbitrary point of the sphere; never hit in practice
                nrm = 1.0
            else:
                y[a:b] /= nrm
        return y

    def tangent(x: np.ndarray, g: np.ndarray) -> np.ndarray:
        t = g.copy()
        for a, b in zip(offsets[:-1], offsets[1:]):
            t[a:b] -= np.dot(g[a:b], x[a:b]) * x[a:b]
        return t

    return project, tangent


def _descend(value_and_grad, x0, project, tangent, gtol, max_iter, gauge=None):
    """Projected gradient descent with spectral (Barzilai-Borwein) steps.

    The BB1 step length <s,s>/<s,y> is clipped to [1e-12, 1e8] and
    safeguarded by monotone Armijo backtracking, converging far faster than
    a fixed-step scheme on these quartic objectives.

    Returns ``(x, f, converged)``.  The descent stops converged when the
    projected gradient norm drops below ``gtol`` or when no strict decrease
    is representable at machine precision: backtracking accepts no step, or
    it accepts one with ``f_new == f`` because the Armijo decrease has
    fallen below ulp(f).  ``converged`` is ``False`` only when ``max_iter``
    iterations ran out.
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
        while t > 1e-18:
            x_new = project(x - t * direction)
            f_new, g_new = value_and_grad(x_new)
            if f_new <= f - 1e-4 * t * gnorm * gnorm:
                accepted = True
                break
            t *= 0.5
        if not accepted or not f_new < f:
            # no decrease representable at machine precision
            converged = True
            break
        if gauge is not None:
            x_new = gauge(x_new)
            f_new, g_new = value_and_grad(x_new)
        direction_new = tangent(x_new, g_new)
        s = x_new - x
        y = direction_new - direction
        sy = float(np.dot(s, y))
        step = float(np.dot(s, s)) / sy if sy > 1e-300 else t * 2.0
        step = min(max(step, 1e-12), 1e8)
        x, f, direction = x_new, f_new, direction_new
    return x, f, converged


def multistart_minimize(
    value_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    sample_start: Callable[[np.random.Generator], np.ndarray],
    *,
    starts: int,
    seed: int,
    gradient_tolerance: float = 1e-8,
    max_iter: int = 2000,
    project=None,
    tangent=None,
    gauge=None,
    fixed_starts: Sequence[np.ndarray] = (),
) -> tuple[np.ndarray, tuple[float, ...], tuple[bool, ...]]:
    """Run descent from ``starts`` seeded random points plus ``fixed_starts``.

    Returns ``(best_x, objective_values, converged_flags)`` with values in
    start order (fixed starts first).  Start ``i`` uses the Philox stream
    spawned from ``(seed, i)``; the minimum is taken in index order so ties
    resolve deterministically.
    """
    if starts < 1:
        raise ValueError("starts must be >= 1")
    project = project or _identity_projector
    tangent = tangent or _identity_tangent
    xs, values, flags = [], [], []
    initial_points = list(fixed_starts)
    for i in range(starts):
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        )
        initial_points.append(sample_start(rng))
    for x0 in initial_points:
        x, f, ok = _descend(
            value_and_grad, x0, project, tangent, gradient_tolerance, max_iter, gauge
        )
        xs.append(x)
        values.append(float(f))
        flags.append(ok)
    best = min(range(len(values)), key=lambda i: (values[i], i))
    return xs[best], tuple(values), tuple(flags)
