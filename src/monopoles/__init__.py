"""Finite-dimensional workbench for PU(N)/U(n) monopole moduli computations.

The library has four computational layers:

* :mod:`monopoles.cohomology` -- exact integer/rational arithmetic in the
  degree-two cohomology of a closed oriented 4-manifold, and the expected
  dimension formulas of the monopole and instanton deformation complexes.
* :mod:`monopoles.mu_kernel` -- the quadratic spinor map built from the
  orthogonal projections onto ``sl(2) (x) sl(n)`` and ``sl(2) (x) C id``,
  with numerically certified properness and zero-divisor margins.
* :mod:`monopoles.kaehler` -- single-fiber linear algebra of the monopole
  equations on a Kahler surface: the trace-interpolating brace operator,
  Clifford action on self-dual forms, curvature-equation splitting, the
  decoupling inequality and the identity-obstruction margin.
* :mod:`monopoles.reductions` -- enumeration of circle-action fixed-point
  candidates (proper subbundle splittings) under Chern-Weil curvature
  windows, Uhlenbeck strata bookkeeping, and the generic tau=0 vanishing
  verdict.

Everything is a pure function of its inputs; randomized estimates are
deterministic given their seed.

The package's names are exported lazily: a submodule is imported the first
time one of its names is read.  The exact layers (``cohomology``,
``reductions``) never load numpy; the numeric layers (``mu_kernel``,
``kaehler``, ``optim``) load it on first use.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the names this package re-exports from it
_EXPORTS = {
    "cohomology": (
        "BundleData", "CohClass2", "FourManifold", "InconsistentTopologyError", "SpincStructure",
        "cup", "dirac_index", "expected_dim_asd", "expected_dim_pun", "expected_dim_un", "p1_su",
    ),
    "kaehler": (
        "PointwiseField", "brace", "clifford_sd", "decoupling_bound", "impossibility_margin",
        "impossibility_margin_closed_form", "mu_kaehler", "verify_curvature_split",
    ),
    "mu_kernel": (
        "BlockEndo", "SpinorPair", "mu", "mu_norm_batch", "outer", "project_P", "project_Q",
        "properness_constant_estimate", "quartic_form", "zero_divisor_margin",
    ),
    "optim": ("OptimizationReport",),
    "reductions": (
        "CurvatureBounds", "InconsistentCandidateError", "ReductionCandidate",
        "chern_weil_c2_window", "component_dims", "enumerate_reductions",
        "generic_tau0_vanishing", "tau_parameter", "uhlenbeck_strata", "whitney_complement",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    """Import the submodule that defines an exported ``name`` and cache the name here."""
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
