"""Finite models of bounded rank-one perturbations: Herglotz transforms,
perturbed spectra, and sampling/interpolation of the associated meromorphic
functions."""

from importlib import import_module as _import_module

from .errors import (
    DimensionMismatch,
    InconsistentNodes,
    InsufficientCoefficients,
    NonPositiveWeight,
    NormalizationRequired,
    NotAZero,
    NumericalError,
    PoleMismatch,
    PoleProximity,
    QuadratureNonConvergence,
    QZero,
    RealPoint,
    SpectralError,
    UnsortedEigenvalues,
    ValidationError,
    ZeroOfF,
)
from .herglotz import XiVector, weyl, weyl_h, xi, xi_norm_sq
from .model import (
    Coupling,
    MeromorphicRep,
    SampleSet,
    SpectralModel,
    StateVector,
    new_model,
    normalize,
)
from .perturbation import (
    compression_spectrum,
    node_weights,
    perturbed_model,
    perturbed_spectrum,
)
from .sampling import (
    apply_perturbed,
    blaschke_swap,
    conjugate_state,
    evaluate_rep,
    from_partial_fractions,
    inner_h,
    kramer_reconstruct,
    mu_inner,
    mu_state,
    omega_state,
    reconstruct,
    sample,
    to_partial_fractions,
    transform,
)

# Layers that only some commands use load on first access (PEP 562), so
# that importing the package, and the CLI, does not compile them.
_LAZY = {
    "jacobi": ("JacobiParams", "PolynomialEval", "jm_reconstruct", "polys",
               "sturm_count", "truncate", "weyl_approx"),
    "oscillator": ("hermite_overlap", "mu_pointwise", "osc_F_integral",
                   "osc_F_series", "osc_F_tail_bound", "oscillator_model"),
    "verify": ("run_verification",),
}
_OWNER = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    if name in _LAZY:
        return _import_module(f".{name}", __name__)
    if name in _OWNER:
        return getattr(_import_module(f".{_OWNER[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = sorted({name for name in dir() if not name.startswith("_")}
                 | set(_LAZY) | set(_OWNER))
