"""Finite models of bounded rank-one perturbations: Herglotz transforms,
perturbed spectra, and sampling/interpolation of the associated meromorphic
functions."""

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
from .jacobi import (
    JacobiParams,
    PolynomialEval,
    jm_reconstruct,
    polys,
    sturm_count,
    truncate,
    weyl_approx,
)
from .model import (
    Coupling,
    MeromorphicRep,
    SampleSet,
    SpectralModel,
    StateVector,
    new_model,
    normalize,
)
from .oscillator import (
    hermite_overlap,
    mu_pointwise,
    osc_F_integral,
    osc_F_series,
    osc_F_tail_bound,
    oscillator_model,
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
from .verify import run_verification

__all__ = [name for name in dir() if not name.startswith("_")]
