"""Core immutable data types: spectral models, couplings, states, samples.

A finite spectral model holds strictly increasing eigenvalues and strictly
positive cyclic-vector weights.  Everything else in the package (Borel
transforms, perturbed spectra, sampling sets) is derived from these two
sequences.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    NonPositiveWeight,
    UnsortedEigenvalues,
    ValidationError,
)

# Weights below this are treated as a loss of cyclicity, not as data.
_WEIGHT_FLOOR = 1e-300


def _frozen(values, dtype) -> np.ndarray:
    """A read-only copy of values as an array of dtype, so a data type
    neither changes with nor freezes the caller's array."""
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class SpectralModel:
    """Eigenvalues and cyclic-vector weights of a finite self-adjoint model."""

    eigenvalues: np.ndarray
    weights: np.ndarray
    mu_norm_sq: float = field(init=False)
    sqrt_weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lam = _frozen(self.eigenvalues, float)
        w = _frozen(self.weights, float)
        if lam.ndim != 1 or w.ndim != 1 or lam.size != w.size:
            raise DimensionMismatch(
                f"eigenvalues ({lam.size}) and weights ({w.size}) must be "
                "1-d sequences of equal length"
            )
        if lam.size < 2:
            raise ValidationError("model dimension must be at least 2")
        if not np.all(np.isfinite(lam)):
            raise UnsortedEigenvalues("eigenvalues must be finite")
        if np.any(np.diff(lam) <= 0.0):
            raise UnsortedEigenvalues("eigenvalues must be strictly increasing")
        if not np.all(np.isfinite(w)) or np.any(w <= _WEIGHT_FLOOR):
            raise NonPositiveWeight("all weights must be strictly positive")
        try:
            total = math.fsum(w.tolist())
        except OverflowError:
            raise ValidationError(
                "the weights sum past the largest double"
            ) from None
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "mu_norm_sq", total)
        root = np.sqrt(w)
        root.flags.writeable = False
        object.__setattr__(self, "sqrt_weights", root)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    @property
    def scale(self) -> float:
        """Length scale used for root and node tolerances."""
        return max(1.0, float(self.eigenvalues[-1] - self.eigenvalues[0]))


def new_model(eigenvalues, weights) -> SpectralModel:
    """Validate and build a spectral model from raw sequences."""
    return SpectralModel(eigenvalues, weights)


def normalize(model: SpectralModel) -> SpectralModel:
    """Rescale weights so the total weight is exactly one."""
    return SpectralModel(model.eigenvalues, model.weights / model.mu_norm_sq)


@dataclass(frozen=True)
class Coupling:
    """A finite real coupling constant, or the symbolic infinite coupling."""

    value: float | None

    @staticmethod
    def finite(h: float) -> "Coupling":
        h = float(h)
        if not math.isfinite(h):
            raise ValidationError("finite coupling must be a finite real number")
        return Coupling(h)

    @staticmethod
    def infinite() -> "Coupling":
        return Coupling(None)

    @property
    def is_infinite(self) -> bool:
        return self.value is None


@dataclass(frozen=True)
class StateVector:
    """A vector expressed in the eigenbasis of the unperturbed operator."""

    coords: np.ndarray

    def __post_init__(self):
        c = _frozen(self.coords, complex)
        if c.ndim != 1:
            raise DimensionMismatch("state coordinates must be a 1-d sequence")
        if not np.all(np.isfinite(c)):
            raise ValidationError("state coordinates must be finite")
        object.__setattr__(self, "coords", c)

    @property
    def dim(self) -> int:
        return self.coords.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.coords))


def check_dims(model: SpectralModel, phi: StateVector) -> None:
    if phi.dim != model.dim:
        raise DimensionMismatch(
            f"state dimension {phi.dim} != model dimension {model.dim}"
        )


@dataclass(frozen=True)
class SampleSet:
    """Sampling nodes, point masses, and sampled values at a finite coupling.

    Self-contained input for Lagrange reconstruction: the generating model
    is not needed, only (h, nodes, node_weights, values).
    """

    h: float
    nodes: np.ndarray
    node_weights: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        h = float(self.h)
        if not math.isfinite(h):
            raise ValidationError("sample sets require a finite coupling")
        x = _frozen(self.nodes, float)
        m = _frozen(self.node_weights, float)
        v = _frozen(self.values, complex)
        if x.ndim != 1 or x.size != m.size or x.size != v.size:
            raise DimensionMismatch(
                "nodes, node_weights and values must have equal length"
            )
        if x.size == 0:
            raise ValidationError("a sample set needs at least one node")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
            raise ValidationError("nodes and values must be finite")
        if np.any(np.diff(x) <= 0.0):
            raise UnsortedEigenvalues("nodes must be strictly increasing")
        if np.any(m <= 0.0) or not np.all(np.isfinite(m)):
            raise NonPositiveWeight("node weights must be strictly positive")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "nodes", x)
        object.__setattr__(self, "node_weights", m)
        object.__setattr__(self, "values", v)

    @property
    def size(self) -> int:
        return self.nodes.size


@dataclass(frozen=True)
class MeromorphicRep:
    """Partial-fraction form: a constant plus simple poles on the real line."""

    constant: complex
    poles: np.ndarray
    coefficients: np.ndarray

    def __post_init__(self):
        x = _frozen(self.poles, float)
        c = _frozen(self.coefficients, complex)
        if x.ndim != 1 or x.size != c.size:
            raise DimensionMismatch("poles and coefficients must have equal length")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(c))):
            raise ValidationError("poles and coefficients must be finite")
        if np.any(np.diff(x) <= 0.0):
            raise UnsortedEigenvalues("poles must be strictly increasing")
        object.__setattr__(self, "constant", complex(self.constant))
        object.__setattr__(self, "poles", x)
        object.__setattr__(self, "coefficients", c)
