"""Core immutable data types: spectral models, couplings, states, samples.

A finite spectral model holds strictly increasing eigenvalues and strictly
positive cyclic-vector weights.  Everything else in the package (Borel
transforms, perturbed spectra, sampling sets) is derived from these two
sequences.
"""
from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    NonPositiveWeight,
    UnsortedEigenvalues,
    ValidationError,
)

# Weights below this are treated as a loss of cyclicity, not as data.
_WEIGHT_FLOOR = 1e-300

# The door (_door): a model's weights, a sample set's masses and numerators
# and a partial-fraction form's coefficients may not sum to this or past it,
# nor a state's numerators sqrt(w_j) phi_j with any model.
# Below it no term c_j/d_j or c_j/d_j^2 (|d_j| >= r > 2^-27), nor their sum,
# nor a stacked row of them (scaled to 2^bits, bits < 40, over its largest
# term) can pass the doubles: 2^(1023 - 54 - 40).
_QUIET = 2.0 ** 929


def _numbers(values, dtype, what: str) -> np.ndarray:
    """A copy of values as an array of dtype, float or complex.
    ValidationError naming what where they do not convert or are not
    numbers: strings, objects and booleans are not."""
    try:
        raw = np.array(values)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{what} must be numbers: {exc}") from None
    if raw.dtype.kind not in ("iufc" if dtype is complex else "iuf"):
        raise ValidationError(f"{what} must be numbers, not {raw.dtype}")
    return raw.astype(dtype, copy=False)


def _array(values, dtype, what: str) -> np.ndarray:
    """The input rule of every data type: a read-only 1-d copy of values as
    dtype (_numbers).  ValidationError naming what where an entry is not
    finite, DimensionMismatch where they are not 1-d."""
    out = _numbers(values, dtype, what)
    if out.ndim != 1:
        raise DimensionMismatch(f"{what} must be a 1-d sequence")
    if not np.isfinite(out).all():
        raise ValidationError(f"{what} must be finite")
    out.flags.writeable = False
    return out


def _increasing(values, what: str) -> np.ndarray:
    """_array of floats, strictly increasing (UnsortedEigenvalues)."""
    out = _array(values, float, what)
    if (out[1:] <= out[:-1]).any():
        raise UnsortedEigenvalues(f"{what} must be strictly increasing")
    return out


def _largest(values: np.ndarray) -> float:
    """The largest |part| of the entries of a float or complex array."""
    parts = np.ascontiguousarray(values).view(float)
    return float(np.abs(parts).max(initial=0.0))


def _door(bound: float, what: str, bits: int = 929) -> None:
    """ValidationError naming normalize where bound, a bound on the sums of
    a data type's point kernel (what), is at or past 2^bits: _QUIET, or
    2^464 for a state's norm."""
    if not bound < 2.0 ** bits:
        raise ValidationError(f"{what} {bound:.6g}, at or past 2^{bits}: "
                              "scale the data down, as normalize does a model")


def _number(value, kind, what: str):
    """kind(value), float or complex, by the rule of _array: a str, bytes
    or bool is not a number.  Every point evaluator takes its point by it."""
    if isinstance(value, (str, bytes, bool)):
        raise ValidationError(
            f"{what} must be a number, not {type(value).__name__}")
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{what} must be a number: {exc}") from None
    if not cmath.isfinite(out):
        raise ValidationError(f"{what} must be finite, not {out}")
    return out


def _count(value, what: str, least: int) -> int:
    """value as an int by operator.index, at least least: ValidationError
    naming what where it is a bool, not an integer, or smaller."""
    if isinstance(value, (bool, np.bool_)):
        raise ValidationError(f"{what} must be an integer, not a bool")
    try:
        out = operator.index(value)
    except TypeError:
        raise ValidationError(f"{what} must be an integer, not "
                              f"{type(value).__name__}") from None
    if out < least:
        raise ValidationError(f"{what} must be at least {least}")
    return out


@dataclass(frozen=True)
class SpectralModel:
    """Eigenvalues and cyclic-vector weights of a finite self-adjoint model."""

    eigenvalues: np.ndarray
    weights: np.ndarray
    mu_norm_sq: float = field(init=False)
    sqrt_weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lam = _increasing(self.eigenvalues, "eigenvalues")
        w = _array(self.weights, float, "weights")
        if lam.size != w.size:
            raise DimensionMismatch(f"eigenvalues ({lam.size}) and weights "
                                    f"({w.size}) must have equal length")
        if lam.size < 2:
            raise ValidationError("model dimension must be at least 2")
        if (w <= _WEIGHT_FLOOR).any():
            raise NonPositiveWeight("all weights must be strictly positive")
        if float(lam[-1]) - float(lam[0]) == math.inf:
            raise ValidationError(
                "the eigenvalues spread past the largest double")
        try:
            total = math.fsum(w.tolist())
        except OverflowError:
            total = math.inf
        _door(total, "the weights sum to")
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

    # Each point kernel (herglotz.PoleSet) is held from its first use, so
    # that building the object does not pay for it.
    @cached_property
    def _poles(self):
        from .herglotz import PoleSet
        return PoleSet(self.eigenvalues, self.weights)


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
        return Coupling(_number(h, float, "coupling"))

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
        coords = _array(self.coords, complex, "coords")
        # A norm below 2^464 keeps sum_j |sqrt(w_j) phi_j| <= sqrt(total
        # weight) |phi| (Cauchy-Schwarz) below _QUIET with every model.
        _door(math.sqrt(2 * coords.size) * _largest(coords),
              "the coords may have a norm of", 464)
        object.__setattr__(self, "coords", coords)

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
        h = _number(self.h, float, "h")
        x = _increasing(self.nodes, "nodes")
        m = _array(self.node_weights, float, "node_weights")
        v = _array(self.values, complex, "values")
        if x.size != m.size or x.size != v.size:
            raise DimensionMismatch(
                "nodes, node_weights and values must have equal length"
            )
        if x.size == 0:
            raise ValidationError("a sample set needs at least one node")
        if (m <= 0.0).any():
            raise NonPositiveWeight("node weights must be strictly positive")
        # sum m_j <= n max m_j, and |m_j f(x_j)| <= 1.5 m_j times a
        # value's largest part.
        _door(m.size * float(m.max()) * max(1.0, 1.5 * _largest(v)),
              "the node weights and numerators may sum to")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "nodes", x)
        object.__setattr__(self, "node_weights", m)
        object.__setattr__(self, "values", v)

    @property
    def size(self) -> int:
        return self.nodes.size

    # Held for reconstruct from its first call on, so that building a
    # sample set does not pay for it.
    @cached_property
    def _numerators(self) -> np.ndarray:
        """m_j f(x_j), the numerators of the barycentric quotient."""
        num = self.node_weights * self.values
        num.flags.writeable = False
        return num

    @cached_property
    def _poles(self):
        from .herglotz import PoleSet, _pole_of_f
        return PoleSet(self.nodes, self.node_weights, "sampling node",
                       _pole_of_f)

@dataclass(frozen=True)
class MeromorphicRep:
    """Partial-fraction form: a constant plus simple poles on the real line."""

    constant: complex
    poles: np.ndarray
    coefficients: np.ndarray

    def __post_init__(self):
        x = _increasing(self.poles, "poles")
        c = _array(self.coefficients, complex, "coefficients")
        if x.size != c.size:
            raise DimensionMismatch("poles and coefficients must have equal length")
        _door(2 * c.size * _largest(c), "the coefficients may sum to")
        object.__setattr__(self, "constant",
                           _number(self.constant, complex, "constant"))
        object.__setattr__(self, "poles", x)
        object.__setattr__(self, "coefficients", c)

    @cached_property
    def _poles(self):  # of a non-empty set of poles, for its guard
        from .herglotz import PoleSet
        return PoleSet(self.poles, None, "pole of the representation")
