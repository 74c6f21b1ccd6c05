"""The vector-to-function transform, sampling, and reconstruction formulas.

A state phi maps to the meromorphic function
    f(z) = (1/F(z)) * sum_j sqrt(w_j) phi_j / (lam_j - z),
whose poles lie at the zeros of F.  Values of f on the spectrum of any
finitely-coupled perturbation determine f everywhere; reconstruction is
implemented both in Lagrange form (self-contained from the samples) and in
Kramer form (an independent cross-check that uses the model).
"""
from __future__ import annotations

import math

import numpy as np

from .errors import (
    NormalizationRequired,
    NotAZero,
    PoleMismatch,
    PoleProximity,
    RealPoint,
    ValidationError,
)
from .herglotz import (
    _csum,
    _weyl_raw,
    _xi_coords_raw,
    check_pole_distance,
    _check_zero_of_f,
    xi,
)
from .model import (
    Coupling,
    MeromorphicRep,
    SampleSet,
    SpectralModel,
    StateVector,
    check_dims,
)
from .perturbation import compression_spectrum, node_weights, perturbed_spectrum


def mu_state(model: SpectralModel) -> StateVector:
    """The cyclic vector itself, in eigenbasis coordinates."""
    return StateVector(model.sqrt_weights.astype(complex))


def mu_inner(model: SpectralModel, phi: StateVector) -> complex:
    """<mu, phi> (inner product anti-linear in the first argument)."""
    return _csum(model.sqrt_weights * phi.coords)


def _transform_raw(model: SpectralModel, phi: StateVector, z: complex) -> complex:
    """f(z) without exclusion checks; nodes of the perturbed spectra are
    regular points of f even when they hug an eigenvalue."""
    d = model.eigenvalues - z
    dist = np.abs(d)
    k = int(dist.argmin())
    if dist[k] < 1e-13 * model.scale and abs(z.imag) < 1e-13 * model.scale:
        # Removable singularity at an eigenvalue: residue ratio.
        return complex(phi.coords[k] / math.sqrt(model.weights[k]))
    f, _ = _weyl_raw(model, z)
    return _csum(model.sqrt_weights * phi.coords / d) / f


def transform(model: SpectralModel, phi: StateVector, z: complex) -> complex:
    """Evaluate the image function of phi at z (equals <xi(z), phi>)."""
    check_dims(model, phi)
    z = complex(z)
    check_pole_distance(model, z)
    f, fp = _weyl_raw(model, z)
    _check_zero_of_f(model, z, f, fp)
    return _csum(model.sqrt_weights * phi.coords / (model.eigenvalues - z)) / f


def sample(model: SpectralModel, phi: StateVector, h: float) -> SampleSet:
    """Sample the image of phi on the spectrum of the h-coupled operator."""
    check_dims(model, phi)
    h = float(h)
    if not math.isfinite(h):
        raise ValidationError("sampling requires a finite coupling")
    nodes = perturbed_spectrum(model, Coupling.finite(h))
    weights = node_weights(model, h, nodes)
    values = np.array([_transform_raw(model, phi, complex(x)) for x in nodes])
    return SampleSet(h=h, nodes=nodes, node_weights=weights, values=values)


def _sample_radius(samples: SampleSet) -> float:
    return 1e-8 * max(1.0, float(samples.nodes[-1] - samples.nodes[0]))


def reconstruct(samples: SampleSet, z: complex) -> complex:
    """Lagrange reconstruction from the samples alone.

    The node data determines F_h(z) = sum m_j/(x_j - z), hence
    G_h = 1/F_h and G_h'(x_j) = -1/m_j; no model is needed.
    """
    z = complex(z)
    r = _sample_radius(samples)
    d = z - samples.nodes
    if np.abs(d).min() < r:
        raise PoleProximity(f"z={z} is within {r:.3e} of a sampling node")
    f_h = _csum(samples.node_weights / (samples.nodes - z))
    fp_h = _csum(samples.node_weights / (samples.nodes - z) ** 2)
    if abs(z.imag) < r and abs(f_h) < r * abs(fp_h):
        raise PoleProximity(
            f"z={z} is too close to a pole of the reconstructed function"
        )
    g_h = 1.0 / f_h
    # G_h'(x_j) = -1/m_j turns the Lagrange weight into -m_j G_h(z)/(z - x_j).
    return _csum(samples.node_weights * samples.values * (-g_h / d))


def kramer_reconstruct(model: SpectralModel, samples: SampleSet,
                       z: complex) -> complex:
    """Orthogonal-expansion reconstruction using explicit xi vectors."""
    z = complex(z)
    xi_z = xi(model, z).coords
    total = 0.0 + 0.0j
    for x, value in zip(samples.nodes, samples.values):
        xi_x = _xi_coords_raw(model, complex(x))
        overlap = _csum(np.conj(xi_z) * xi_x)
        norm_sq = math.fsum(np.abs(xi_x) ** 2)
        total += overlap * value / norm_sq
    return total


_UNIT_WEIGHT_TOL = 1e-12


def omega_state(model: SpectralModel, pole: float) -> StateVector:
    """Eigenvector of the infinitely-coupled operator at one of its
    eigenvalues, with coordinates sqrt(w_j)/(lam_j - pole)."""
    return StateVector(
        (model.sqrt_weights / (model.eigenvalues - pole)).astype(complex)
    )


def to_partial_fractions(model: SpectralModel,
                         phi: StateVector) -> MeromorphicRep:
    """Expand the image of phi as constant + simple poles.

    Requires unit total weight so that mu and the normalized omega vectors
    form an orthonormal basis.
    """
    check_dims(model, phi)
    if abs(model.mu_norm_sq - 1.0) > _UNIT_WEIGHT_TOL:
        raise NormalizationRequired(
            f"total weight {model.mu_norm_sq!r} != 1; normalize the model first"
        )
    poles = compression_spectrum(model)
    c = mu_inner(model, phi)
    coeffs = np.empty(poles.size, dtype=complex)
    for n, x in enumerate(poles):
        omega = model.sqrt_weights / (model.eigenvalues - x)
        # ||omega||^2 = F'(x) at a zero of F.
        coeffs[n] = _csum(omega * phi.coords) / math.fsum(omega * omega)
    return MeromorphicRep(constant=c, poles=poles, coefficients=coeffs)


def from_partial_fractions(model: SpectralModel,
                           rep: MeromorphicRep) -> StateVector:
    """Preimage of a partial-fraction function under the transform."""
    poles = compression_spectrum(model)
    if rep.poles.size != poles.size or (
        rep.poles.size
        and np.max(np.abs(rep.poles - poles)) > 1e-9 * model.scale
    ):
        raise PoleMismatch("rep poles do not match the model's pole set")
    coords = rep.constant * model.sqrt_weights.astype(complex)
    for x, c in zip(rep.poles, rep.coefficients):
        coords = coords + c * model.sqrt_weights / (model.eigenvalues - x)
    return StateVector(coords)


def evaluate_rep(rep: MeromorphicRep, z: complex) -> complex:
    """Evaluate constant + sum c_n/(z - x_n)."""
    z = complex(z)
    if rep.poles.size:
        spread = max(1.0, float(rep.poles[-1] - rep.poles[0]))
        d = z - rep.poles
        if np.abs(d).min() < 1e-8 * spread:
            raise PoleProximity(f"z={z} is at a pole of the representation")
        return rep.constant + _csum(rep.coefficients / d)
    return rep.constant


def inner_h(model: SpectralModel, h: float, phi: StateVector,
            psi: StateVector) -> complex:
    """Inner product of image functions in L^2 of the h-sampling measure."""
    fs = sample(model, phi, h)
    check_dims(model, psi)
    gs = np.array([_transform_raw(model, psi, complex(x)) for x in fs.nodes])
    return _csum(np.conj(fs.values) * gs * fs.node_weights)


def conjugate_state(model: SpectralModel, phi: StateVector) -> StateVector:
    """The conjugation under which the operator and cyclic vector are real."""
    check_dims(model, phi)
    return StateVector(np.conj(phi.coords))


_ZERO_REL_TOL = 1e-9


def blaschke_swap(model: SpectralModel, phi: StateVector,
                  w: complex) -> StateVector:
    """Move a non-real zero w of the image function to its conjugate.

    The preimage picks up the unitary multiplier (lam_j - conj(w))/(lam_j - w),
    so the norm is preserved exactly.
    """
    check_dims(model, phi)
    w = complex(w)
    if w.imag == 0.0:
        raise RealPoint("blaschke swap requires a non-real point")
    value = transform(model, phi, w)
    bound = _ZERO_REL_TOL * math.sqrt(xi(model, w).norm_sq()) * phi.norm()
    if abs(value) > bound:
        raise NotAZero(
            f"|f(w)| = {abs(value):.3e} exceeds the zero tolerance {bound:.3e}"
        )
    mult = (model.eigenvalues - w.conjugate()) / (model.eigenvalues - w)
    return StateVector(phi.coords * mult)


def apply_perturbed(model: SpectralModel, h: float,
                    phi: StateVector) -> StateVector:
    """Apply the h-coupled operator in eigenbasis coordinates."""
    check_dims(model, phi)
    shift = h * mu_inner(model, phi)
    return StateVector(model.eigenvalues * phi.coords
                       + shift * model.sqrt_weights)
