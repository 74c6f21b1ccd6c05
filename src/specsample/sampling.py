"""The vector-to-function transform, sampling, and reconstruction formulas.

A state phi maps to the meromorphic function
    f(z) = (1/F(z)) * sum_j sqrt(w_j) phi_j / (lam_j - z),
whose poles lie at the zeros of F.  Values of f on the spectrum of any
finitely-coupled perturbation determine f everywhere; reconstruction is
implemented both in barycentric Lagrange form (from the samples alone) and
in Kramer form (an independent cross-check that uses the model).
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import (
    NormalizationRequired,
    NotAZero,
    NumericalError,
    PoleMismatch,
    PoleProximity,
    RealPoint,
)
from .herglotz import (
    _BLOCK_TERMS,
    _complex,
    _csum,
    _guard,
    _regular,
    _stacked,
    _sum,
    cauchy_rows,
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
from .perturbation import _node_data, perturbed_spectrum


def mu_state(model: SpectralModel) -> StateVector:
    """The cyclic vector itself, in eigenbasis coordinates."""
    return StateVector(model.sqrt_weights.astype(complex))


def mu_inner(model: SpectralModel, phi: StateVector) -> complex:
    """<mu, phi> (inner product anti-linear in the first argument)."""
    return _sum(model.sqrt_weights * phi.coords)


def transform(model: SpectralModel, phi: StateVector, z: complex) -> complex:
    """Evaluate the image function of phi at z (equals <xi(z), phi>)."""
    check_dims(model, phi)
    _, f, _, num = _regular(model.eigenvalues, model.weights, z,
                            num=model.sqrt_weights * phi.coords)
    return num / f


def _sample(model: SpectralModel, h: float, *states: StateVector):
    """Nodes and masses at coupling h, and each state's image function on
    the nodes, from one solve and one F(x_j) (see _node_data)."""
    for phi in states:
        check_dims(model, phi)
    nodes = perturbed_spectrum(model, Coupling.finite(h))
    return (nodes, *_node_data(model, 1.0, float(h), nodes,
                               np.array([phi.coords for phi in states])))


def sample(model: SpectralModel, phi: StateVector, h: float) -> SampleSet:
    """Sample the image of phi on the spectrum of the h-coupled operator."""
    nodes, weights, (values,) = _sample(model, h, phi)
    return SampleSet(h=h, nodes=nodes, node_weights=weights, values=values)


def reconstruct(samples: SampleSet, z: complex) -> complex:
    """Lagrange reconstruction from the samples alone, in barycentric form.

    The node data determines F_h(z) = sum m_j/(x_j - z), hence G_h = 1/F_h
    and G_h'(x_j) = -1/m_j: the Lagrange series is N_h/F_h with
    N_h(z) = sum m_j f(x_j)/(x_j - z) (Berrut & Trefethen, SIAM Rev. 46,
    2004), and no model is needed.  F_h and N_h are summed together: one
    stacked call from N = 200 on (N = 267 at a real z), fsum below.
    NumericalError where G_h or the quotient is past the doubles.
    """
    masses = samples.node_weights
    z, f_h, _, n_h = _regular(
        samples.nodes, masses, z, num=masses * samples.values,
        what="sampling node", zero=lambda z, r: PoleProximity(
            f"z={z} is too close to a pole of the reconstructed function"))
    for name, value in (("G_h = 1/F_h", 1.0 / f_h), ("N_h/F_h", n_h / f_h)):
        if not cmath.isfinite(value):
            raise NumericalError(f"{name} overflows at z={z}")
    return value


# Grid points whose xi coordinates and node values Kramer holds at once:
# at most 2^20 complex doubles (16 MiB) per array.
_KRAMER_TERMS = 1 << 20


def kramer_reconstruct(model: SpectralModel, samples: SampleSet,
                       z: complex | np.ndarray) -> complex | np.ndarray:
    """Orthogonal-expansion reconstruction
    f(z) = sum_j <xi(z), xi(x_j)> f(x_j) / ||xi(x_j)||^2.

    <xi(z), xi(x)> is the image of the state conj(xi(z)) at x, and
    1/||xi(x_j)||^2 the mass of x_j, both taken from the model at the
    samples' nodes.  z is a point (the result is a complex) or an array of
    points (an array of the same shape); the images of conj(xi(z)) at the
    nodes are summed for a whole slab of the grid (_KRAMER_TERMS
    coordinates) in one stacked pass, which also takes F, the masses at
    the roots of the solve the nodes are matched to, once per slab, and
    the expansions at the slab's points in one stacked call (_stacked) per
    _BLOCK_TERMS real terms.
    Raises InconsistentNodes when the nodes are not the spectrum at the
    samples' coupling, also for an empty grid.
    """
    points = np.asarray(z, dtype=complex).ravel()
    out = np.empty(points.size, dtype=complex)
    # conj(xi(z)) at every point of a slab first, each through xi and its
    # guards, then their images and F at every node in one stacked pass,
    # and the masses; an empty grid still checks the nodes.
    slab = max(1, _KRAMER_TERMS // max(model.dim, samples.nodes.size))
    for start in range(0, max(1, points.size), slab):
        coords = np.array([np.conj(xi(model, point).coords)
                           for point in points[start:start + slab]])
        masses, values = _node_data(model, 1.0, float(samples.h),
                                    samples.nodes, coords.reshape(-1, model.dim))
        terms = masses * values * samples.values
        rows = max(1, _BLOCK_TERMS // (2 * terms.shape[1]))
        for lo in range(0, len(terms), rows):
            block = terms[lo:lo + rows]
            out[start + lo:start + lo + len(block)] = (
                _stacked(block) or list(map(_csum, block)))
    return complex(out[0]) if np.ndim(z) == 0 else out.reshape(np.shape(z))


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
    form an orthonormal basis.  Each coefficient is the residue N/F' at
    the exact zero of F, by the node rule (see _node_data).
    """
    check_dims(model, phi)
    if abs(model.mu_norm_sq - 1.0) > _UNIT_WEIGHT_TOL:
        raise NormalizationRequired(
            f"total weight {model.mu_norm_sq!r} != 1; normalize the model first"
        )
    poles = perturbed_spectrum(model, Coupling.infinite())
    coeffs = _node_data(model, 0.0, 1.0, poles, phi.coords[None])[1][0]
    return MeromorphicRep(constant=mu_inner(model, phi), poles=poles,
                          coefficients=coeffs)


def from_partial_fractions(model: SpectralModel,
                           rep: MeromorphicRep) -> StateVector:
    """Preimage of a partial-fraction function under the transform; a pole
    on an eigenvalue, where it would divide by zero, is a NumericalError."""
    poles = perturbed_spectrum(model, Coupling.infinite())
    if rep.poles.size != poles.size or (
        rep.poles.size
        and np.max(np.abs(rep.poles - poles)) > 1e-9 * model.scale
    ):
        raise PoleMismatch("rep poles do not match the model's pole set")
    on = rep.poles[np.isin(rep.poles, model.eigenvalues)]
    if on.size:
        raise NumericalError(f"pole {float(on[0])!r} lies on an eigenvalue")
    # Coordinate j is sqrt(w_j) (c + sum_n c_n / (lam_j - x_n)).
    c = rep.coefficients
    re, im = cauchy_rows(rep.poles, np.stack((c.real, c.imag)),
                         model.eigenvalues)
    return StateVector(model.sqrt_weights * (rep.constant - _complex(re, im)))


def evaluate_rep(rep: MeromorphicRep, z: complex) -> complex:
    """Evaluate constant + sum c_n/(z - x_n)."""
    z = complex(z)
    _guard(rep.poles, z, "pole of the representation")
    if rep.poles.size:
        return rep.constant + _sum(rep.coefficients / (z - rep.poles))
    return rep.constant


def inner_h(model: SpectralModel, h: float, phi: StateVector,
            psi: StateVector) -> complex:
    """Inner product of image functions in L^2 of the h-sampling measure."""
    _, weights, (f, g) = _sample(model, h, phi, psi)
    return _sum(weights * np.conj(f) * g)


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
