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
    InconsistentNodes,
    NormalizationRequired,
    NotAZero,
    NumericalError,
    PoleMismatch,
    RealPoint,
    ValidationError,
)
from .herglotz import PoleSet, _complex, _csum, _pole_of_f, cauchy_rows, xi
from .model import (
    Coupling,
    MeromorphicRep,
    SampleSet,
    SpectralModel,
    StateVector,
    _number,
    _numbers,
    check_dims,
)
from .perturbation import _node_data, perturbed_spectrum

def _computed(kind, **fields):
    """kind(**fields) for a result computed from accepted inputs, which
    only the door (model._door) or a value past the doubles can refuse:
    NumericalError."""
    try:
        return kind(**fields)
    except ValidationError as exc:
        raise NumericalError(str(exc)) from None


def mu_state(model: SpectralModel) -> StateVector:
    """The cyclic vector itself, in eigenbasis coordinates; NumericalError
    past the state's door."""
    return _computed(StateVector, coords=model.sqrt_weights.astype(complex))


def mu_inner(model: SpectralModel, phi: StateVector) -> complex:
    """<mu, phi> (anti-linear in mu).  The state's door keeps the sum of
    sqrt(w_j) phi_j below model._QUIET."""
    check_dims(model, phi)
    return _csum(model.sqrt_weights * phi.coords)


def transform(model: SpectralModel, phi: StateVector, z: complex) -> complex:
    """The image function of phi at z, <xi(z), phi>.  The state's door
    keeps its numerator's terms and sum within the doubles."""
    check_dims(model, phi)
    z, f, _, num = model._poles.at(z, num=model.sqrt_weights * phi.coords)
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
    """Sample the image of phi on the spectrum of the h-coupled operator;
    NumericalError where SampleSet would refuse the set (model._QUIET)."""
    nodes, weights, (values,) = _sample(model, h, phi)
    return _computed(SampleSet, h=h, nodes=nodes, node_weights=weights,
                     values=values)


def _quotient(f_h: complex, n_h: complex, z: complex) -> complex:
    """N_h/F_h at z; NumericalError where G_h = 1/F_h or the quotient is
    past the doubles."""
    if not cmath.isfinite(1.0 / f_h):
        raise NumericalError(f"G_h = 1/F_h overflows at z={z}")
    value = n_h / f_h
    if not cmath.isfinite(value):
        raise NumericalError(f"N_h/F_h overflows at z={z}")
    return value


def _barycentric(samples: SampleSet, z: complex) -> complex:
    """N_h/F_h at one point, F_h and N_h by the samples' kernel."""
    z, f_h, _, n_h = samples._poles.at(z, num=samples._numerators)
    return _quotient(f_h, n_h, z)


def reconstruct(samples: SampleSet,
                z: complex | np.ndarray) -> complex | np.ndarray:
    """Lagrange reconstruction from the samples alone, in barycentric form.

    The node data determines F_h(z) = sum m_j/(x_j - z), hence G_h = 1/F_h
    and G_h'(x_j) = -1/m_j: the Lagrange series is N_h/F_h with
    N_h(z) = sum m_j f(x_j)/(x_j - z) (Berrut & Trefethen, SIAM Rev. 46,
    2004), and no model is needed.  z is a point (the result is a complex)
    or an array of points (an array of the same shape), as for
    kramer_reconstruct, and each point gives the same bits either way.  At
    a point F_h and N_h are summed together: one stacked call from N = 160
    on (N = 214 at a real z), fsum below.  A grid sums them a block of
    points at a time (PoleSet.rows), and evaluates alone each point that
    it cannot pass; it raises what the first failing point raises.  The
    sample set's door (model._QUIET) keeps F_h and N_h finite.
    NumericalError where G_h or the quotient is past the doubles.
    """
    if isinstance(z, (complex, float, int)) or np.ndim(z) == 0:
        return _barycentric(samples, z)
    rows = samples._poles.rows(_numbers(z, complex, "z").ravel(),
                               samples._numerators)
    return np.array([
        _quotient(f, n, point) if ok else _barycentric(samples, point)
        for point, f, n, ok in rows], dtype=complex).reshape(np.shape(z))


def _on(x: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """np.isin(x, lam) for increasing lam, without loading numpy.ma."""
    return lam[np.minimum(np.searchsorted(lam, x), lam.size - 1)] == x


def kramer_reconstruct(model: SpectralModel, samples: SampleSet,
                       z: complex | np.ndarray) -> complex | np.ndarray:
    """Orthogonal-expansion reconstruction f(z) = sum_j m_j f(x_j) <xi(z),
    xi(x_j)> by the kernel of the analytic Kramer theorem (Everitt,
    Nasri-Roudsari & Rehberg, Results Math. 34, 1998): <xi(z), xi(x)> =
    (1/F(z) - 1/F(x))/(x - z), 1/F(x_j) = -h at a root of 1 + hF and 0 at a
    node on an eigenvalue (its root rounded onto it), whose value is f there.
    The masses m_j (one pass per call) and F(z) are the model's, so it
    checks reconstruct, which takes F_h from the samples alone.  z is a
    point or an array of points, as for reconstruct, each guarded as by
    transform, then as by reconstruct; a value past the doubles is a
    NumericalError.  InconsistentNodes when the nodes are not the spectrum
    at the samples' coupling or a node's mass is more than 1e-9 (relative)
    off the model's, also for an empty grid.
    """
    h = float(samples.h)
    x, lam = samples.nodes, model.eigenvalues
    masses = _node_data(model, 1.0, h, x)[0]
    off = ~(abs(samples.node_weights - masses) <= 1e-9 * masses)
    if off.any():
        j = int(off.argmax())
        raise InconsistentNodes(
            f"node {float(x[j])!r} has mass {float(samples.node_weights[j])!r}"
            f", the model's is {float(masses[j])!r}")
    g = np.where(_on(x, lam), 0.0, h)  # -1/F at each node
    nodes = PoleSet(x, masses, "sampling node", _pole_of_f)

    def at(point):
        f = model._poles.at(point)[1]
        z, _, _, value = nodes.at(point, num=num * (g + 1.0 / f))
        if not cmath.isfinite(value):
            raise NumericalError(f"the Kramer series overflows at z={z}")
        return value

    # Terms past the doubles give a value past them, which is raised.
    with np.errstate(over="ignore", invalid="ignore"):
        num = masses * samples.values
        values = [at(point) for point in np.ravel(z).tolist()]
    return (values[0] if np.ndim(z) == 0
            else np.array(values, dtype=complex).reshape(np.shape(z)))


_UNIT_WEIGHT_TOL = 1e-12


def omega_state(model: SpectralModel, pole: float) -> StateVector:
    """Eigenvector of the infinitely-coupled operator at one of its
    eigenvalues, with coordinates sqrt(w_j)/(lam_j - pole).  A pole on an
    eigenvalue, where it would divide by zero, or past the doubles from
    one, and coordinates past the state's door are NumericalErrors."""
    pole = _number(pole, float, "pole")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        d = model.eigenvalues - pole
        coords = model.sqrt_weights / d
    if not d.all():
        raise NumericalError(f"pole {pole!r} lies on an eigenvalue")
    if not np.isfinite(d).all():
        raise NumericalError(f"the coordinates at pole {pole!r} "
                             "overflow")
    return _computed(StateVector, coords=coords.astype(complex))


def to_partial_fractions(model: SpectralModel,
                         phi: StateVector) -> MeromorphicRep:
    """Expand the image of phi as constant + simple poles.

    Requires unit total weight so that mu and the normalized omega vectors
    form an orthonormal basis.  Each coefficient is the residue N/F' at
    the exact zero of F, by the node rule (see _node_data).
    NumericalError where MeromorphicRep would refuse the form
    (model._QUIET).
    """
    check_dims(model, phi)
    if abs(model.mu_norm_sq - 1.0) > _UNIT_WEIGHT_TOL:
        raise NormalizationRequired(
            f"total weight {model.mu_norm_sq!r} != 1; normalize the model first"
        )
    poles = perturbed_spectrum(model, Coupling.infinite())
    coeffs = _node_data(model, 0.0, 1.0, poles, phi.coords[None])[1][0]
    return _computed(MeromorphicRep, constant=mu_inner(model, phi),
                     poles=poles, coefficients=coeffs)


def from_partial_fractions(model: SpectralModel,
                           rep: MeromorphicRep) -> StateVector:
    """Preimage of a partial-fraction function under the transform; a pole
    on an eigenvalue, where it would divide by zero, and a preimage past the
    state's door are NumericalErrors."""
    poles = perturbed_spectrum(model, Coupling.infinite())
    if rep.poles.size != poles.size or (
        rep.poles.size
        and np.max(np.abs(rep.poles - poles)) > 1e-9 * model.scale
    ):
        raise PoleMismatch("rep poles do not match the model's pole set")
    on = rep.poles[_on(rep.poles, model.eigenvalues)]
    if on.size:
        raise NumericalError(f"pole {float(on[0])!r} lies on an eigenvalue")
    # Coordinate j is sqrt(w_j) (c + sum_n c_n / (lam_j - x_n)).
    c = rep.coefficients
    re, im = cauchy_rows(rep.poles, np.stack((c.real, c.imag)),
                         model.eigenvalues)
    return _computed(StateVector, coords=model.sqrt_weights
                     * (rep.constant - _complex(re, im)))


def evaluate_rep(rep: MeromorphicRep, z: complex) -> complex:
    """Evaluate constant + sum c_n/(z - x_n).  The form's door
    (model._QUIET) keeps the sum below 2^956, which no constant can carry
    past the doubles; a z _FAR out holds numpy's warnings, as PoleSet.at
    does, where a term's division overflows on its way to 0."""
    z = _number(z, complex, "z")
    if not rep.poles.size:
        return rep.constant
    rep._poles.guard(z)
    if rep._poles.held(z):
        with np.errstate(over="ignore", invalid="ignore"):
            return rep.constant + _csum(rep.coefficients / (z - rep.poles))
    return rep.constant + _csum(rep.coefficients / (z - rep.poles))


def inner_h(model: SpectralModel, h: float, phi: StateVector,
            psi: StateVector) -> complex:
    """Inner product of image functions in L^2 of the h-sampling measure;
    NumericalError where it is past the doubles."""
    _, weights, (f, g) = _sample(model, h, phi, psi)
    # A value far past its state's norm at a tiny mass can take a term
    # past the doubles.
    with np.errstate(over="ignore", invalid="ignore"):
        value = _csum(weights * np.conj(f) * g)
    if not cmath.isfinite(value):
        raise NumericalError("the inner product overflows")
    return value


def conjugate_state(model: SpectralModel, phi: StateVector) -> StateVector:
    """The conjugation under which the operator and cyclic vector are real."""
    check_dims(model, phi)
    return StateVector(np.conj(phi.coords))


_ZERO_REL_TOL = 1e-9


def blaschke_swap(model: SpectralModel, phi: StateVector,
                  w: complex) -> StateVector:
    """Move a non-real zero w of the image function to its conjugate.

    The preimage picks up the unitary multiplier (lam_j - conj(w))/(lam_j - w),
    so the norm is preserved exactly; NumericalError past the state's door.
    """
    check_dims(model, phi)
    w = _number(w, complex, "w")
    if w.imag == 0.0:
        raise RealPoint("blaschke swap requires a non-real point")
    value = transform(model, phi, w)
    bound = _ZERO_REL_TOL * math.sqrt(xi(model, w).norm_sq()) * phi.norm()
    if abs(value) > bound:
        raise NotAZero(
            f"|f(w)| = {abs(value):.3e} exceeds the zero tolerance {bound:.3e}"
        )
    mult = (model.eigenvalues - w.conjugate()) / (model.eigenvalues - w)
    return _computed(StateVector, coords=phi.coords * mult)


def apply_perturbed(model: SpectralModel, h: float,
                    phi: StateVector) -> StateVector:
    """Apply the h-coupled operator in eigenbasis coordinates;
    NumericalError where a coordinate is past the doubles or the state's
    door."""
    check_dims(model, phi)
    h = _number(h, float, "h")
    with np.errstate(over="ignore", invalid="ignore"):
        coords = (model.eigenvalues * phi.coords
                  + h * mu_inner(model, phi) * model.sqrt_weights)
    return _computed(StateVector, coords=coords)
