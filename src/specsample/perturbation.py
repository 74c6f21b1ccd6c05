"""Spectra and spectral weights of the rank-one perturbed family.

Eigenvalues of the perturbed operator at coupling h solve the secular
equation 1 + h F(x) = 0; at infinite coupling they are the zeros of F.
Both are the roots of a + b F(x), with (a, b) = (1, h) or (0, 1).  Since
F' = sum w_j/(lam_j - x)^2 > 0, F runs from -inf to +inf across every
spectral gap, so each gap holds exactly one root and the sign of a + b F
next to each pole is known without evaluating it.  All roots are solved at
once: each is stored as an offset tau from the pole it is nearer to, which
keeps lam_j - x accurate next to that pole, and |tau| is bisected on its
bit pattern until the bracket is two adjacent doubles.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import InconsistentNodes, NumericalError
from .herglotz import _weyl_raw
from .model import Coupling, SpectralModel, new_model


def _secular_roots(model: SpectralModel, a: float, b: float) -> np.ndarray:
    """Roots of a + b F(x), one per gap, in increasing order.

    With a != 0 the exterior root in (lam_N, lam_N + b ||mu||^2] (b > 0) or
    [lam_1 + b ||mu||^2, lam_1) (b < 0) is included; there |F| <= 1/|b| at
    the far end, so a + b F has the sign of a.
    """
    lam, w = model.eigenvalues, model.weights

    def g(origin, tau):
        # lam_j - x as (lam_j - lam_origin) - tau is exact at the origin.
        d = lam - lam[origin, None] - tau[:, None]
        return a + b * np.sum(w / d, axis=1)

    lower = np.arange(model.dim - 1)
    # Halving before subtracting keeps gaps near the largest double finite.
    half = 0.5 * lam[1:] - 0.5 * lam[:-1]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # a + b F has the sign -sign(b) just right of a pole and sign(b) just
        # left of it; the root is past the midpoint while a + b F still has
        # the left pole's sign there.
        right = g(lower, half) * np.sign(b) < 0.0
        origin = np.where(right, lower + 1, lower)
        far = np.where(right, -half, half)
        if a != 0.0:
            at = origin.size if b > 0.0 else 0
            origin = np.insert(origin, at, model.dim - 1 if b > 0.0 else 0)
            far = np.insert(far, at, b * model.mu_norm_sq)
        pole_sign = -np.sign(b) * np.sign(far)

        def offset(bits):
            return np.copysign(bits.view(np.float64), far)

        # A non-negative double orders like its int64 bit pattern, so halving
        # the integer bracket [lo, hi] of |tau| ends at adjacent doubles
        # after at most 64 steps; the end with the smaller |a + b F| wins.
        # Rows already there have mid == lo and stay put.  A NaN (terms
        # overflowing with both signs) moves hi, inside the bracket.
        lo = np.zeros(origin.size, dtype=np.int64)
        hi = np.abs(far).view(np.int64)
        while np.any(hi - lo > 1):
            mid = lo + (hi - lo) // 2
            up = (mid == lo) | (g(origin, offset(mid)) * pole_sign > 0.0)
            lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
        x_hi = lam[origin] + offset(hi)
        if not np.all(np.isfinite(x_hi)):
            raise NumericalError(
                f"the exterior root at coupling {b!r} is beyond the largest "
                "double"
            )
        nearer = np.abs(g(origin, offset(lo))) < np.abs(g(origin, offset(hi)))
    return np.where(nearer, lam[origin] + offset(lo), x_hi)


def perturbed_spectrum(model: SpectralModel, coupling: Coupling) -> np.ndarray:
    """Eigenvalues of the perturbed operator, in increasing order.

    Finite nonzero coupling yields one root per spectral gap (in its closed
    gap) plus one exterior root within |h| * mu_norm_sq of the edge;
    infinite coupling yields the N-1 zeros of F.  Raises NumericalError
    when the exterior root is beyond the largest double.
    """
    if coupling.is_infinite:
        return _secular_roots(model, 0.0, 1.0)
    h = float(coupling.value)
    if h == 0.0:
        return model.eigenvalues.copy()
    return _secular_roots(model, 1.0, h)


# Newton-step distance above which supplied nodes are rejected as belonging
# to a different coupling.  A raw residual bound would misfire at roots that
# hug a pole with a tiny weight: there F' is huge and cancellation inflates
# |1 + h F| even for a correctly placed node, while the root distance
# |1 + h F| / (|h| |F'|) stays tiny.
_NODE_DISTANCE_TOL = 1e-7


def node_weights(model: SpectralModel, h: float, nodes) -> np.ndarray:
    """Point masses m_h({x_j}) = 1/||xi(x_j)||^2 at the perturbed spectrum.

    At a secular root F(x_j) = -1/h exactly, so the mass reduces to
    1/(h^2 F'(x_j)); this form stays accurate for roots that hug a pole.
    """
    nodes = np.asarray(nodes, dtype=float)
    if h == 0.0:
        if nodes.size != model.dim or np.max(
            np.abs(nodes - model.eigenvalues)
        ) > 1e-9 * model.scale:
            raise InconsistentNodes("nodes do not match the unperturbed spectrum")
        return model.weights.copy()

    out = np.empty(nodes.size)
    for j, x in enumerate(nodes):
        f, fp = _weyl_raw(model, x)
        residual = abs(1.0 + h * f.real)
        distance = residual / (abs(h) * fp.real)
        if not math.isfinite(distance) or distance > _NODE_DISTANCE_TOL * model.scale:
            raise InconsistentNodes(
                f"node {x!r} has secular residual {residual:.3e} at h={h}"
            )
        out[j] = 1.0 / (h * h * fp.real)
    return out


def perturbed_model(model: SpectralModel, h: float) -> SpectralModel:
    """Spectral model of the perturbed operator with the same cyclic vector."""
    if h == 0.0:
        return new_model(model.eigenvalues, model.weights)
    nodes = perturbed_spectrum(model, Coupling.finite(h))
    return new_model(nodes, node_weights(model, h, nodes))


def compression_spectrum(model: SpectralModel) -> np.ndarray:
    """Eigenvalues of the compression of the model to the complement of mu.

    A Householder reflection maps the first coordinate axis onto mu's
    direction; the remaining reflected axes give a deterministic
    orthonormal basis of the complement.  Cross-validates the zero set
    of F computed by perturbed_spectrum at infinite coupling.
    """
    u = model.sqrt_weights / math.sqrt(model.mu_norm_sq)
    v = u.copy()
    v[0] += 1.0
    refl = np.eye(model.dim) - 2.0 * np.outer(v, v) / np.dot(v, v)
    basis = refl[:, 1:]
    compressed = basis.T @ (model.eigenvalues[:, None] * basis)
    return np.linalg.eigvalsh(compressed)
