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
from .herglotz import _real_quotient, cauchy_rows
from .model import Coupling, SpectralModel, new_model


def _secular_roots(model: SpectralModel, a: float, b: float) -> np.ndarray:
    """Roots of a + b F(x), one per gap, in increasing order.

    With a != 0 the exterior root in (lam_N, lam_N + b ||mu||^2] (b > 0) or
    [lam_1 + b ||mu||^2, lam_1) (b < 0) is included; there |F| <= 1/|b| at
    the far end, so a + b F has the sign of a.
    """
    lam, w = model.eigenvalues, model.weights
    buf = np.empty((model.dim, model.dim))

    def g(shift, tau):
        # lam_j - x as (lam_j - lam_origin) - tau is exact at the origin;
        # shift holds lam_j - lam_origin, one row per root.
        d = np.subtract(shift, tau[:, None], out=buf[:tau.size])
        return a + b * np.sum(np.divide(w, d, out=d), axis=1)

    lower = np.arange(model.dim - 1)
    # Halving before subtracting keeps gaps near the largest double finite.
    half = 0.5 * lam[1:] - 0.5 * lam[:-1]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # a + b F has the sign -sign(b) just right of a pole and sign(b) just
        # left of it; the root is past the midpoint while a + b F still has
        # the left pole's sign there.
        right = g(lam - lam[lower, None], half) * np.sign(b) < 0.0
        origin = np.where(right, lower + 1, lower)
        far = np.where(right, -half, half)
        if a != 0.0:
            at = origin.size if b > 0.0 else 0
            origin = np.insert(origin, at, model.dim - 1 if b > 0.0 else 0)
            far = np.insert(far, at, b * model.mu_norm_sq)
        pole_sign = -np.sign(b) * np.sign(far)
        shift = lam - lam[origin, None]

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
            up = (mid == lo) | (g(shift, offset(mid)) * pole_sign > 0.0)
            lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
        x_hi = lam[origin] + offset(hi)
        if not np.all(np.isfinite(x_hi)):
            raise NumericalError(
                f"the exterior root at coupling {b!r} is beyond the largest "
                "double"
            )
        nearer = np.abs(g(shift, offset(lo))) < np.abs(g(shift, offset(hi)))
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


# Newton-step distance, relative to the model scale, above which supplied
# nodes are rejected as belonging to a different coupling.  A raw residual
# bound would misfire at roots that hug a pole with a tiny weight: there F'
# is huge and cancellation inflates |1 + h F| even for a correctly placed
# node, while the root distance |1 + h F| / (|h| |F'|) stays tiny.
_NODE_DISTANCE_TOL = 1e-7
# Far from 0 (a large |h|, or eigenvalues offset far from 0) a node is only
# known to a few rounding errors of the largest magnitude in play, |x_j| or
# max |lam_k|, which can exceed any fixed fraction of the scale; solved
# nodes stay within 4 eps of it.  A fraction of max(scale, |x_j|) instead
# would accept the nodes of another coupling once the offset dwarfs the gaps.
_NODE_ROUNDING_TOL = 64 * np.finfo(float).eps
# A node whose ulp exceeds this fraction of its distance to the nearest
# eigenvalue has lost digits of that distance to rounding (see _Nodes).
_POLE_LOCAL_TOL = 1e-12


def _nearest_poles(model: SpectralModel,
                   x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of the eigenvalue nearest each real point (the lower one on a
    tie), and whether the point is pole-local: on that eigenvalue, or so
    near it that one ulp of the point exceeds _POLE_LOCAL_TOL of the
    distance."""
    lam = model.eigenvalues
    k = np.clip(np.searchsorted(lam, x), 1, lam.size - 1)
    k -= np.abs(lam[k - 1] - x) <= np.abs(lam[k] - x)
    return k, np.spacing(np.abs(x)) > _POLE_LOCAL_TOL * np.abs(x - lam[k])


def _pole_local_masses(model: SpectralModel, h: float, x: np.ndarray,
                       k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masses of nodes x next to their eigenvalues lam_k, and each node's
    Newton step to its root.

    With R, R' the sums of F, F' over the other poles, and a = 1 + h R, the
    root's offset tau from lam_k solves G(tau) = a tau - h w_k = 0, which is
    smooth at the pole.  One Newton step on G from the node finds the root
    to a small fraction of the node's rounding error, and at the root the
    mass is w_k / (a^2 + h^2 w_k R') exactly; R and R' are summed again
    there.
    """
    lam, w = model.eigenvalues, model.weights
    wk, tau = w[k], x - lam[k]
    r, rp = (cauchy_rows(lam, w, x, p, skip=k) for p in (1, 2))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        step = h * (wk + rp * tau * tau) / (1.0 + h * r + h * rp * tau) - tau
        r, rp = (cauchy_rows(lam, w, x, p, skip=k, shift=step) for p in (1, 2))
        a = 1.0 + h * r
        return np.abs(step), wk / (a * a + h * h * wk * rp)


class _Nodes:
    """Nodes of the h-coupled spectrum, their masses, and image values there.

    At a secular root F(x_j) = -1/h exactly, so the mass 1/||xi(x_j)||^2 is
    1/(h^2 F'(x_j)).  The mass belongs to the exact root: at a pole-local
    node the rounding of x_j moves lam_k - x_j, and with it 1/(h^2 F'), by
    more than 1e-12, so the mass is taken at the root instead
    (_pole_local_masses).  An image value belongs to the node it is
    returned with: N(x_j)/F(x_j), N(x) = sum sqrt(w_j) psi_j/(lam_j - x),
    is well defined at any double off the poles, and on a pole lam_k it is
    the limit psi_k/sqrt(w_k).  Nodes farther than a Newton step of
    _NODE_DISTANCE_TOL times the scale (or a few rounding errors) from
    their root raise InconsistentNodes.
    """

    def __init__(self, model: SpectralModel, h: float, nodes) -> None:
        self.model = model
        self.nodes = x = np.asarray(nodes, dtype=float)
        lam, w = model.eigenvalues, model.weights
        self.k, local = _nearest_poles(model, x)
        self.f = cauchy_rows(lam, w, x)
        if h == 0.0:
            if x.size != model.dim or np.max(
                np.abs(x - lam)
            ) > 1e-9 * model.scale:
                raise InconsistentNodes(
                    "nodes do not match the unperturbed spectrum")
            self.masses = w.copy()
            return
        fp = cauchy_rows(lam, w, x, 2)
        with np.errstate(divide="ignore", invalid="ignore"):
            distance = np.abs(1.0 + h * self.f) / (abs(h) * fp)
            self.masses = 1.0 / (h * h * fp)
        j = np.flatnonzero(local)
        distance[j], self.masses[j] = _pole_local_masses(model, h, x[j],
                                                         self.k[j])
        big = np.maximum(np.abs(x), max(abs(lam[0]), abs(lam[-1])))
        bad = ~(distance <= np.maximum(_NODE_DISTANCE_TOL * model.scale,
                                       _NODE_ROUNDING_TOL * big))
        if bad.any():
            j = int(bad.argmax())
            raise InconsistentNodes(
                f"node {float(x[j])!r} is about {distance[j]:.3e} off its "
                f"secular root at h={h}"
            )

    def values(self, coords: np.ndarray) -> np.ndarray:
        """The image function of the state with these coordinates at each
        node."""
        m, k = self.model, self.k
        n = cauchy_rows(m.eigenvalues, m.sqrt_weights * coords, self.nodes)
        on = self.nodes == m.eigenvalues[k]
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(on, coords[k] / m.sqrt_weights[k],
                            _real_quotient(n, self.f))


def node_weights(model: SpectralModel, h: float, nodes) -> np.ndarray:
    """Point masses m_h({x_j}) = 1/||xi(x_j)||^2 at the perturbed spectrum.

    At a secular root F(x_j) = -1/h exactly, so the mass reduces to
    1/(h^2 F'(x_j)); a node next to an eigenvalue takes it at the exact
    root (see _Nodes), so it stays accurate for roots that hug a pole.
    """
    return _Nodes(model, float(h), nodes).masses


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
