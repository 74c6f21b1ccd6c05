"""Jacobi-matrix instantiation: orthogonal polynomials, truncated models,
Weyl-function approximants, and the polynomial interpolation formula.

First- and second-kind polynomials follow the three-term recurrence of the
tridiagonal matrix; a size-N truncation yields a spectral model whose Borel
transform is exactly the rational approximant -Q_N/P_N.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InsufficientCoefficients,
    NumericalError,
    PoleProximity,
    QZero,
    ValidationError,
)
from .herglotz import _check_finite, _guard, _near_zero, _radius
from .model import SampleSet, SpectralModel, new_model


@dataclass(frozen=True)
class JacobiParams:
    """Diagonal and off-diagonal entries of a semi-infinite Jacobi matrix."""

    q: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if q.ndim != 1 or b.ndim != 1:
            raise ValidationError("q and b must be 1-d sequences")
        if not np.all(np.isfinite(q)) or not np.all(np.isfinite(b)):
            raise ValidationError("Jacobi coefficients must be finite")
        if np.any(b <= 0.0):
            raise ValidationError("off-diagonal entries must be positive")
        q.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "b", b)

    def offdiag(self, k: int) -> float:
        """b_k (1-based); the unused last entry defaults to one, since it
        cancels in the ratio -Q_n/P_n."""
        if k <= self.b.size:
            return float(self.b[k - 1])
        return 1.0

    def scale(self, n: int) -> float:
        lo = float(np.min(self.q[:n]) - 2.0 * np.max(self.b[: max(1, n - 1)]))
        hi = float(np.max(self.q[:n]) + 2.0 * np.max(self.b[: max(1, n - 1)]))
        return max(1.0, hi - lo)


@dataclass(frozen=True)
class PolynomialEval:
    """Values of the first/second-kind polynomials and their derivatives at
    one point, degrees 0..n."""

    at: complex
    P: np.ndarray
    Q: np.ndarray
    P_prime: np.ndarray
    Q_prime: np.ndarray


def _require(params: JacobiParams, n: int) -> None:
    if n < 1:
        raise ValidationError("polynomial degree must be at least 1")
    if params.q.size < n or params.b.size < n - 1:
        raise InsufficientCoefficients(
            f"need q_1..q_{n} and b_1..b_{n - 1}; have {params.q.size} and "
            f"{params.b.size}"
        )


def polys(params: JacobiParams, z: complex, n: int) -> PolynomialEval:
    """Run the three-term recurrence (and its derivative) up to degree n."""
    _require(params, n)
    z = complex(z)
    _check_finite(z)
    q, b1 = params.q, params.offdiag(1)
    P = np.empty(n + 1, dtype=complex)
    Q = np.empty(n + 1, dtype=complex)
    Pd = np.empty(n + 1, dtype=complex)
    Qd = np.empty(n + 1, dtype=complex)
    P[0], Q[0], Pd[0], Qd[0] = 1.0, 0.0, 0.0, 0.0
    P[1], Q[1] = (z - q[0]) / b1, 1.0 / b1
    Pd[1], Qd[1] = 1.0 / b1, 0.0
    for k in range(2, n + 1):
        bk = params.offdiag(k)
        bprev = params.offdiag(k - 1)
        zq = z - q[k - 1]
        P[k] = (zq * P[k - 1] - bprev * P[k - 2]) / bk
        Q[k] = (zq * Q[k - 1] - bprev * Q[k - 2]) / bk
        Pd[k] = (P[k - 1] + zq * Pd[k - 1] - bprev * Pd[k - 2]) / bk
        Qd[k] = (Q[k - 1] + zq * Qd[k - 1] - bprev * Qd[k - 2]) / bk
    return PolynomialEval(at=z, P=P, Q=Q, P_prime=Pd, Q_prime=Qd)


def _sturm_count(q: np.ndarray, b: np.ndarray, n: int, t: float) -> int:
    """Number of eigenvalues of the n-truncation strictly below t."""
    pivmin = 1e-280
    count = 0
    d = q[0] - t
    if abs(d) < pivmin:
        d = -pivmin
    if d < 0.0:
        count += 1
    for k in range(1, n):
        d = (q[k] - t) - b[k - 1] * b[k - 1] / d
        if abs(d) < pivmin:
            d = -pivmin
        if d < 0.0:
            count += 1
    return count


def sturm_count(params: JacobiParams, n: int, t: float) -> int:
    _require(params, n)
    return _sturm_count(params.q, params.b, n, float(t))


def _char_poly(params: JacobiParams, n: int, x: float) -> tuple[float, float]:
    ev = polys(params, x, n)
    return ev.P[n].real, ev.P_prime[n].real


def truncate(params: JacobiParams, n: int) -> SpectralModel:
    """Spectral model of the leading n-by-n truncation with cyclic vector
    along the first basis element.

    Eigenvalues come from Sturm-sequence bisection polished on the
    first-kind polynomial; the weight at lam_j is the squared first
    component 1/sum_k P_k(lam_j)^2.
    """
    if n < 2:
        raise ValidationError("truncation size must be at least 2")
    _require(params, n)
    q, b = params.q, params.b
    lo = float(np.min(q[:n]) - 2.0 * np.max(b[: n - 1]))
    hi = float(np.max(q[:n]) + 2.0 * np.max(b[: n - 1]))
    tol = 1e-13 * max(1.0, hi - lo)
    lam = np.empty(n)
    for j in range(n):
        a, c = lo, hi
        # Invariant: count(a) <= j < count(c).
        while c - a > tol:
            mid = 0.5 * (a + c)
            if mid <= a or mid >= c:
                break
            if _sturm_count(q, b, n, mid) <= j:
                a = mid
            else:
                c = mid
        x = 0.5 * (a + c)
        for _ in range(4):
            p, dp = _char_poly(params, n, x)
            if dp == 0.0:
                break
            step = p / dp
            x_new = x - step
            if not (a <= x_new <= c) or x_new == x:
                break
            x = x_new
        lam[j] = x
    weights = np.empty(n)
    for j in range(n):
        ev = polys(params, lam[j], n)
        try:
            with np.errstate(over="ignore"):
                total = math.fsum(ev.P[:n].real ** 2)
        except OverflowError:
            total = math.inf
        if not total < math.inf:
            raise NumericalError(
                f"the weight sum of P_k(x)^2 overflows the largest double at "
                f"eigenvalue {float(lam[j])!r} of the degree-{n} truncation"
            )
        weights[j] = 1.0 / total
    return new_model(lam, weights)


def weyl_approx(params: JacobiParams, z: complex, n: int) -> complex:
    """Rational Weyl-function approximant -Q_n(z)/P_n(z)."""
    ev = polys(params, z, n)
    p, pd = ev.P[n], ev.P_prime[n]
    if _near_zero(p, pd, _radius(params.scale(n))):
        raise PoleProximity(
            f"z={z} is at (or near) an eigenvalue of the degree-{n} truncation"
        )
    return -ev.Q[n] / p


def jm_reconstruct(params: JacobiParams, n: int, samples: SampleSet,
                   z: complex) -> complex:
    """Interpolation through the polynomial ratio w_n = P_n/Q_n.

    At n equal to the generating truncation size this coincides with the
    Lagrange form; for smaller n it is the truncation of the limit formula
    and is compared against the exact reconstruction in convergence studies.
    """
    z = complex(z)
    _guard(samples.nodes, z, "sampling node")
    ev = polys(params, z, n)
    if abs(ev.Q[n]) < 1e-12 * max(1.0, abs(ev.P[n])):
        raise QZero(f"second-kind polynomial vanishes at z={z}")
    w_z = ev.P[n] / ev.Q[n]
    h = samples.h
    total = 0.0 + 0.0j
    for x, value in zip(samples.nodes, samples.values):
        evx = polys(params, complex(x), n)
        qn = evx.Q[n]
        if qn == 0.0:
            raise QZero(f"second-kind polynomial vanishes at node {x!r}")
        w_prime = (evx.P_prime[n] * qn - evx.P[n] * evx.Q_prime[n]) / (qn * qn)
        if w_prime == 0.0:
            raise QZero(f"degenerate interpolation weight at node {x!r}")
        total += (h - w_z) * value / ((x - z) * w_prime)
    return total
