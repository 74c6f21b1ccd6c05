"""Jacobi-matrix instantiation: orthogonal polynomials, truncated models,
Weyl-function approximants, and the polynomial interpolation formula.

First- and second-kind polynomials follow the three-term recurrence of the
tridiagonal matrix.  A size-N truncation is solved without it (eigvalsh and
twisted factorizations), into a model whose Borel transform is -Q_N/P_N.
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
from .herglotz import _near_zero, _radius
from .model import (
    _WEIGHT_FLOOR,
    SampleSet,
    SpectralModel,
    _array,
    _count,
    _number,
    new_model,
)


@dataclass(frozen=True)
class JacobiParams:
    """Diagonal and off-diagonal entries of a semi-infinite Jacobi matrix."""

    q: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        q = _array(self.q, float, "q")
        b = _array(self.b, float, "b")
        if (b <= 0.0).any():
            raise ValidationError("off-diagonal entries must be positive")
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


def _require(params: JacobiParams, n: int) -> int:
    """The degree n by model._count, where params reach it."""
    n = _count(n, "polynomial degree", 1)
    if params.q.size < n or params.b.size < n - 1:
        raise InsufficientCoefficients(
            f"need q_1..q_{n} and b_1..b_{n - 1}; have {params.q.size} and "
            f"{params.b.size}"
        )
    return n


def polys(params: JacobiParams, z: complex, n: int) -> PolynomialEval:
    """Run the three-term recurrence (and its derivative) up to degree n;
    NumericalError where it overflows."""
    n = _require(params, n)
    z = _number(z, complex, "z")
    q, b1 = params.q, params.offdiag(1)
    P = np.empty(n + 1, dtype=complex)
    Q = np.empty(n + 1, dtype=complex)
    Pd = np.empty(n + 1, dtype=complex)
    Qd = np.empty(n + 1, dtype=complex)
    P[0], Q[0], Pd[0], Qd[0] = 1.0, 0.0, 0.0, 0.0
    P[1], Q[1] = (z - q[0]) / b1, 1.0 / b1
    Pd[1], Qd[1] = 1.0 / b1, 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(2, n + 1):
            bk = params.offdiag(k)
            bprev = params.offdiag(k - 1)
            zq = z - q[k - 1]
            P[k] = (zq * P[k - 1] - bprev * P[k - 2]) / bk
            Q[k] = (zq * Q[k - 1] - bprev * Q[k - 2]) / bk
            Pd[k] = (P[k - 1] + zq * Pd[k - 1] - bprev * Pd[k - 2]) / bk
            Qd[k] = (Q[k - 1] + zq * Qd[k - 1] - bprev * Qd[k - 2]) / bk
    if not np.isfinite([P[n], Q[n], Pd[n], Qd[n]]).all():
        raise NumericalError(f"the degree-{n} polynomials overflow at z={z}")
    return PolynomialEval(at=z, P=P, Q=Q, P_prime=Pd, Q_prime=Qd)


# A pivot of J - t smaller than this is nudged to -_PIVMIN (LAPACK's rule).
_PIVMIN = 1e-280


def sturm_count(params: JacobiParams, n: int, t: float) -> int:
    """Number of eigenvalues of the n-truncation strictly below t."""
    n = _require(params, n)
    q, b, t = params.q, params.b, _number(t, float, "t")
    count, d = 0, 1.0
    for k in range(n):
        d = (q[k] - t) - (b[k - 1] * b[k - 1] / d if k else 0.0)
        if abs(d) < _PIVMIN:
            d = -_PIVMIN
        count += d < 0.0
    return count


def _nudge(d: np.ndarray) -> np.ndarray:
    return np.where(np.abs(d) < _PIVMIN, -_PIVMIN, d)


# Terms per array of a _twisted pass, which holds about seven of them: a
# block of columns (values of lam) at a time, 8 MiB each.
_TWIST_TERMS = 1 << 20


def _twisted(q: np.ndarray, b: np.ndarray,
             lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log(z_1^2/|z|^2) and the Rayleigh step gamma_r/|z|^2 at each lam_j,
    for the vector z (z_r = 1) of the twisted factorization of J - lam_j
    (Parlett & Dhillon, LAA 267, 1997): top-down pivots d_k and bottom-up
    pivots e_k meet at the r of least |gamma_k| = |d_k + e_k - (q_k - lam_j)|.
    Each column is its own: blocks of _TWIST_TERMS terms give its bits,
    and every block is at least two columns wide, as a block of one sums
    its column in another order.
    """
    step = max(2, _TWIST_TERMS // q.size)
    parts = [_twisted_block(q, b, block)
             for block in np.split(lam, range(step, lam.size - 1, step))]
    return tuple(np.concatenate(part) for part in zip(*parts))


def _twisted_block(q: np.ndarray, b: np.ndarray,
                   lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_twisted at the columns lam."""
    # Row k, column j: pivot k of J - lam_j; the loop fills d[1:], e[:-1].
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        a = q[:, None] - lam
        b2 = (b * b)[:, None]
        d, e = _nudge(a), _nudge(a)
        for k in range(1, q.size):
            d[k] = _nudge(a[k] - b2[k - 1] / d[k - 1])
            e[-1 - k] = _nudge(a[-1 - k] - b2[-k] / e[-k])
        gamma = d + e - a
        rows = np.arange(q.size)
        r = np.argmin(np.abs(gamma), axis=0)
        logb = np.log(b)[:, None]
        # z_k = -b_k z_(k+1)/d_k above r and -b_(k-1) z_(k-1)/e_k below.
        up = np.where(rows[:-1, None] < r, logb - np.log(np.abs(d[:-1])), 0.0)
        down = np.where(rows[1:, None] > r, logb - np.log(np.abs(e[1:])), 0.0)
        log_z = np.zeros_like(a)
        log_z[:-1] += np.cumsum(up[::-1], axis=0)[::-1]
        log_z[1:] += np.cumsum(down, axis=0)
        # z_r = 1 is near the largest component: the sum cannot overflow.
        norm_sq = np.sum(np.exp(2.0 * log_z), axis=0)
        return (2.0 * log_z[0] - np.log(norm_sq),
                gamma[r, np.arange(lam.size)] / norm_sq)


def truncate(params: JacobiParams, n: int) -> SpectralModel:
    """Spectral model of the leading n-by-n truncation J with cyclic vector
    along the first basis element.

    Eigenvalues from eigvalsh take one Rayleigh step; weights come from
    twisted factorizations at the corrected eigenvalues, in logs, so they
    stay accurate on diagonals spread well past 2b, where the forward
    recurrence for P_k(lam) fails.  A weight at or below the model floor
    raises NumericalError.
    """
    n = _require(params, _count(n, "truncation size", 2))
    q, b = params.q[:n], params.b[: n - 1]
    lam = np.linalg.eigvalsh(np.diag(q) + np.diag(b, 1) + np.diag(b, -1))
    lam = lam + _twisted(q, b, lam)[1]
    log_w = _twisted(q, b, lam)[0]
    if not np.all(log_w > math.log(_WEIGHT_FLOOR)):
        j = int(np.argmin(log_w))
        raise NumericalError(
            f"weight 10^{log_w[j] / math.log(10.0):.1f} at eigenvalue "
            f"{float(lam[j])!r} of the degree-{n} truncation is below the "
            f"model floor {_WEIGHT_FLOOR:g}")
    return new_model(lam, np.exp(log_w))


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
    z = _number(z, complex, "z")
    samples._poles.guard(z)
    ev = polys(params, z, n)
    if _near_zero(ev.Q[n], ev.Q_prime[n], _radius(params.scale(n))):
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
