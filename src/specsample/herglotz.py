"""Borel transform of the spectral measure and derived Herglotz quantities.

Every sum is the correctly rounded sum of its terms, so results are
reproducible across platforms.  A sum at one point is a math.fsum; real
sums at many real points or pole offsets (cauchy_rows) are taken a block
of rows at a time, at most _BLOCK_TERMS terms per array so memory stays
bounded at any model size, by a vectorized error-free extraction that
certifies each row correctly rounded, and math.fsum for the rest (_row_sums).

Pole guards, one policy for every point evaluator of the package: within
r = EXCLUSION_RADIUS * max(1, spread of its poles) of a pole it raises
PoleProximity, and where the Newton step |f/f'| puts a zero of its
denominator f within r it raises ZeroOfF (for F; PoleProximity for F_h and
P_n, whose zeros are poles of the evaluated function).  A non-finite point
is a ValidationError.  For F and F_h, sums of c_j/(x_j - z) with c_j >= 0,
f' is summed only where a certificate, |f| >= r sum c_j/|x_j - z|^2 with
a margin for rounding (_clear_of_zero), cannot rule the zero guard out;
elsewhere it is summed and the guard decides exactly as without the
certificate.  weyl, weyl_h and xi_norm_sq always sum F', which they return.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, PoleProximity, ValidationError, ZeroOfF
from .model import SpectralModel

# Relative pole-exclusion radius; scaled by the spread of the guarded poles.
EXCLUSION_RADIUS = 1e-8

# Terms formed at once by cauchy_rows, per array: 2^15 doubles is 256 KiB.
_BLOCK_TERMS = 1 << 15


def _csum(terms: np.ndarray) -> complex:
    """Correctly rounded sum of a complex array (per part); fsum reads the
    parts through a memoryview, the same doubles in the same order as a
    list of them, without copying them out first."""
    return complex(math.fsum(memoryview(terms.real)),
                   math.fsum(memoryview(terms.imag)))


def _extract(t: np.ndarray):
    """One error-free extraction of the rows of t: each row's sum r rounded
    once, whether it is certified correctly rounded, and tau, low with
    tau + sum(low) equal to the row's sum exactly (see _row_sums)."""
    n = t.shape[1]
    bits = (n + 2).bit_length()
    top = np.maximum.reduce(np.abs(t), axis=1)
    sigma = np.ldexp(1.0, np.frexp(top)[1] + bits)
    q = t + sigma[:, None]
    q -= sigma[:, None]
    tau = np.add.reduce(q, axis=1)
    low = np.subtract(t, q, out=q)
    e = np.add.reduce(low, axis=1)
    r = tau + e
    back = r - tau
    g = (tau - (r - back)) + (e - back)
    # beta rounded up to a power of two; one below the smallest subnormal
    # rounds to 0, and then e is exact, its error being a multiple of that
    # double.
    beta = sigma * math.ldexp(1.0, 2 * n.bit_length() + 2 - 106)
    gap = np.spacing(np.nextafter(np.abs(r), 0.0))
    certified = ((np.abs(g) + beta < 0.5 * gap) & np.isfinite(r)
                 & (r != 0.0))
    return r, certified, tau, low


def _row_sums(t: np.ndarray) -> np.ndarray:
    """The correctly rounded sum of each row of t, which is what math.fsum
    returns for the row, bit for bit.

    Error-free extraction (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31,
    2008): with sigma = 2^M 2^e per row, 2^M >= n + 2 and max |t| < 2^e,
    q = (sigma + t) - sigma and low = t - q are exact, and tau = sum(q) is
    exact in any order.  Only the float sum e of low carries an error, at
    most beta = 4 n^2 u^2 sigma (u = 2^-53) in any order, so the result
    cannot depend on numpy's summation order.  A row is certified when the
    TwoSum error g of r = fl(tau + e) and beta together stay below half the
    gap from |r| to the next double towards zero: then r is the rounded
    sum.  A row that cancels heavily is certified by a second extraction,
    of its exact remainder [tau, low].  Every other row (a zero sum, a tie,
    a sum past the largest double, a non-finite term) takes math.fsum,
    which raises its OverflowError where its partial sums overflow; a row
    holding both infinities is NaN.
    """
    r, certified, tau, low = _extract(t)
    if not certified.all():
        rows = (~certified).nonzero()[0]
        rest = np.concatenate((tau[rows, None], low[rows]), axis=1)
        r[rows], certified = _extract(rest)[:2]
        for i in rows[~certified]:
            try:
                r[i] = math.fsum(t[i].tolist())
            except ValueError:  # -inf + inf: NaN, as numpy sums it
                r[i] = math.nan
    return r


def cauchy_rows(poles: np.ndarray, coeffs: np.ndarray, points: np.ndarray,
                power: int | tuple[int, ...] = 1,
                origin: np.ndarray | None = None) -> np.ndarray:
    """sum_j c_j / (poles_j - x)^p at each real point x, for one real
    coefficient set c (coeffs of shape (n,), result (points,)) or a stack of
    them (coeffs of shape (k, n), result (k, points)), summed in one pass.

    power p is 1 or 2, for every set or one per set.  Each row is the
    correctly rounded sum of the correctly rounded terms c_j / d_j
    (d_j * d_j for power 2, d_j = poles_j - x), so it equals the per-point
    math.fsum bit for bit on every machine (see _row_sums).  A point on a
    pole gives an infinite or NaN row.  With origin, an index per point,
    row i is summed at x = poles_k + points_i, k = origin[i], as
    d_j = (poles_j - poles_k) - points_i, exact at poles_k, and the term of
    poles_k is left out.
    """
    n = poles.size
    sets = coeffs.reshape(-1, n)
    k = len(sets)
    powers = (power,) * k if isinstance(power, int) else tuple(power)
    # Sets of power 1 first: a chunk of sets divides by d, then by d * d.
    order = sorted(range(k), key=powers.__getitem__)
    sets, split = sets[order, None, :], powers.count(1)
    sums = np.empty((k, points.size))
    # Rows of points per block, so that a block of every set holds at most
    # _BLOCK_TERMS terms; with more sets than that allows for one point,
    # the sets are split into chunks.
    rows = max(1, _BLOCK_TERMS // max(1, n * k))
    chunk = max(1, _BLOCK_TERMS // (n * rows))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for start in range(0, points.size, rows):
            block = slice(start, start + rows)
            if origin is None:
                d = poles - points[block, None]
            else:
                at = origin[block]
                d = (poles - poles[at, None]) - points[block, None]
                # c / inf is an exact zero, which leaves the sum unchanged,
                # and inf * inf is inf: the term drops out of both powers.
                d[np.arange(at.size), at] = np.inf
            dens = [d, d * d] if split < k else [d]
            for lo in range(0, k, chunk):
                hi = min(k, lo + chunk)
                mid = min(max(split, lo), hi)
                t = np.empty((hi - lo,) + d.shape)
                for a, b, den in ((lo, mid, d), (mid, hi, dens[-1])):
                    if a < b:
                        np.divide(sets[a:b], den, out=t[a - lo:b - lo])
                sums[order[lo:hi], block] = _row_sums(
                    t.reshape(-1, n)).reshape(hi - lo, -1)
    return sums[0] if coeffs.ndim == 1 else sums


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _check_finite(z: complex) -> None:
    if not cmath.isfinite(z):
        raise ValidationError(f"z={z} is not a finite point")


def _radius(spread: float) -> float:
    """Pole-exclusion radius for poles spread over the given length."""
    return EXCLUSION_RADIUS * max(1.0, spread)


def _guard(poles: np.ndarray, z: complex,
           what: str) -> tuple[float, np.ndarray, np.ndarray]:
    """The exclusion radius r of the sorted poles, d = poles - z and |d|;
    PoleProximity (naming the pole) when z is within r of one,
    ValidationError when z is not finite."""
    _check_finite(z)
    r = _radius(float(poles[-1] - poles[0]) if poles.size else 0.0)
    d = poles - z
    dist = np.abs(d)
    if dist.size and dist.min() < r:
        raise PoleProximity(
            f"z={z} is within {r:.3e} of {what} {poles[int(dist.argmin())]}"
        )
    return r, d, dist


def _near_zero(f: complex, fp: complex, r: float) -> bool:
    """Whether the Newton step |f/f'| puts a zero of f within r; for a
    Herglotz f (F, F_h) |f/f'| >= |Im z|, so only near-real z can."""
    return f == 0 or abs(f) < r * abs(fp)


def _derivative(c: np.ndarray, d: np.ndarray) -> complex:
    """sum c_j / d_j^2, overflow held.  Past |d_j| = 1.3e154, d_j^2 gives a
    term 0 where d_j is nearly real, but a NaN sum where both its parts
    overflow (weyl's F' at z = 1e200 (1 + i); a known defect, ROADMAP.md)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _csum(c / (d * d))


def _clear_of_zero(f: complex, c: np.ndarray, dist: np.ndarray,
                   r: float) -> bool:
    """Whether _near_zero(f, f', r) is False for f = sum c_j/d_j, c_j >= 0
    and f' = _derivative(c, d), decided without summing f'.

    B = sum c_j/|d_j|^2 bounds |f'|, so the rule cannot fire once
    |f| >= r B (1 + delta) + slack.  r B is summed as sum c_j q_j^2 / r,
    q_j = r/|d_j| <= 1, so no term overflows at any |z|, and the sum only
    where the c_j sum past the largest double (an infinite bound clears
    nothing).  delta = (n + 64) 2^-52 covers the rounding of each term of
    f' (the complex square and Smith's division, about 10 u normwise,
    u = 2^-53), of its correctly rounded sum, of |f'| and of r |f'|, and
    of r B: a few u per term and at most (n - 1) u for a sum of terms of
    one sign, in any order.  slack = n (1 + r) 2^-1020 covers what
    rounding to a subnormal loses, which no relative bound does: a few
    2^-1075 per term of f' (r times that in r |f'|), 2^-1075/|d_j|^2 where
    c_j times the division's ratio underflows (times r, below 2^-1047 as
    |d_j| >= r >= 1e-8), and below 2^-1072 per term c_j q_j^2, so below
    2^-1045 once divided by r.
    """
    if f == 0:
        return False
    n = dist.size
    q = r / dist
    bound = float(np.dot(c * q, q)) / r
    return abs(f) >= (bound * (1.0 + (n + 64) * 2.0 ** -52)
                      + n * (1.0 + r) * 2.0 ** -1020)


def _regular(model: SpectralModel, z: complex, derivative: bool = False
             ) -> tuple[complex, np.ndarray, complex, complex | None]:
    """complex(z), lam - z, F(z) and F'(z), once z is guarded against the
    eigenvalues and the zeros of F.  F' is summed where it is asked for or
    where _clear_of_zero cannot clear z without it, else it is None."""
    z = complex(z)
    r, d, dist = _guard(model.eigenvalues, z, "eigenvalue")
    w = model.weights
    f, fp = _csum(w / d), None
    if derivative or not _clear_of_zero(f, w, dist, r):
        fp = _derivative(w, d)
        if _near_zero(f, fp, r):
            raise ZeroOfF(f"z={z} is within {r:.3e} of a zero of F")
    return z, d, f, fp


def weyl(model: SpectralModel, z: complex) -> tuple[complex, complex]:
    """Evaluate F(z) = sum w_j/(lam_j - z) and its derivative F'(z)."""
    _, d, _ = _guard(model.eigenvalues, complex(z), "eigenvalue")
    return _csum(model.weights / d), _derivative(model.weights, d)


def weyl_h(model: SpectralModel, h: float,
           z: complex) -> tuple[complex, complex, complex]:
    """Evaluate the coupled family: F_h = F/(1+hF), G_h = h + 1/F, G_h'.
    NumericalError where F^2 underflows (|z| past about 1e154)."""
    z, _, f, fp = _regular(model, z, derivative=True)
    if f * f == 0:
        raise NumericalError(f"F(z)^2 underflows at z={z}")
    f_h = f / (1.0 + h * f)
    g_h = h + 1.0 / f
    g_h_prime = -fp / (f * f)
    return f_h, g_h, g_h_prime


@dataclass(frozen=True)
class XiVector:
    """The normalized resolvent vector at a point, in eigenbasis coordinates."""

    at: complex
    coords: np.ndarray

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.coords) ** 2))


def xi(model: SpectralModel, z: complex) -> XiVector:
    """The eigenvector field: xi(x) spans Ker(A_h - x) for the matching h.

    Coordinates sqrt(w_j)/((lam_j - conj(z)) F(conj(z))); F(conj(z)) is
    conj(F(z)) exactly, since every term and sum is conjugation-symmetric.
    """
    z, _, f, _ = _regular(model, z)
    zb = z.conjugate()
    coords = model.sqrt_weights / ((model.eigenvalues - zb) * f.conjugate())
    return XiVector(at=z, coords=coords)


def xi_norm_sq(model: SpectralModel, x: float) -> float:
    """Squared norm of xi at a real point, via F'(x)/F(x)^2."""
    _, _, f, fp = _regular(model, x, derivative=True)
    return float((fp / (f * f)).real)
