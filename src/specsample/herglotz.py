"""Borel transform of the spectral measure and derived Herglotz quantities.

Every sum is the correctly rounded sum of its terms, so results are
reproducible across platforms.  Rows of real terms are summed a block at a
time, at most _BLOCK_TERMS terms per array so memory stays bounded at any
model size, by a vectorized error-free extraction that certifies each row
correctly rounded, and math.fsum for the rest (_row_sums).  That serves
real sums at many real points or pole offsets (cauchy_rows), and the
complex sums a point evaluator takes at one point (_stacked): below
_STACK_TERMS real terms per call, not counting the imaginary parts of F's
terms at a real point, which are zeros, each part is one math.fsum; from
there on they are stacked into one _row_sums call, which is faster there.

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
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, PoleProximity, ValidationError, ZeroOfF
from .model import SpectralModel

# Relative pole-exclusion radius; scaled by the spread of the guarded poles.
EXCLUSION_RADIUS = 1e-8

# Terms formed at once by cauchy_rows, and stacked at once for
# kramer_reconstruct, per array: 2^15 doubles is 256 KiB.
_BLOCK_TERMS = 1 << 15

# Real terms per call from which _stacked stacks its sums into one _row_sums
# call; below it, the sums are taken by _csum alone.  math.fsum takes
# 35-50 ns a term and a stacked call 25-40 us whatever its rows; they break
# even at about 800 terms (Python 3.11, numpy 2.4, a shared 2-vCPU x86-64
# host).
_STACK_TERMS = 800


def _csum(terms: np.ndarray) -> complex:
    """Correctly rounded sum of a complex array (per part); fsum reads the
    parts through a memoryview, the same doubles in the same order as a
    list of them, without copying them out first.  A part holding both
    infinities has no sum: NumericalError."""
    try:
        return complex(math.fsum(memoryview(terms.real)),
                       math.fsum(memoryview(terms.imag)))
    except ValueError:  # -inf + inf
        raise NumericalError("a sum holds terms of both infinite signs"
                             ) from None


def _stacked(terms) -> list[complex] | None:
    """[_csum(t) for t in terms] for equal-length complex arrays (a
    sequence, or the rows of a 2-D array: kramer_reconstruct passes a block
    of _BLOCK_TERMS real terms at a time), bit for bit, from one _row_sums
    call over their real and imaginary parts.  An imaginary part of zeros (F's terms at a real point) is 0.0,
    as fsum sums it, and is left out of the call and of the count; they are
    looked for only where the first term of the first array is real, so off
    the real axis that costs no pass.  None below _STACK_TERMS real terms
    in the call (callers test 2 k n >= _STACK_TERMS for k arrays of n terms
    before they form them), and where a sum overflows or is NaN (a NaN
    term, or both infinities), which _csum raises or returns.  A caller
    given None takes each sum with _csum, in the order that decides which
    error is raised."""
    t = np.asarray(terms)
    if 2 * t.size < _STACK_TERMS:
        return None
    imag, live = t.imag, None
    if not t[0, 0].imag:
        live = [bool(head.imag or np.count_nonzero(imag[i]))
                for i, head in enumerate(t[:, 0].tolist())]
        if (len(t) + sum(live)) * t.shape[1] < _STACK_TERMS:
            return None
        imag = imag[live]
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            sums = _row_sums(np.concatenate((t.real, imag))).tolist()
    except OverflowError:
        return None
    k = len(t)
    if live is not None:
        found = iter(sums[k:])
        sums[k:] = [next(found) if nonzero else 0.0 for nonzero in live]
    if any(map(math.isnan, sums)):
        return None
    return list(map(complex, sums[:k], sums[k:]))


def _sum(terms: np.ndarray) -> complex:
    """_csum(terms), taken by one _row_sums call (_stacked) from
    _STACK_TERMS real terms on."""
    if 2 * terms.size < _STACK_TERMS:
        return _csum(terms)
    return (_stacked([terms]) or [_csum(terms)])[0]


def _extract(t: np.ndarray):
    """One error-free extraction of the rows of t: each row's sum r rounded
    once, whether it is certified correctly rounded, and tau, low with
    tau + sum(low) equal to the row's sum exactly (see _row_sums)."""
    n = t.shape[1]
    bits = (n + 2).bit_length()
    top = np.maximum.reduce(np.abs(t), axis=1)
    sigma = np.ldexp(float(1 << bits), np.frexp(top)[1])[:, None]
    q = t + sigma
    q -= sigma
    tau = np.add.reduce(q, axis=1)
    low = np.subtract(t, q, out=q)
    e = np.add.reduce(low, axis=1)
    r = tau + e
    back = r - tau
    g = (tau - (r - back)) + (e - back)
    # beta rounded up to a power of two; one below the smallest subnormal
    # rounds to 0, and then e is exact, its error being a multiple of that
    # double.
    beta = sigma[:, 0] * math.ldexp(1.0, 2 * n.bit_length() + 2 - 106)
    # No r = 0 is certified (half the gap below the smallest subnormal
    # rounds to 0), nor an infinite or NaN r (g is NaN).
    gap = np.spacing(np.nextafter(np.abs(r), 0.0))
    return r, np.abs(g) + beta < 0.5 * gap, tau, low


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
    of its exact remainder [tau, low], unless r = 0 (a row of zeros, say:
    the imaginary parts at a real point, which sum to 0.0).  Every other
    row (a zero sum, a tie, a sum past the largest double, a non-finite
    term) takes math.fsum, which raises its OverflowError where its
    partial sums overflow; a row holding both infinities is NaN.
    """
    r, certified, tau, low = _extract(t)
    if np.count_nonzero(certified) < certified.size:
        rows = np.flatnonzero(~certified & (r != 0.0))
        if rows.size:
            rest = np.concatenate((tau[rows, None], low[rows]), axis=1)
            r[rows], certified[rows] = _extract(rest)[:2]
        for i in np.flatnonzero(~certified):
            try:
                # math.fsum keeps no zero partial: zeros of either sign sum
                # to 0.0.
                r[i] = math.fsum(memoryview(t[i])) if t[i].any() else 0.0
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


def _slopes(c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The terms c_j / d_j^2 of f', overflow held.  Past |d_j| = 1.3e154,
    d_j^2 gives a term 0 where d_j is nearly real, but a NaN where both its
    parts overflow (weyl's F' at z = 1e200 (1 + i); a known defect,
    ROADMAP.md)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return c / (d * d)


def _clear_of_zero(f: complex, c: np.ndarray, dist: np.ndarray,
                   r: float) -> bool:
    """Whether _near_zero(f, f', r) is False for f = sum c_j/d_j, c_j >= 0
    and f' = _csum(_slopes(c, d)), decided without summing f'.

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


def _zero_of_f(z: complex, r: float) -> ZeroOfF:
    return ZeroOfF(f"z={z} is within {r:.3e} of a zero of F")


def _regular(poles: np.ndarray, c: np.ndarray, z: complex,
             derivative: bool = False, num: np.ndarray | None = None,
             what: str = "eigenvalue",
             zero: Callable[[complex, float], Exception] = _zero_of_f
             ) -> tuple[complex, complex, complex | None, complex | None]:
    """complex(z), f(z) = sum c_j/(poles_j - z), f'(z) and N(z) = sum
    num_j/(poles_j - z), z guarded against the poles (named what) and the
    zeros of f (raising zero(z, r)).  f' is summed where asked for or where
    _clear_of_zero cannot clear z without it, else None; N is None without
    num.  From _STACK_TERMS real terms on, f and those asked for are one
    stacked call; else, or where it declines, each is a _csum of the terms
    formed, N after the guard."""
    z = complex(z)
    r, d, dist = _guard(poles, z, what)
    terms = [c / d]
    if derivative:
        terms.append(_slopes(c, d))
    if num is not None:
        terms.append(num / d)
    sums = iter((2 * len(terms) * c.size >= _STACK_TERMS and _stacked(terms))
                or map(_csum, terms))
    f = next(sums)
    fp = next(sums) if derivative else None
    if fp is None and not _clear_of_zero(f, c, dist, r):
        fp = _csum(_slopes(c, d))
    if fp is not None and _near_zero(f, fp, r):
        raise zero(z, r)
    return z, f, fp, next(sums) if num is not None else None


def weyl(model: SpectralModel, z: complex) -> tuple[complex, complex]:
    """Evaluate F(z) = sum w_j/(lam_j - z) and its derivative F'(z)."""
    _, d, _ = _guard(model.eigenvalues, complex(z), "eigenvalue")
    w = model.weights
    terms = [w / d, _slopes(w, d)]
    return tuple((4 * w.size >= _STACK_TERMS and _stacked(terms))
                 or map(_csum, terms))


def weyl_h(model: SpectralModel, h: float,
           z: complex) -> tuple[complex, complex, complex]:
    """Evaluate the coupled family: F_h = F/(1+hF), G_h = h + 1/F, G_h'.
    NumericalError where F^2 underflows (|z| past about 1e154)."""
    z, f, fp, _ = _regular(model.eigenvalues, model.weights, z,
                           derivative=True)
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
    z, f, _, _ = _regular(model.eigenvalues, model.weights, z)
    zb = z.conjugate()
    coords = model.sqrt_weights / ((model.eigenvalues - zb) * f.conjugate())
    return XiVector(at=z, coords=coords)


def xi_norm_sq(model: SpectralModel, x: float) -> float:
    """Squared norm of xi at a real point, via F'(x)/F(x)^2.
    NumericalError where F^2 underflows, as in weyl_h."""
    z, f, fp, _ = _regular(model.eigenvalues, model.weights, x,
                           derivative=True)
    if f * f == 0:
        raise NumericalError(f"F(z)^2 underflows at z={z}")
    return float((fp / (f * f)).real)
