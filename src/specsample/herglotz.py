"""Borel transform of the spectral measure and derived Herglotz quantities.

Every sum is the correctly rounded sum of its terms, so results are
reproducible across platforms.  Rows of real terms are summed a block at a
time, at most _BLOCK_TERMS terms per array so memory stays bounded at any
model size, by a vectorized error-free extraction that certifies each row
correctly rounded, on Python floats for a point's few rows, on arrays
for blocks, with a second extraction for long rows that cancel past its
bound, and math.fsum for the rest (_row_sums).  That serves real sums at
many real points or pole offsets (cauchy_rows), and every complex sum of
a point evaluator, all taken by one kernel (PoleSet) held once per pole
set: below _STACK_TERMS real terms per call, two per complex term at
every point, each part is one math.fsum; from there on they are stacked
into one _row_sums call, which is faster there (_sums).
A grid of points takes f and a numerator's sum at a block of points in one
_row_sums call (PoleSet.rows), and PoleSet.at at the points it cannot
pass.  The kernel enters np.errstate only at a point _FAR out: the data
types refuse masses, numerators and coefficients whose terms could pass
the doubles (model._QUIET).

Pole guards, one policy for every point evaluator of the package: within
r = EXCLUSION_RADIUS * max(1, spread of its poles) of a pole it raises
PoleProximity, and where the Newton step |f/f'| puts a zero of its
denominator f within r it raises ZeroOfF (for F; PoleProximity for F_h and
P_n, whose zeros are poles of the evaluated function, and for weyl_h where
1 + hF is exactly 0).  Any point but a finite number is a ValidationError.
For F and F_h, sums of c_j/(x_j - z) with c_j >= 0, f' is summed only
where a certificate, |f| >= r sum c_j/|x_j - z|^2 with a margin for
rounding (_clear_of_zero), cannot rule the zero guard out; elsewhere it
is summed and the guard decides exactly as without the certificate.
weyl, weyl_h and xi_norm_sq always sum F', which they return.  A point
farther than the largest double from a pole and a sum past the doubles are
NumericalErrors; below the doors (model._door) no sum of masses or
numerators can pass them.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, PoleProximity, ZeroOfF
from .model import SpectralModel, _number

# Relative pole-exclusion radius; scaled by the spread of the guarded poles.
EXCLUSION_RADIUS = 1e-8

# Terms formed at once per array by the solver, cauchy_rows, a reconstruct
# grid and verify's norm terms: 2^15 doubles is 256 KiB.
_BLOCK_TERMS = 1 << 15

# Real terms per call from which a point evaluator's sums are stacked into
# one _row_sums call (_sums); below it each part is one math.fsum.  They
# break even at 600 to 660 terms in 2, 4 or 6 rows: transform (4 rows)
# stacked takes 1.04-1.12 times the fsum time at N = 120 to 150, 0.89-1.01
# at N = 160 and 0.49-0.56 at N = 400 (16 points, medians of 6 to 10
# alternating rounds on one CPU; Python 3.11, numpy 2.4, a shared 2-vCPU
# x86-64 host).
_STACK_TERMS = 640

# Rows of a stack that _row_sums certifies on Python floats: one point's
# sums, F, F' and a numerator, each in two parts (and a block of
# cauchy_rows or PoleSet.rows where long rows leave room for few).
_SHORT_ROWS = 6

# Past _FAR in |Re d_j| or |Im d_j|, d_j^2 can overflow.
_FAR = 2.0 ** 511


def _fsum(terms: np.ndarray) -> complex:
    """Correctly rounded sum of a complex array (per part); fsum reads the
    parts through a memoryview, the same doubles in the same order as a
    list of them, without copying them out first.  A part holding both
    infinities, or past the largest double, has no sum: NumericalError."""
    try:
        return complex(math.fsum(memoryview(terms.real)),
                       math.fsum(memoryview(terms.imag)))
    except ValueError:  # -inf + inf
        raise NumericalError("a sum holds terms of both infinite signs"
                             ) from None
    except OverflowError:
        raise NumericalError("a sum is past the largest double") from None


def _sums(terms: list[np.ndarray]) -> list[complex]:
    """The _fsum of each of equal-length complex arrays, bit for bit.  From
    _STACK_TERMS real terms their parts are stacked into one (rows, n)
    buffer for one _row_sums call; below it, and where that call overflows
    or gives a NaN (a NaN term, or both infinities), each array takes its
    _fsum in order, which raises the first array's error."""
    k = len(terms)
    if 2 * k * terms[0].size >= _STACK_TERMS:
        try:
            sums = _row_sums(np.array([t.real for t in terms]
                                      + [t.imag for t in terms])).tolist()
        except NumericalError:
            pass
        else:
            if not any(map(math.isnan, sums)):
                return list(map(complex, sums[:k], sums[k:]))
    return list(map(_fsum, terms))


def _extract(t: np.ndarray):
    """One error-free extraction of the rows of t (see _row_sums): r, each
    row's sum rounded once, a list for up to _SHORT_ROWS rows, certified
    on Python floats; the uncertified rows a second extraction may certify
    (r finite and not 0, g below half the gap), and the others; tau and
    low, tau + sum(low) the row's exact sum."""
    n = t.shape[1]
    bits = (n + 2).bit_length()
    top = np.maximum.reduce(np.abs(t), axis=1)
    sigma = np.ldexp(float(1 << bits), np.frexp(top)[1])
    q = t + sigma[:, None]
    q -= sigma[:, None]
    tau = np.add.reduce(q, axis=1)
    low = np.subtract(t, q, out=q)
    e = np.add.reduce(low, axis=1)
    # beta = sigma * u2 rounded up to a power of two; one below the
    # smallest subnormal rounds to 0, and then e is exact, its error being
    # a multiple of that double.  No r = 0 is certified (half the gap
    # below the smallest subnormal rounds to 0), nor an infinite or NaN r
    # (g is NaN).
    u2 = math.ldexp(1.0, 2 * n.bit_length() + 2 - 106)
    retry, fail = [], []
    if len(t) <= _SHORT_ROWS:
        r = []
        for i, (s, a, b) in enumerate(zip(sigma.tolist(), tau.tolist(),
                                          e.tolist())):
            x = a + b
            back = x - a
            g = abs((a - (x - back)) + (b - back))
            half = 0.5 * math.ulp(math.nextafter(abs(x), 0.0))
            if not g + s * u2 < half:
                (retry if g < half and x else fail).append(i)
            r.append(x)
        return r, retry, fail, tau, low
    r = tau + e
    back = r - tau
    g = np.abs((tau - (r - back)) + (e - back))
    half = 0.5 * np.spacing(np.nextafter(np.abs(r), 0.0))
    for i in np.flatnonzero(~(g + sigma * u2 < half)).tolist():
        (retry if g[i] < half[i] and r[i] else fail).append(i)
    return r, retry, fail, tau, low


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
    sum.

    The certificate is sized to its stack (_extract): a point's sums, at
    most _SHORT_ROWS rows, on Python floats, where a dozen numpy calls on a
    few elements would cost more than the extraction; blocks of rows on
    arrays.  beta grows as n^2, so from n of a few thousand it fails the
    rows that cancel, a tenth of the node rule's.  Such a row gets a second
    extraction, of its exact remainder [tau, low], whose beta is narrower
    by about as much as the row cancels.  Every row left (a zero sum or a
    tie, which skip that, a sum past the largest double, a non-finite
    term) takes math.fsum; a row whose partial sums overflow raises
    NumericalError, and a row holding both infinities is NaN.
    """
    r, retry, fail, tau, low = _extract(t)
    if retry:
        again, still, ties = _extract(np.concatenate((tau[retry, None],
                                                      low[retry]), axis=1))[:3]
        for i, s in zip(retry, again):
            r[i] = s
        fail += [retry[j] for j in still + ties]
    for i in fail:
        try:
            # math.fsum keeps no zero partial: zeros of either sign sum to
            # 0.0.
            r[i] = math.fsum(memoryview(t[i])) if t[i].any() else 0.0
        except ValueError:  # -inf + inf: NaN, as numpy sums it
            r[i] = math.nan
        except OverflowError:
            raise NumericalError("a sum is past the largest double") from None
    return np.asarray(r)


def cauchy_rows(poles: np.ndarray, coeffs: np.ndarray, points: np.ndarray,
                power: int | tuple[int, ...] = 1,
                origin: np.ndarray | None = None) -> np.ndarray:
    """sum_j c_j / (poles_j - x)^p at each real point x, for one real
    coefficient set c (coeffs of shape (n,), result (points,)) or a stack of
    them (coeffs of shape (k, n), result (k, points)), summed in one pass.

    power p is 1 or 2, for every set or one per set.  Each row is the
    correctly rounded sum of the correctly rounded terms c_j / d_j
    (d_j * d_j for power 2, d_j = poles_j - x), so it equals the per-point
    math.fsum bit for bit on every machine (see _row_sums).  A block of
    points holds every set: _BLOCK_TERMS terms at most, or one point's.  A
    point on a pole gives an infinite or NaN row.  With origin, an index
    per point, row i is summed at x = poles_k + points_i, k = origin[i], as
    d_j = (poles_j - poles_k) - points_i, exact at poles_k, and the term of
    poles_k is left out.
    """
    n = poles.size
    sets = coeffs.reshape(-1, n)
    k = len(sets)
    powers = (power,) * k if isinstance(power, int) else tuple(power)
    # Sets of power 1 first: they divide by d, the rest by d * d.
    order = sorted(range(k), key=powers.__getitem__)
    sets, split = sets[order, None, :], powers.count(1)
    sums = np.empty((k, points.size))
    rows = max(1, _BLOCK_TERMS // max(1, n * k))
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
            t = np.empty((k,) + d.shape)
            np.divide(sets[:split], d, out=t[:split])
            if split < k:
                np.divide(sets[split:], d * d, out=t[split:])
            sums[order, block] = _row_sums(t.reshape(-1, n)).reshape(k, -1)
    return sums[0] if coeffs.ndim == 1 else sums


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _radius(spread: float) -> float:
    """Pole-exclusion radius for poles spread over the given length."""
    return EXCLUSION_RADIUS * max(1.0, spread)


def _near_zero(f: complex, fp: complex, r: float) -> bool:
    """Whether the Newton step |f/f'| puts a zero of f within r; for a
    Herglotz f (F, F_h) |f/f'| >= |Im z|, so only near-real z can."""
    return f == 0 or abs(f) < r * abs(fp)


def _slopes(c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The terms c_j / d_j^2 of f'.  Past _FAR, d_j^2 overflows (held by
    PoleSet.at): a term is 0 where d_j is nearly real, but a NaN where both
    its parts overflow (weyl's F' at 1e200 (1 + i); a known defect)."""
    return c / (d * d)


def _clear_of_zero(f: complex | np.ndarray, c: np.ndarray, dist: np.ndarray,
                   r: float, bound: float | np.ndarray | None = None
                   ) -> bool | np.ndarray:
    """Whether _near_zero(f, f', r) is False for f = sum c_j/d_j, c_j >= 0
    and f' = _fsum(_slopes(c, d)), decided without summing f'.

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

    A bound given for r B is used instead, the first certificate: r S / m
    / m, S the pole set's fsum of the c_j and m = min |d_j|, above r B but
    for a few u, well within delta, and summing nothing (it divides by m
    twice: m^2 can overflow where the terms of f' do not).  With it, f and
    the bound may hold a row of points (PoleSet.rows), one answer each.
    """
    n = dist.shape[-1]
    if bound is None:
        q = r / dist
        bound = float(np.dot(c * q, q)) / r
    return (f != 0) & (abs(f) >= (bound * (1.0 + (n + 64) * 2.0 ** -52)
                                  + n * (1.0 + r) * 2.0 ** -1020))


def _zero_of_f(z: complex, r: float) -> ZeroOfF:
    return ZeroOfF(f"z={z} is within {r:.3e} of a zero of F")


def _pole_of_f(z: complex, r: float) -> PoleProximity:
    return PoleProximity(
        f"z={z} is too close to a pole of the reconstructed function")


class PoleSet:
    """The point kernel of an increasing, non-empty set of real poles with
    masses c (None for a guard alone), named what in its errors, its zero
    guard raising zero(z, r): its ends, radius r and total, the fsum of
    the c_j, from which _clear_of_zero's first certificate is formed."""

    def __init__(self, poles: np.ndarray, c: np.ndarray | None,
                 what: str = "eigenvalue", zero: Callable = _zero_of_f):
        self.poles, self.c, self.what = poles, c, what
        self.lo, self.hi, self.zero = float(poles[0]), float(poles[-1]), zero
        self.r = _radius(self.hi - self.lo)
        self.total = 0.0 if c is None else math.fsum(c.tolist())

    def held(self, z: complex) -> bool:
        """Whether z is _FAR from an end pole or from the axis, where a
        square or Smith's division of d can overflow: its sums hold numpy's
        warnings."""
        x = z.real
        return not (self.hi - x < _FAR > x - self.lo
                    and -_FAR < z.imag < _FAR)

    def guard(self, z: complex) -> tuple[np.ndarray, np.ndarray, float]:
        """d = poles - z, |d| and its least at a finite z; PoleProximity
        (naming the pole) when z is within r of one, NumericalError when
        some d is past the largest double."""
        # The largest |Re d_j| is at an end pole, in the same rounding as d.
        x = z.real
        if self.hi - x == math.inf or x - self.lo == math.inf:
            raise NumericalError(f"{self.what} - z overflows at z={z}")
        d = self.poles - z
        dist = np.abs(d)
        m = float(np.minimum.reduce(dist))
        if m < self.r:
            raise PoleProximity(f"z={z} is within {self.r:.3e} of {self.what}"
                                f" {self.poles[int(dist.argmin())]}")
        return d, dist, m

    def at(self, z: complex, derivative: bool = False,
           num: np.ndarray | None = None, checked: bool = True
           ) -> tuple[complex, complex, complex | None, complex | None]:
        """z by model._number, f(z), f'(z) and N(z) = sum num_j/(poles_j -
        z), z guarded against the poles and, where checked, the zeros of
        f.  f' is summed where asked for or where _clear_of_zero cannot
        clear z, else None; N is None without num.  f, f' where asked for
        and N are summed together (_sums), before the guard."""
        z = _number(z, complex, "z")
        # Not an empty context: it costs a few percent of a call here.
        if self.held(z):
            with np.errstate(over="ignore", invalid="ignore"):
                return self._at(z, derivative, num, checked)
        return self._at(z, derivative, num, checked)

    def _at(self, z, derivative, num, checked):
        c, r = self.c, self.r
        d, dist, m = self.guard(z)
        terms = [c / d]
        if derivative:
            terms.append(_slopes(c, d))
        if num is not None:
            terms.append(num / d)
        sums = _sums(terms)
        f, fp = sums[0], sums[1] if derivative else None
        if not (derivative
                or _clear_of_zero(f, c, dist, r, r * self.total / m / m)
                or _clear_of_zero(f, c, dist, r)):
            fp = _fsum(_slopes(c, d))
        if checked and fp is not None and _near_zero(f, fp, r):
            raise self.zero(z, r)
        return z, f, fp, None if num is None else sums[-1]

    def rows(self, points: np.ndarray, num: np.ndarray):
        """Yields each point z, f and N of at(z, num=num), summed a block of
        points (_BLOCK_TERMS real terms) per _row_sums call, and whether at
        passes z without f': z finite, |d| beyond r (with room for |d|
        rounded otherwise than in guard), no d past the doubles and z
        cleared by the first certificate of _clear_of_zero, which sums
        nothing.  The caller hands every other point to at, which tries
        the summed bound and then f'."""
        c, lo, hi, r = self.c, self.lo, self.hi, self.r
        rows = max(1, _BLOCK_TERMS // (4 * self.poles.size))
        for start in range(0, points.size, rows):
            z = points[start:start + rows]
            with np.errstate(all="ignore"):
                d = self.poles - z[:, None]
                dist = np.abs(d)
                terms = (c / d, num / d)
                sums = _row_sums(np.concatenate(
                    [part for t in terms for part in (t.real, t.imag)]))
                f, n = (_complex(re, im) for re, im in sums.reshape(2, 2, -1))
                far = np.maximum(hi - z.real, z.real - lo) == math.inf
                m = dist.min(axis=1)
                ok = (np.isfinite(z) & ~far & (m > r * (1.0 + 2.0 ** -50))
                      & _clear_of_zero(f, c, dist, r, r * self.total / m / m))
            # Freed before the next block forms its own: one at a time.
            del d, dist, terms, sums
            yield from zip(z.tolist(), f.tolist(), n.tolist(), ok.tolist())


def weyl(model: SpectralModel, z: complex) -> tuple[complex, complex]:
    """Evaluate F(z) = sum w_j/(lam_j - z) and its derivative F'(z)."""
    return model._poles.at(z, derivative=True, checked=False)[1:3]


def weyl_h(model: SpectralModel, h: float,
           z: complex) -> tuple[complex, complex, complex]:
    """Evaluate the coupled family: F_h = F/(1+hF), G_h = h + 1/F, G_h'.
    NumericalError where F^2 underflows (|z| past about 1e154), and
    PoleProximity where 1 + hF is exactly 0 (a pole of F_h)."""
    h = _number(h, float, "h")
    z, f, fp, _ = model._poles.at(z, derivative=True)
    if f * f == 0:
        raise NumericalError(f"F(z)^2 underflows at z={z}")
    den = 1.0 + h * f
    if den == 0:
        raise PoleProximity(f"z={z} is a pole of F_h at h={h}")
    f_h = f / den
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
    z, f, _, _ = model._poles.at(z)
    coords = model.sqrt_weights / ((model.eigenvalues - z.conjugate())
                                   * f.conjugate())
    return XiVector(at=z, coords=coords)


def xi_norm_sq(model: SpectralModel, x: float) -> float:
    """Squared norm of xi at a real point x, F'/F^2 = -G_0' of weyl_h."""
    return -weyl_h(model, 0.0, _number(x, float, "x"))[2].real
