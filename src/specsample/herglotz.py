"""Borel transform of the spectral measure and derived Herglotz quantities.

Every sum is a correctly rounded math.fsum of its terms (error-free
transformation of the partial sums), so results are reproducible across
platforms.  Sums at many real points are taken per row, in blocks of rows
of at most _BLOCK_TERMS terms, so memory stays bounded at any model size.

Pole guards, one policy for every point evaluator of the package: within
r = EXCLUSION_RADIUS * max(1, spread of its poles) of a pole it raises
PoleProximity, and where the Newton step |f/f'| puts a zero of its
denominator f within r it raises ZeroOfF (for F; PoleProximity for F_h and
P_n, whose zeros are poles of the evaluated function).  A non-finite point
is a ValidationError.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import PoleProximity, ValidationError, ZeroOfF
from .model import SpectralModel

# Relative pole-exclusion radius; scaled by the spread of the guarded poles.
EXCLUSION_RADIUS = 1e-8

# Terms formed at once by cauchy_rows: 2^14 doubles is 128 KiB per array.
_BLOCK_TERMS = 1 << 14


def _csum(terms: np.ndarray) -> complex:
    """Correctly rounded sum of a complex array (per part)."""
    return complex(math.fsum(terms.real.tolist()),
                   math.fsum(terms.imag.tolist()))


def cauchy_rows(poles: np.ndarray, coeffs: np.ndarray, points: np.ndarray,
                power: int = 1, skip: np.ndarray | None = None,
                shift: np.ndarray | None = None) -> np.ndarray:
    """sum_j coeffs_j / (poles_j - x)^power at each real point x.

    Each row is one math.fsum of the correctly rounded terms coeffs_j / d_j
    (d_j * d_j for power 2, d_j = poles_j - x), so it equals the per-point
    sum bit for bit; complex coefficients are divided part by part.  A
    point on a pole gives an infinite or NaN row.  Optional per-point
    arrays: skip, the index of one pole whose term is left out (-1 for
    none); shift, an offset below the point's rounding, taken as
    d_j = (poles_j - x) - shift.
    """
    parts = ((coeffs.real, coeffs.imag) if np.iscomplexobj(coeffs)
             else (coeffs,))
    sums = np.empty((len(parts), points.size))
    rows = max(1, _BLOCK_TERMS // poles.size)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for start in range(0, points.size, rows):
            block = slice(start, start + rows)
            d = poles - points[block, None]
            if shift is not None:
                d -= shift[block, None]
            if power == 2:
                d *= d
            if skip is not None:
                row = np.flatnonzero(skip[block] >= 0)
                # c / inf is an exact zero, which leaves the fsum unchanged.
                d[row, skip[block][row]] = np.inf
            for part, out in zip(parts, sums):
                out[block] = [math.fsum(r) for r in (part / d).tolist()]
    return sums[0] if len(parts) == 1 else _complex(sums[0], sums[1])


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _real_quotient(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den for complex num and real den, each part rounded once
    (numpy's complex division multiplies by a rounded reciprocal)."""
    return _complex(num.real / den, num.imag / den)


def _check_finite(z: complex) -> None:
    if not cmath.isfinite(z):
        raise ValidationError(f"z={z} is not a finite point")


def _radius(spread: float) -> float:
    """Pole-exclusion radius for poles spread over the given length."""
    return EXCLUSION_RADIUS * max(1.0, spread)


def _guard(poles: np.ndarray, z: complex, what: str) -> float:
    """The exclusion radius r of the sorted poles; PoleProximity (naming
    the pole) when z is within r of one, ValidationError when z is not
    finite."""
    _check_finite(z)
    r = _radius(float(poles[-1] - poles[0]) if poles.size else 0.0)
    d = np.abs(poles - z)
    if d.size and d.min() < r:
        raise PoleProximity(
            f"z={z} is within {r:.3e} of {what} {poles[int(d.argmin())]}"
        )
    return r


def _near_zero(f: complex, fp: complex, r: float) -> bool:
    """Whether the Newton step |f/f'| puts a zero of f within r; for a
    Herglotz f (F, F_h) |f/f'| >= |Im z|, so only near-real z can."""
    return f == 0 or abs(f) < r * abs(fp)


def _weyl_raw(model: SpectralModel, z: complex) -> tuple[complex, complex]:
    """F and F' without exclusion checks.  Callers guard the poles."""
    d = model.eigenvalues - z
    f = _csum(model.weights / d)
    fp = _csum(model.weights / (d * d))
    return f, fp


def _regular(model: SpectralModel,
             z: complex) -> tuple[complex, complex, complex]:
    """complex(z), F(z) and F'(z), once z is guarded against the
    eigenvalues and the zeros of F."""
    z = complex(z)
    r = _guard(model.eigenvalues, z, "eigenvalue")
    f, fp = _weyl_raw(model, z)
    if _near_zero(f, fp, r):
        raise ZeroOfF(f"z={z} is within {r:.3e} of a zero of F")
    return z, f, fp


def weyl(model: SpectralModel, z: complex) -> tuple[complex, complex]:
    """Evaluate F(z) = sum w_j/(lam_j - z) and its derivative F'(z)."""
    z = complex(z)
    _guard(model.eigenvalues, z, "eigenvalue")
    return _weyl_raw(model, z)


def weyl_h(model: SpectralModel, h: float,
           z: complex) -> tuple[complex, complex, complex]:
    """Evaluate the coupled family: F_h = F/(1+hF), G_h = h + 1/F, G_h'."""
    _, f, fp = _regular(model, z)
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
    z, f, _ = _regular(model, z)
    zb = z.conjugate()
    coords = model.sqrt_weights / ((model.eigenvalues - zb) * f.conjugate())
    return XiVector(at=z, coords=coords)


def xi_norm_sq(model: SpectralModel, x: float) -> float:
    """Squared norm of xi at a real point, via F'(x)/F(x)^2."""
    _, f, fp = _regular(model, x)
    return float((fp / (f * f)).real)
