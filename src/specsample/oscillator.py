"""Harmonic-oscillator example: levels 2n+1 with cyclic weights 1/n!.

The Borel transform of this model has both a partial-fraction series and a
contour-integral representation; both are implemented and cross-checked.
The closed-form cyclic vector and its overlaps with the oscillator
eigenfunctions validate the weight sequence at coefficient level.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import (
    NonPositiveWeight,
    QuadratureNonConvergence,
    ValidationError,
)
from .herglotz import PoleSet, weyl
from .model import _WEIGHT_FLOOR, SpectralModel, _count, _number, new_model

_PI4 = math.pi ** -0.25


@lru_cache(maxsize=16)
def _leggauss(points: int):
    return np.polynomial.legendre.leggauss(points)


@lru_cache(maxsize=16)
def _hermgauss(points: int):
    return np.polynomial.hermite.hermgauss(points)


def oscillator_model(levels: int, normalized: bool = False) -> SpectralModel:
    """Finite model with eigenvalues 1, 3, ..., 2*levels-1 and raw weights
    1/n!; total raw weight tends to e as levels grow."""
    levels = _count(levels, "levels", 2)
    # 1/167! is below the weight floor: more than 167 levels are refused
    # before they are allocated.
    w = [1.0]
    for n in range(1, levels):
        w.append(w[-1] / n)
        if w[-1] <= _WEIGHT_FLOOR:
            raise NonPositiveWeight(f"weight 1/{n}! is below the model floor "
                                    f"{_WEIGHT_FLOOR:g}")
    w = np.array(w)
    if normalized:
        w = w / math.fsum(w)
    return new_model(2.0 * np.arange(levels) + 1.0, w)


def osc_F_series(z: complex, terms: int) -> complex:
    """Partial sum of F(z) = sum 1/(n! (2n+1-z)): F of the terms-level
    model."""
    return weyl(oscillator_model(_count(terms, "terms", 2)), z)[0]


def osc_F_tail_bound(z: complex, terms: int) -> float:
    """Bound on the dropped tail: sum_{n>=terms} 1/(n! |2n+1-z|)."""
    z, terms = _number(z, complex, "z"), _count(terms, "terms", 0)
    dist = min(abs(2.0 * n + 1.0 - z) for n in range(terms, terms + 64))
    return 2.0 / (math.factorial(min(terms, 170)) * dist)


def _osc_integrand(theta: np.ndarray, z: complex) -> np.ndarray:
    return np.exp(-np.cos(theta) - 1j * np.sin(theta)) * np.exp(
        1j * (1.0 - z) * theta / 2.0
    )


def _integral_value(z: complex, points: int) -> complex:
    # Gauss-Legendre on [-pi, pi]: the integrand is analytic but not
    # periodic, so this converges spectrally where a trapezoid rule stalls
    # at second order.
    x, w = _leggauss(points)
    vals = _osc_integrand(math.pi * x, z)
    acc = math.pi * complex(math.fsum(w * vals.real), math.fsum(w * vals.imag))
    return acc / (4.0 * np.cos(math.pi * z / 2.0))


def _refined(value, points: int, tol: float, what: str):
    """value(points), once value at half as many points (at least 8)
    agrees with it within tol relative."""
    coarse = value(max(8, points // 2))
    fine = value(points)
    if abs(fine - coarse) > tol * (1.0 + abs(fine)):
        raise QuadratureNonConvergence(
            f"refinement changed the {what} by {abs(fine - coarse):.3e}"
        )
    return fine


def osc_F_integral(z: complex, quad_points: int) -> complex:
    """Contour-integral representation of F, by Gauss-Legendre quadrature.

    F(z) = (1/(4 cos(pi z/2))) * integral over [-pi, pi] of
    exp(-cos t - i sin t) exp(i (1-z) t / 2) dt.

    cos(pi z/2) vanishes at every odd integer, so z is guarded against the
    nearest one at the one-pole radius EXCLUSION_RADIUS: the integral sums
    no finite set of levels whose spread would scale it.
    """
    z = _number(z, complex, "z")
    quad_points = _count(quad_points, "quad_points", 1)
    PoleSet(np.array([2.0 * math.floor(z.real / 2.0) + 1.0]), None,
            "oscillator level").guard(z)
    return _refined(lambda points: _integral_value(z, points), quad_points,
                    1e-8, "integral")


def mu_pointwise(x: float) -> float:
    """Closed form of the cyclic vector on the line."""
    x = _number(x, float, "x")
    return _PI4 * math.exp(-0.5 * (x * x - 2.0 * math.sqrt(2.0) * x + 1.0))


def _hermite_functions(n: int, x: np.ndarray) -> np.ndarray:
    """Normalized Hermite polynomials psi_n = H_n / sqrt(2^n n! sqrt(pi)),
    i.e. the oscillator eigenfunctions with the Gaussian stripped."""
    psi_prev = np.full_like(x, _PI4)
    if n == 0:
        return psi_prev
    psi = math.sqrt(2.0) * x * psi_prev
    for k in range(1, n):
        psi, psi_prev = (
            math.sqrt(2.0 / (k + 1)) * x * psi
            - math.sqrt(k / (k + 1.0)) * psi_prev,
            psi,
        )
    return psi


def hermite_overlap(n: int, quad_points: int) -> float:
    """Overlap of the n-th eigenfunction with the cyclic vector; the exact
    value is 1/sqrt(n!).

    Gauss-Hermite quadrature in the weight exp(-x^2): the Gaussian factors
    of the eigenfunction and the cyclic vector combine into the weight,
    leaving the entire function psi_n(x) * pi^(-1/4) exp(sqrt(2) x - 1/2).
    """
    n, quad_points = _count(n, "n", 0), _count(quad_points, "quad_points", 1)
    if n > 20:
        raise ValidationError("overlap recurrence validated only up to n=20")

    def value(points: int) -> float:
        x, w = _hermgauss(points)
        g = _hermite_functions(n, x) * _PI4 * np.exp(
            math.sqrt(2.0) * x - 0.5
        )
        return math.fsum(w * g)

    return _refined(value, quad_points, 1e-9, "overlap")
