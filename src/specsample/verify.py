"""Seeded invariant suite run against a single model.

Each group checks one structural identity of the theory on the given model
with randomized states, couplings, and test points.  Used by the command
line front end and by the test suite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .herglotz import _BLOCK_TERMS, cauchy_rows, weyl_h
from .model import Coupling, SpectralModel, StateVector, normalize
from .perturbation import (
    compression_spectrum,
    perturbed_model,
    perturbed_spectrum,
)
from .sampling import (
    apply_perturbed,
    from_partial_fractions,
    inner_h,
    mu_inner,
    reconstruct,
    sample,
    to_partial_fractions,
    transform,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_state(rng: np.random.Generator, n: int) -> StateVector:
    return StateVector(rng.normal(size=n) + 1j * rng.normal(size=n))


def _random_points(rng: np.random.Generator, model: SpectralModel,
                   count: int) -> np.ndarray:
    lo = model.eigenvalues[0] - 0.5 * model.scale
    span = 2.0 * model.scale
    re = lo + span * rng.random(count)
    im = (0.3 + rng.random(count)) * np.where(rng.random(count) < 0.5, -1, 1)
    return re + 1j * im * max(1.0, 0.1 * model.scale)


def _interlaces(a: np.ndarray, b: np.ndarray) -> bool:
    merged = sorted([(x, 0) for x in a] + [(x, 1) for x in b])
    return all(merged[i][1] != merged[i + 1][1] for i in range(len(merged) - 1))


def check_interlacing(model: SpectralModel, rng) -> CheckResult:
    ok = True
    worst = ""
    for _ in range(5):
        h1, h2 = rng.uniform(-3, 3, size=2)
        if abs(h1 - h2) < 1e-3:
            h2 += 0.5
        s1 = perturbed_spectrum(model, Coupling.finite(h1))
        s2 = perturbed_spectrum(model, Coupling.finite(h2))
        if not _interlaces(s1, s2):
            ok = False
            worst = f"h={h1:.3f} vs h={h2:.3f}"
    return CheckResult("interlacing", ok, worst or "5 coupling pairs")


def check_secular_residuals(model: SpectralModel, rng) -> CheckResult:
    worst = 0.0
    for _ in range(5):
        h = rng.uniform(-3, 3)
        if abs(h) < 1e-3:
            h = 1.0
        nodes = perturbed_spectrum(model, Coupling.finite(h))
        # direct residual, bypassing exclusion checks
        f = cauchy_rows(model.eigenvalues, model.weights, nodes)
        # A residual past the doubles, or NaN, reads as inf and fails.
        with np.errstate(over="ignore", invalid="ignore"):
            res = np.abs(1.0 + h * f)
        worst = max(worst, float(np.where(np.isnan(res), np.inf, res).max()))
    return CheckResult("secular-residuals", worst <= 1e-10, f"max={worst:.2e}")


def check_reconstruction(model: SpectralModel, rng) -> CheckResult:
    worst = 0.0
    for _ in range(3):
        phi = _random_state(rng, model.dim)
        h = rng.uniform(-2, 2)
        samples = sample(model, phi, h)
        for z in _random_points(rng, model, 10):
            got = reconstruct(samples, z)
            want = transform(model, phi, z)
            worst = max(worst, abs(got - want) / max(1e-30, abs(want)))
    return CheckResult("reconstruction", worst <= 1e-9, f"max rel={worst:.2e}")


def check_unitarity(model: SpectralModel, rng) -> CheckResult:
    worst = 0.0
    for _ in range(5):
        phi = _random_state(rng, model.dim)
        psi = _random_state(rng, model.dim)
        h = rng.uniform(-3, 3)
        got = inner_h(model, h, phi, psi)
        want = complex(np.vdot(phi.coords, psi.coords))
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    return CheckResult("unitarity", worst <= 1e-10, f"max rel={worst:.2e}")


def check_partial_fractions(model: SpectralModel, rng) -> CheckResult:
    unit = normalize(model)
    worst = 0.0
    for _ in range(5):
        phi = _random_state(rng, unit.dim)
        rep = to_partial_fractions(unit, phi)
        back = from_partial_fractions(unit, rep)
        worst = max(worst, float(np.max(np.abs(back.coords - phi.coords))))
        # |c_n|^2 F'(x_n) term by term, each at most ||phi||^2 (F'
        # overflows), in blocks of _BLOCK_TERMS summed by one fsum.
        c, rows = np.abs(rep.coefficients), max(1, _BLOCK_TERMS // unit.dim)
        blocks = (unit.sqrt_weights[i:i + rows, None] * (c / np.abs(
            np.subtract.outer(unit.eigenvalues[i:i + rows], rep.poles)))
            for i in range(0, unit.dim, rows))
        norm_id = abs(rep.constant) ** 2 + math.fsum(chain.from_iterable(
            memoryview((t * t).ravel()) for t in blocks))
        err = abs(norm_id - phi.norm() ** 2) / phi.norm() ** 2
        worst = max(worst, err)
    return CheckResult("partial-fractions", worst <= 1e-10, f"max={worst:.2e}")


def check_quasi_multiplication(model: SpectralModel, rng) -> CheckResult:
    worst = 0.0
    for _ in range(5):
        phi = _random_state(rng, model.dim)
        h = rng.uniform(-2, 2)
        z = complex(_random_points(rng, model, 1)[0])
        f_h, _, _ = weyl_h(model, h, z)
        got = transform(model, apply_perturbed(model, h, phi), z)
        want = mu_inner(model, phi) / f_h + z * transform(model, phi, z)
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    return CheckResult("quasi-multiplication", worst <= 1e-9, f"max rel={worst:.2e}")


def check_compression_zeros(model: SpectralModel, rng) -> CheckResult:
    zeros = perturbed_spectrum(model, Coupling.infinite())
    comp = compression_spectrum(model)
    worst = float(np.max(np.abs(zeros - comp))) if zeros.size else 0.0
    return CheckResult("compression-zeros", worst <= 1e-9 * model.scale,
                       f"max={worst:.2e}")


def check_perturbation_round_trip(model: SpectralModel, rng) -> CheckResult:
    h = rng.uniform(0.5, 2.0)
    there = perturbed_model(model, h)
    back = perturbed_model(there, -h)
    worst = max(
        float(np.max(np.abs(back.eigenvalues - model.eigenvalues))),
        float(np.max(np.abs(back.weights - model.weights))),
    )
    return CheckResult("perturbation-round-trip", worst <= 1e-9 * model.scale,
                       f"max={worst:.2e}")


ALL_CHECKS = (
    check_interlacing,
    check_secular_residuals,
    check_reconstruction,
    check_unitarity,
    check_partial_fractions,
    check_quasi_multiplication,
    check_compression_zeros,
    check_perturbation_round_trip,
)


def run_verification(model: SpectralModel, seed: int) -> list[CheckResult]:
    results = []
    for i, check in enumerate(ALL_CHECKS):
        rng = np.random.default_rng([seed, i])
        results.append(check(model, rng))
    return results
