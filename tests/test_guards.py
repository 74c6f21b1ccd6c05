"""One pole-guard policy for every point evaluator.

Each evaluator raises within r = EXCLUSION_RADIUS * max(1, spread of its
poles) of a pole (PoleProximity) or, by the Newton step |f/f'|, of a zero
of its denominator (ZeroOfF for F, PoleProximity for F_h and P_n), returns
a finite value at 1.1 r, and rejects a non-finite point.
"""
import math

import numpy as np
import pytest

from specsample import (
    Coupling,
    JacobiParams,
    PoleProximity,
    StateVector,
    ValidationError,
    ZeroOfF,
    evaluate_rep,
    jm_reconstruct,
    kramer_reconstruct,
    oscillator_model,
    osc_F_integral,
    osc_F_series,
    perturbed_spectrum,
    reconstruct,
    sample,
    to_partial_fractions,
    transform,
    truncate,
    weyl,
    weyl_approx,
    weyl_h,
    xi,
    xi_norm_sq,
)
from specsample.herglotz import EXCLUSION_RADIUS

from conftest import random_model, random_state

_RNG = np.random.default_rng(5)
M = random_model(_RNG, 6)
PHI = random_state(_RNG, 6)
R = EXCLUSION_RADIUS * M.scale
EIG = M.eigenvalues[2]
ZERO_F = perturbed_spectrum(M, Coupling.infinite())[2]
S = sample(M, PHI, 1.3)
RS = EXCLUSION_RADIUS * max(1.0, S.nodes[-1] - S.nodes[0])
REP = to_partial_fractions(M, PHI)
RR = EXCLUSION_RADIUS * max(1.0, REP.poles[-1] - REP.poles[0])

JAC = JacobiParams(np.arange(1.0, 13.0), np.ones(12))
JAC_EIG = truncate(JAC, 6).eigenvalues[3]
M10 = truncate(JAC, 10)
S10 = sample(M10, StateVector(M10.sqrt_weights / (1.0 + M10.eigenvalues ** 2)),
             1.5)
RS10 = EXCLUSION_RADIUS * (S10.nodes[-1] - S10.nodes[0])

EVALUATORS = {
    "weyl": lambda z: weyl(M, z),
    "weyl_h": lambda z: weyl_h(M, 1.3, z),
    "xi": lambda z: xi(M, z).coords,
    "xi_norm_sq": lambda z: xi_norm_sq(M, z),
    "transform": lambda z: transform(M, PHI, z),
    "kramer_reconstruct": lambda z: kramer_reconstruct(M, S, z),
    "reconstruct": lambda z: reconstruct(S, z),
    "evaluate_rep": lambda z: evaluate_rep(REP, z),
    "jm_reconstruct": lambda z: jm_reconstruct(JAC, 10, S10, z),
    "weyl_approx": lambda z: weyl_approx(JAC, z, 6),
    "osc_F_series": lambda z: osc_F_series(z, 20),
    "osc_F_integral": lambda z: osc_F_integral(z, 64),
}

# (evaluator, what the point is next to, the point, radius, raised error)
CASES = [
    *[(name, "eigenvalue", EIG, R, PoleProximity)
      for name in ("weyl", "weyl_h", "xi", "xi_norm_sq", "transform",
                   "kramer_reconstruct")],
    *[(name, "zero-of-F", ZERO_F, R, ZeroOfF)
      for name in ("weyl_h", "xi", "xi_norm_sq", "transform",
                   "kramer_reconstruct")],
    ("reconstruct", "node", S.nodes[3], RS, PoleProximity),
    ("reconstruct", "zero-of-F_h", ZERO_F, RS, PoleProximity),
    ("evaluate_rep", "pole", REP.poles[1], RR, PoleProximity),
    ("jm_reconstruct", "node", S10.nodes[4], RS10, PoleProximity),
    ("weyl_approx", "zero-of-P_n", JAC_EIG, EXCLUSION_RADIUS * JAC.scale(6),
     PoleProximity),
    ("osc_F_series", "level", 7.0, EXCLUSION_RADIUS * 2 * 19, PoleProximity),
    # The integral's only poles are the zeros of cos(pi z/2); it sums no
    # finite set of levels, so it takes the one-pole radius.
    ("osc_F_integral", "level", 7.0, EXCLUSION_RADIUS, PoleProximity),
]


def _finite(value) -> bool:
    return bool(np.all(np.isfinite(np.asarray(value, dtype=complex))))


@pytest.mark.parametrize("direction", [1.0, -1.0, 1j])
@pytest.mark.parametrize("name,near,point,r,error", CASES,
                         ids=[f"{c[0]}-{c[1]}" for c in CASES])
def test_guard_radius(name, near, point, r, error, direction):
    evaluate = EVALUATORS[name]
    with pytest.raises(error):
        evaluate(point + 0.9 * r * direction)
    assert _finite(evaluate(point + 1.1 * r * direction))


@pytest.mark.parametrize("z", [complex(math.inf, 0.0), complex(0.5, math.inf),
                               complex(math.nan, 0.0), complex(0.0, math.nan)],
                         ids=["inf", "inf-imag", "nan", "nan-imag"])
@pytest.mark.parametrize("name", sorted(EVALUATORS))
def test_non_finite_point_is_rejected(name, z):
    with pytest.raises(ValidationError):
        EVALUATORS[name](z)


@pytest.mark.parametrize("k", range(20))
def test_series_guard_matches_the_model(k):
    # The series has the poles of the 20-level model, so it has its radius:
    # 3e-7 is inside 1e-8 * 38.
    z = 2 * k + 1 + 3e-7
    with pytest.raises(PoleProximity):
        weyl(oscillator_model(20), z)
    with pytest.raises(PoleProximity):
        osc_F_series(z, 20)
