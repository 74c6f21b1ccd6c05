"""Point evaluators against the rule with every sum taken.

The reference sums F' at every point, applies the zero guard
f == 0 or |f| < r |f'| to it, and takes each sum as math.fsum over a list
of the terms.  The evaluators sum f' only where the guard needs it, and
read the terms without a list; their outputs and the errors they raise
must equal the reference's bit for bit.
"""
import cmath
import math
import warnings

import numpy as np
import pytest

from specsample import (
    Coupling,
    PoleProximity,
    SampleSet,
    StateVector,
    ZeroOfF,
    new_model,
    perturbed_spectrum,
    reconstruct,
    sample,
    transform,
    weyl,
    weyl_h,
    xi,
)
from specsample.errors import NumericalError
from specsample.herglotz import _clear_of_zero, _guard, _near_zero

from conftest import LAYOUTS, layout_model, random_model, random_state

H = 1.3


def _fsum(terms) -> complex:
    return complex(math.fsum(terms.real.tolist()),
                   math.fsum(terms.imag.tolist()))


def _guarded(poles, z):
    """r, d and whether z is within r of a pole."""
    r = 1e-8 * max(1.0, poles[-1] - poles[0])
    d = poles - z
    return r, d, np.abs(d).min() < r


def _reference(m, phi, s, z):
    """Each evaluator's output, or the type of the error it raises."""
    lam, w = m.eigenvalues, m.weights
    out = {}
    r, d, pole = _guarded(lam, z)
    if pole:
        out.update(dict.fromkeys(("weyl", "weyl_h", "transform", "xi"),
                                 PoleProximity))
    else:
        f, fp = _fsum(w / d), _fsum(w / (d * d))
        out["weyl"] = (f, fp)
        if f == 0 or abs(f) < r * abs(fp):
            out.update(dict.fromkeys(("weyl_h", "transform", "xi"), ZeroOfF))
        else:
            out["weyl_h"] = (NumericalError if f * f == 0 else
                             (f / (1.0 + H * f), H + 1.0 / f, -fp / (f * f)))
            out["transform"] = _fsum(m.sqrt_weights * phi.coords / d) / f
            out["xi"] = m.sqrt_weights / ((lam - z.conjugate()) * f.conjugate())
    if s is not None:
        r, d, pole = _guarded(s.nodes, z)
        out["reconstruct"] = PoleProximity
        if not pole:
            f, fp = _fsum(s.node_weights / d), _fsum(s.node_weights / (d * d))
            if not (f == 0 or abs(f) < r * abs(fp)):
                g = 1.0 / f
                out["reconstruct"] = NumericalError if not cmath.isfinite(
                    g) else _fsum(s.node_weights * s.values * (g / d))
    return out


def _evaluate(name, m, phi, s, z):
    try:
        if name == "weyl":
            return weyl(m, z)
        if name == "weyl_h":
            return weyl_h(m, H, z)
        if name == "transform":
            return transform(m, phi, z)
        if name == "xi":
            return xi(m, z).coords
        return reconstruct(s, z)
    except NumericalError as e:
        return type(e)


def _bits(value):
    if isinstance(value, type):
        return value
    return np.asarray(value, dtype=complex).tobytes()


def _check(m, phi, s, points):
    raised = 0
    for z in points:
        z = complex(z)
        with np.errstate(all="ignore"):
            want = _reference(m, phi, s, z)
        for name, value in want.items():
            got = _evaluate(name, m, phi, s, z)
            assert _bits(got) == _bits(value), (name, z)
            raised += isinstance(value, type)
    return raised


def _case(layout, tiny, seed, n=40):
    m = layout_model(n, layout, tiny, seed)
    phi = random_state(np.random.default_rng(seed), n)
    try:
        s = sample(m, phi, H)
    except NumericalError:  # a node mass below the smallest double
        s = None
    return m, phi, s


@pytest.mark.parametrize("tiny", [False, True], ids=["weights", "tiny"])
@pytest.mark.parametrize("layout", LAYOUTS)
def test_off_axis_points_equal_the_reference(layout, tiny):
    m, phi, s = _case(layout, tiny, 3)
    lam, scale = m.eigenvalues, m.scale
    rng = np.random.default_rng(4)
    points = [complex(x, sign * y)
              for y in (1e-12, 1e-9, 1e-6, 1e-3, 1.0, scale)
              for x, sign in zip(rng.uniform(lam[0] - scale, lam[-1] + scale,
                                             8), (1, -1) * 4)]
    _check(m, phi, s, points)
    # Far out, weyl_h's F'/F^2 is out of range (F^2 underflows), and with
    # tiny masses so is reconstruct's 1/F_h: both raise NumericalError.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _check(m, phi, s,
               [1e200, -1e200, 1e200j, 1e300, -1e300j, 1e200 + 1e200j])


@pytest.mark.parametrize("tiny", [False, True], ids=["weights", "tiny"])
@pytest.mark.parametrize("layout", LAYOUTS)
def test_guard_decisions_next_to_zeros_of_f_equal_the_reference(layout,
                                                                 tiny):
    m, phi, s = _case(layout, tiny, 5)
    r = 1e-8 * m.scale
    zeros = perturbed_spectrum(m, Coupling.infinite())
    points = [x + k * r * direction for x in zeros
              for k in (0.0, 0.3, 0.9, 1.1, 3.0, 100.0)
              for direction in (1.0, -1.0, 1j, -1j)]
    # Zeros of F are poles of the reconstruction too, and within r of the
    # eigenvalues on the clustered and tiny-weight layouts.
    assert _check(m, phi, s, points) > 0


def test_random_models_equal_the_reference():
    rng = np.random.default_rng(6)
    for n in (2, 3, 50, 400):
        m, phi = random_model(rng, n), random_state(rng, n)
        s = sample(m, phi, H)
        lam = m.eigenvalues
        zeros = perturbed_spectrum(m, Coupling.infinite())
        points = [complex(x, y) for x, y in zip(
            rng.uniform(lam[0] - 5, lam[-1] + 5, 30),
            10.0 ** rng.uniform(-12, 1, 30) * rng.choice([-1, 1], 30))]
        points += [x + k * 1e-8 * m.scale for x in zeros[:8]
                   for k in (0.0, 0.9, 1.1)]
        _check(m, phi, s, points)


def test_a_point_the_certificate_cannot_clear_is_still_evaluated():
    # |F| is about 6e-308 at z = 1e8, below the certificate's slack, and
    # r |F'| is far below |F|: F' is summed, and the exact rule lets z pass.
    m = new_model([0.0, 1.0, 2.0], [2e-300, 2e-300, 2e-300])
    phi = StateVector([1.0, 2.0 - 1.0j, 3.0])
    z = complex(1e8, 0.0)
    r, d, dist = _guard(m.eigenvalues, z, "eigenvalue")
    f, fp = _fsum(m.weights / d), _fsum(m.weights / (d * d))
    assert not _clear_of_zero(f, m.weights, dist, r)
    assert not _near_zero(f, fp, r)
    # weyl_h's F'/F^2 is out of range: F^2 underflows.
    assert _check(m, phi, None, [z]) == 1


@pytest.mark.parametrize("z", [1e308, -1e308, 1e308j])
def test_f_that_underflows_to_zero_is_a_zero_of_f(z):
    m = new_model([0.0, 1.0, 2.0], [2e-300, 2e-300, 2e-300])
    phi = StateVector([1.0, 2.0 - 1.0j, 3.0])
    s = SampleSet(h=H, nodes=[0.5, 1.5, 2.5], node_weights=[2e-300] * 3,
                  values=[1.0, 1.0j, -1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert weyl(m, z)[0] == 0
        for evaluate in (lambda: transform(m, phi, z), lambda: xi(m, z),
                         lambda: weyl_h(m, H, z)):
            with pytest.raises(ZeroOfF):
                evaluate()
        with pytest.raises(PoleProximity):
            reconstruct(s, z)


@pytest.mark.parametrize("z", [1e200, -1e200, 1e200j, -1e200j, 1e300,
                               -1e300j])
def test_huge_points_evaluate_without_warnings(z):
    # d^2 overflows past |z| of about 1.3e154, where each term of F' is far
    # below the smallest double.
    rng = np.random.default_rng(8)
    m, phi = random_model(rng, 20), random_state(rng, 20)
    s = sample(m, phi, H)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        f, fp = weyl(m, z)
        values = [transform(m, phi, z), reconstruct(s, z), *xi(m, z).coords]
    assert f != 0 and fp == 0
    assert np.all(np.isfinite(values))
