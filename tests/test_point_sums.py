"""Point evaluators against the rule with every sum taken.

The reference sums F' at every point, applies the zero guard
f == 0 or |f| < r |f'| to it, and takes each sum as math.fsum over a list
of the terms.  The evaluators sum f' only where the guard needs it, read
the terms without a list, and from _STACK_TERMS real terms per call on sum
them in one stacked extraction; their outputs and the errors they raise
must equal the reference's bit for bit on both sides of that crossover.
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
    evaluate_rep,
    inner_h,
    kramer_reconstruct,
    mu_inner,
    new_model,
    normalize,
    perturbed_spectrum,
    reconstruct,
    sample,
    to_partial_fractions,
    transform,
    weyl,
    weyl_h,
    xi,
    xi_norm_sq,
)
from specsample import herglotz, sampling
from specsample.errors import NumericalError
from specsample.herglotz import (
    _STACK_TERMS,
    _clear_of_zero,
    _guard,
    _near_zero,
    _regular,
)
from specsample.perturbation import _node_data

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
            if z.imag == 0:
                # F^2 underflows at |x| near 1e300, as for weyl_h.
                out["xi_norm_sq"] = (NumericalError if f * f == 0
                                     else (fp / (f * f)).real)
        if z.imag == 0 and "xi_norm_sq" not in out:
            out["xi_norm_sq"] = out["weyl_h"]
    if s is not None:
        r, d, pole = _guarded(s.nodes, z)
        out["reconstruct"] = PoleProximity
        if not pole:
            f, fp = _fsum(s.node_weights / d), _fsum(s.node_weights / (d * d))
            if not (f == 0 or abs(f) < r * abs(fp)):
                # The barycentric quotient N_h/F_h, N_h = sum m_j v_j/d_j.
                value = _fsum(s.node_weights * s.values / d) / f
                out["reconstruct"] = (
                    value if cmath.isfinite(1.0 / f)
                    and cmath.isfinite(value) else NumericalError)
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
        if name == "xi_norm_sq":
            return xi_norm_sq(m, z.real)
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
    phi = random_state(np.random.default_rng(seed), m.dim)
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
    # weyl_h's F'/F^2 is out of range: F^2 underflows, and xi_norm_sq,
    # which divides by it, raises NumericalError as weyl_h does.
    assert _check(m, phi, None, [z]) == 2


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


@pytest.mark.parametrize("z", [0.5 + 1e-7, 0.5 + 1e-7j])
def test_a_quotient_past_the_doubles_is_a_numerical_failure(z):
    # 1e-7 from the zero of F_h at 0.5, outside the guard, N_h/F_h is about
    # 5e309; every term of N_h and 1/F_h are finite.
    s = SampleSet(h=H, nodes=[0.0, 1.0], node_weights=[1.0, 1.0],
                  values=[1e303, -1e303])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericalError, match="N_h/F_h overflows"):
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


# Model sizes on both sides of the crossover: F with F' or with the
# numerator (reconstruct's F_h with N_h too) stacks 4N real terms per call,
# and at a real point F with F' 2N.
SIZES = sorted({_STACK_TERMS // 4 - 1, _STACK_TERMS // 4,
                _STACK_TERMS // 2 - 1, _STACK_TERMS // 2, 400})


def _points(m, count, seed):
    """Off-axis and real points over the spectrum, points next to eight
    zeros of F where the certificate cannot clear the zero guard, and |z|
    up to 1e300."""
    lam, scale = m.eigenvalues, m.scale
    rng = np.random.default_rng(seed)
    x = rng.uniform(lam[0] - scale, lam[-1] + scale, count)
    y = 10.0 ** rng.uniform(-12, 0, count) * scale * rng.choice([-1, 1],
                                                                 count)
    r = 1e-8 * scale
    zeros = perturbed_spectrum(m, Coupling.infinite())
    zeros = zeros[::max(1, zeros.size // 8)]
    return ([complex(a, b) for a, b in zip(x, y)] + list(x[:4])
            + [z + k * r * d for z in zeros for k in (0.0, 0.9, 1.1, 3.0)
               for d in (1.0, 1j)]
            + [1e200, -1e300, 1e300j, 1e200 + 1e200j])


@pytest.mark.parametrize("tiny", [False, True], ids=["weights", "tiny"])
@pytest.mark.parametrize("n, layout", [(n, layout) for n in SIZES
                                       for layout in LAYOUTS]
                         + [(1000, "random"), (1000, "clusters")])
def test_evaluators_across_the_crossover_equal_the_reference(n, layout,
                                                             tiny):
    m, phi, s = _case(layout, tiny, n, n)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _check(m, phi, s, _points(m, 6, n))


@pytest.mark.parametrize("n", SIZES + [1000])
def test_single_sums_across_the_crossover_equal_fsum(n):
    rng = np.random.default_rng(n)
    m = random_model(rng, n)
    phi, psi = random_state(rng, n), random_state(rng, n)
    assert _bits(mu_inner(m, phi)) == _bits(_fsum(m.sqrt_weights
                                                  * phi.coords))
    f, g = sample(m, phi, H), sample(m, psi, H)
    assert _bits(inner_h(m, H, phi, psi)) == _bits(
        _fsum(f.node_weights * np.conj(f.values) * g.values))
    rep = to_partial_fractions(normalize(m), phi)
    for z in _points(m, 6, n)[:8]:
        with np.errstate(all="ignore"):
            want = rep.constant + _fsum(rep.coefficients / (z - rep.poles))
        assert _bits(evaluate_rep(rep, z)) == _bits(want)


@pytest.mark.parametrize("n", [_STACK_TERMS // 2 - 1, _STACK_TERMS // 2])
def test_kramer_slab_sums_equal_the_per_point_fsum(n, monkeypatch):
    # One point's expansion holds 2N real terms: below the crossover it is
    # summed by fsum, from it on in one stacked call; a grid is one call
    # per block of a slab, and small bounds make several.
    rng = np.random.default_rng(n)
    m = random_model(rng, n)
    s = sample(m, random_state(rng, n), H)
    grid = np.array(_points(m, 10, n)[:10])
    want = []
    for z in grid:
        coords = np.conj(xi(m, z).coords)[None]
        masses, (values,) = _node_data(m, 1.0, H, s.nodes, coords)
        want.append(_fsum(masses * values * s.values))
    want = np.array(want).tobytes()
    assert kramer_reconstruct(m, s, grid).tobytes() == want
    assert np.array([kramer_reconstruct(m, s, z)
                     for z in grid]).tobytes() == want
    monkeypatch.setattr(sampling, "_KRAMER_TERMS", 3 * n)
    assert kramer_reconstruct(m, s, grid).tobytes() == want
    # Blocks of two points within a slab of five: the last one alone is
    # below the crossover.
    monkeypatch.setattr(sampling, "_KRAMER_TERMS", 5 * n)
    monkeypatch.setattr(sampling, "_BLOCK_TERMS", 4 * n)
    assert kramer_reconstruct(m, s, grid).tobytes() == want


def test_the_crossover_picks_the_path_by_the_terms_per_call(monkeypatch):
    # transform stacks F with its numerator, 4N real terms, and reconstruct
    # F_h with N_h, also 4N.
    calls = []
    row_sums = herglotz._row_sums
    monkeypatch.setattr(herglotz, "_row_sums",
                        lambda t: calls.append(t.shape) or row_sums(t))
    for n, stacked in [(_STACK_TERMS // 4 - 1, []),
                       (_STACK_TERMS // 4, [(4, _STACK_TERMS // 4)])]:
        m = random_model(np.random.default_rng(n), n)
        phi = random_state(np.random.default_rng(n), n)
        calls.clear()
        transform(m, phi, 0.3 + 1.0j)
        assert calls == stacked
    for n, stacked in [(_STACK_TERMS // 4 - 1, []),
                       (_STACK_TERMS // 4, [(4, _STACK_TERMS // 4)])]:
        m = random_model(np.random.default_rng(n), n)
        s = sample(m, random_state(np.random.default_rng(n), n), H)
        calls.clear()
        reconstruct(s, 0.3 + 1.0j)
        assert calls == stacked
    # At a real point the imaginary parts of the terms of F and F' are
    # zeros, left out of the call and of the count: xi_norm_sq stacks 2N
    # real terms, transform 3N.
    for n, stacked in [(_STACK_TERMS // 2 - 1, []),
                       (_STACK_TERMS // 2, [(2, _STACK_TERMS // 2)])]:
        m = random_model(np.random.default_rng(n), n)
        calls.clear()
        xi_norm_sq(m, 0.3)
        assert calls == stacked
    for n, stacked in [(_STACK_TERMS // 3, []),
                       (_STACK_TERMS // 3 + 1, [(3, _STACK_TERMS // 3 + 1)])]:
        m = random_model(np.random.default_rng(n), n)
        phi = random_state(np.random.default_rng(n), n)
        calls.clear()
        transform(m, phi, 0.3)
        assert calls == stacked


def test_terms_a_declined_stacked_call_formed_are_summed_as_they_are(
        monkeypatch):
    # At a real point F with F' holds 4N terms but only 2N live real ones:
    # for N = 200, _stacked declines, and the terms of F' it was given are
    # summed, not formed again.
    n = _STACK_TERMS // 4
    m = random_model(np.random.default_rng(n), n)
    calls = []
    slopes = herglotz._slopes
    monkeypatch.setattr(herglotz, "_slopes",
                        lambda c, d: calls.append(c.size) or slopes(c, d))
    d = m.eigenvalues - complex(0.3)
    f, fp = _fsum(m.weights / d), _fsum(m.weights / (d * d))
    assert xi_norm_sq(m, 0.3) == (fp / (f * f)).real
    assert calls == [n]


@pytest.mark.parametrize("n", [_STACK_TERMS // 6, _STACK_TERMS // 6 + 1])
def test_f_its_derivative_and_a_numerator_are_summed_together(n):
    # F, F' and N hold 6N real terms: fsum below the crossover, one
    # stacked call from it on, and each sum in its own place either way.
    rng = np.random.default_rng(n)
    m = random_model(rng, n)
    num = m.sqrt_weights * random_state(rng, n).coords
    z = 0.3 + 0.5j
    d = m.eigenvalues - z
    want = (z, _fsum(m.weights / d), _fsum(m.weights / (d * d)),
            _fsum(num / d))
    assert _bits(_regular(m.eigenvalues, m.weights, z, derivative=True,
                          num=num)) == _bits(want)


@pytest.mark.parametrize("n", [3, _STACK_TERMS])
def test_a_point_sum_past_the_doubles_raises_on_both_sides(n):
    # Weights of 5e307 on the first two poles: midway between them their
    # terms are infinite, of opposite signs, and have no sum
    # (NumericalError); at -0.3 they are finite and sum past the largest
    # double, which math.fsum reports (OverflowError).
    lam = np.linspace(0.0, 1.0, n)
    m = new_model(lam, np.concatenate(([5e307, 5e307], np.ones(n - 2))))
    mid = 0.5 * (lam[0] + lam[1])
    with np.errstate(all="ignore"):
        with pytest.raises(NumericalError, match="both infinite signs"):
            weyl(m, mid)
        with pytest.raises(NumericalError, match="both infinite signs"):
            transform(m, StateVector(np.ones(n)), mid)
        with pytest.raises(OverflowError):
            weyl(m, -0.3)
