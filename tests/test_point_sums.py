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
from specsample.errors import NumericalError, ValidationError
from specsample.herglotz import _STACK_TERMS, _clear_of_zero, _near_zero
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


def _reference(m, phi, s, z, kramer=True):
    """Each evaluator's output, or the type of the error it raises; Kramer
    where the samples are the model's."""
    lam, w = m.eigenvalues, m.weights
    out = {}
    r, d, pole = _guarded(lam, z)
    if pole:
        out.update(dict.fromkeys(("weyl", "weyl_h", "transform", "xi"),
                                 PoleProximity))
    else:
        f, fp = _fsum(w / d), _fsum(w / (d * d))
        out["weyl"] = (f, fp)
        if not cmath.isfinite(f):
            # A term of F past the doubles: its quotients would be 0 or NaN.
            out.update(dict.fromkeys(("weyl_h", "transform", "xi"),
                                     NumericalError))
        elif f == 0 or abs(f) < r * abs(fp):
            out.update(dict.fromkeys(("weyl_h", "transform", "xi"), ZeroOfF))
        else:
            out["weyl_h"] = (NumericalError if f * f == 0 else
                             (f / (1.0 + H * f), H + 1.0 / f, -fp / (f * f)))
            out["transform"] = _fsum(m.sqrt_weights * phi.coords / d) / f
            out["xi"] = m.sqrt_weights / ((lam - z.conjugate()) * f.conjugate())
            if z.imag == 0:
                # F^2 underflows at |x| near 1e300, as for weyl_h; taken
                # as -G_0', whose zero (F' = 0 far out) is -0.0.
                out["xi_norm_sq"] = (NumericalError if f * f == 0
                                     else -(-fp / (f * f)).real)
        if z.imag == 0 and "xi_norm_sq" not in out:
            out["xi_norm_sq"] = out["weyl_h"]
    if s is not None:
        r, d, pole = _guarded(s.nodes, z)
        out["reconstruct"] = out["kramer"] = PoleProximity
        if not pole:
            f, fp = _fsum(s.node_weights / d), _fsum(s.node_weights / (d * d))
            if not cmath.isfinite(f):
                out["reconstruct"] = out["kramer"] = NumericalError
            elif not (f == 0 or abs(f) < r * abs(fp)):
                # The barycentric quotient N_h/F_h, N_h = sum m_j v_j/d_j.
                value = _fsum(s.node_weights * s.values / d) / f
                out["reconstruct"] = (
                    value if cmath.isfinite(1.0 / f)
                    and cmath.isfinite(value) else NumericalError)
                out["kramer"] = None
        # Kramer takes the eigenvalues' guards first.
        if not kramer:
            del out["kramer"]
        elif isinstance(out["transform"], type):
            out["kramer"] = out["transform"]
        elif out["kramer"] is None:
            out["kramer"] = _kramer_sum(m, s, out["weyl"][0], d)
    return out


def _kramer_sum(m, s, f, d):
    """sum_j m_j v_j (h_j + 1/F(z)) / d_j, h_j = 0 on an eigenvalue and H
    elsewhere, or NumericalError where it is past the doubles."""
    h = np.where(np.isin(s.nodes, m.eigenvalues), 0.0, H)
    try:
        value = _fsum(s.node_weights * s.values * (h + 1.0 / f) / d)
    except (ValueError, OverflowError):  # terms of both infinite signs
        return NumericalError
    return value if cmath.isfinite(value) else NumericalError


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
        if name == "kramer":
            return kramer_reconstruct(m, s, z)
        return reconstruct(s, z)
    except NumericalError as e:
        return type(e)


def _bits(value):
    if isinstance(value, type):
        return value
    return np.asarray(value, dtype=complex).tobytes()


def _check(m, phi, s, points, kramer=True):
    raised = 0
    for z in points:
        z = complex(z)
        with np.errstate(all="ignore"):
            want = _reference(m, phi, s, z, kramer)
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
    r, (d, dist, _) = m._poles.r, m._poles.guard(z)
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
    # 5e309; every term of N_h and 1/F_h are finite, and masses of 1e-300
    # keep the numerators far below the door.
    s = SampleSet(h=H, nodes=[0.0, 1.0], node_weights=[1e-300, 1e-300],
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
# F alone 2N.
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


@pytest.mark.parametrize("n", [_STACK_TERMS // 4 - 1, _STACK_TERMS // 4,
                               _STACK_TERMS // 2 - 1, _STACK_TERMS // 2])
def test_kramer_sums_equal_the_per_point_fsum(n):
    # A point sums F over the eigenvalues, 2N real terms, then F_h and
    # the numerator over the nodes, 4N, at a real point too: each
    # call is summed by fsum below the crossover and stacked from it on,
    # and a grid is the point calls.
    rng = np.random.default_rng(n)
    m = random_model(rng, n)
    s = sample(m, random_state(rng, n), H)
    num = _node_data(m, 1.0, H, s.nodes)[0] * s.values
    grid = np.array(_points(m, 11, n)[:15])
    want = np.array([
        _fsum(num * (H + 1.0 / _fsum(m.weights / (m.eigenvalues - z)))
              / (s.nodes - z)) for z in grid]).tobytes()
    assert kramer_reconstruct(m, s, grid).tobytes() == want
    assert np.array([kramer_reconstruct(m, s, z)
                     for z in grid]).tobytes() == want


def test_the_crossover_picks_the_path_by_the_terms_per_call(monkeypatch):
    # transform stacks F with its numerator, 4N real terms, reconstruct F_h
    # with N_h and xi_norm_sq F with F', also 4N.  A real point is counted
    # as any other: the imaginary parts of the terms of F, F' and F_h,
    # zeros there, are stacked too.
    calls = []
    row_sums = herglotz._row_sums
    monkeypatch.setattr(herglotz, "_row_sums",
                        lambda t: calls.append(t.shape) or row_sums(t))
    for n, stacked in [(_STACK_TERMS // 4 - 1, []),
                       (_STACK_TERMS // 4, [(4, _STACK_TERMS // 4)])]:
        m = random_model(np.random.default_rng(n), n)
        phi = random_state(np.random.default_rng(n), n)
        s = sample(m, phi, H)
        for evaluate in (lambda: transform(m, phi, 0.3 + 1.0j),
                         lambda: reconstruct(s, 0.3 + 1.0j),
                         lambda: xi_norm_sq(m, 0.3),
                         lambda: transform(m, phi, 0.3)):
            calls.clear()
            evaluate()
            assert calls == stacked


def test_terms_a_declined_stacked_call_formed_are_summed_as_they_are(
        monkeypatch):
    # At a real point F with F' holds 4N real terms, as off the axis: at
    # N = 160 they are stacked, and the terms of F' that the call sums are
    # formed once.
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
    assert _bits(m._poles.at(z, derivative=True, num=num)) == _bits(want)


@pytest.mark.parametrize("n", [3, _STACK_TERMS])
def test_a_point_sum_past_the_doubles_raises_on_both_sides(n):
    # Coordinates of 5e307 on the first two poles: midway between them the
    # numerator's terms are infinite, of opposite signs, and have no sum
    # (NumericalError); at -0.3 they are finite and sum past the largest
    # double, which math.fsum reports (NumericalError too, not its
    # OverflowError).  The state's door refuses such coordinates, so the
    # kernel takes them as a numerator, which its caller holds.
    lam = np.linspace(0.0, 1.0, n)
    m = new_model(lam, np.ones(n))
    coords = np.concatenate(([5e307, 5e307], np.ones(n - 2)))
    num = m.sqrt_weights * coords
    mid = 0.5 * (lam[0] + lam[1])
    with pytest.raises(ValidationError, match="at or past 2.464"):
        StateVector(coords)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="both infinite signs"):
                m._poles.at(mid, num=num)
            with pytest.raises(NumericalError,
                               match="^a sum is past the largest double$"):
                m._poles.at(-0.3, num=num)


def test_reconstruct_at_a_real_point_stacks_as_off_the_axis(monkeypatch):
    # At a real z, F_h's terms have imaginary parts of zeros, which are
    # stacked too: F_h with N_h holds 4N real terms, 800 at N = 200, in one
    # stacked call that gives fsum's bits.
    n = _STACK_TERMS // 4
    rng = np.random.default_rng(n)
    m = random_model(rng, n)
    s = sample(m, random_state(rng, n), H)
    calls = []
    row_sums = herglotz._row_sums
    monkeypatch.setattr(herglotz, "_row_sums",
                        lambda t: calls.append(t.shape) or row_sums(t))
    d = s.nodes - complex(0.3)
    want = _fsum(s.node_weights * s.values / d) / _fsum(s.node_weights / d)
    assert _bits(reconstruct(s, 0.3)) == _bits(want)
    assert calls == [(4, n)]
    calls.clear()
    reconstruct(s, 0.3 + 1e-3j)
    assert calls == [(4, n)]


@pytest.mark.parametrize("n", [_STACK_TERMS // 4 - 1, _STACK_TERMS // 4,
                               _STACK_TERMS // 2 - 1, _STACK_TERMS // 2,
                               _STACK_TERMS // 2 + 1, _STACK_TERMS - 1,
                               _STACK_TERMS])
def test_every_point_sum_stacks_from_its_count_of_real_terms(n, monkeypatch):
    # weyl holds 4N real terms and xi 2N, at a real point too: the
    # imaginary parts of F's and F''s terms there are zeros, counted and
    # stacked as any others.  The single sums of mu_inner, inner_h and
    # evaluate_rep hold 2N whatever their imaginary parts.
    rng = np.random.default_rng(n)
    m = random_model(rng, n)
    phi = random_state(rng, n)
    real = StateVector(phi.coords.real)
    rep = to_partial_fractions(normalize(m), phi)
    real_rep = type(rep)(constant=0.0, poles=rep.poles,
                         coefficients=rep.coefficients.real)
    # inner_h's solve and node rule make calls of their own: taken first.
    taken = sampling._sample(m, H, phi, real)
    monkeypatch.setattr(sampling, "_sample", lambda *args: taken)
    calls = []
    row_sums = herglotz._row_sums
    monkeypatch.setattr(herglotz, "_row_sums",
                        lambda t: calls.append(t.shape) or row_sums(t))
    cases = [(lambda: weyl(m, 0.3 + 1j), 4, n), (lambda: weyl(m, 0.3), 4, n),
             (lambda: xi(m, 0.3 + 1j), 2, n), (lambda: xi(m, 0.3), 2, n)]
    cases += [(evaluate, 2, n) for evaluate in (
        lambda: mu_inner(m, phi), lambda: mu_inner(m, real),
        lambda: inner_h(m, H, phi, real), lambda: inner_h(m, H, real, real))]
    # The partial-fraction form has N - 1 poles.
    cases += [(lambda: evaluate_rep(rep, 0.3 + 1j), 2, n - 1),
              (lambda: evaluate_rep(real_rep, 0.3), 2, n - 1)]
    for evaluate, rows, size in cases:
        calls.clear()
        evaluate()
        assert calls == ([(rows, size)] if rows * size >= _STACK_TERMS
                         else [])


def test_a_stacked_call_that_gives_a_nan_leaves_the_sums_to_the_caller():
    # N = 200: the kernel stacks F with a numerator, 4N real terms, as
    # transform does.  Next to a zero of F, coordinates 1e308 at the two
    # poles beside it (past the state's door, so taken as a numerator) give
    # the numerator terms of both infinite signs, and the stacked call a
    # NaN.  Each sum is then one fsum, in order, before the zero guard: F
    # has its sum, and the numerator's, which has none, raises.
    n = _STACK_TERMS // 4
    m = random_model(np.random.default_rng(n), n)
    x = perturbed_spectrum(m, Coupling.infinite())[n // 2]
    k = int(np.searchsorted(m.eigenvalues, x))
    coords = np.ones(n, dtype=complex)
    coords[k - 1:k + 1] = 1e308
    z = x + 1e-12j
    with np.errstate(over="ignore", invalid="ignore"):
        num = m.sqrt_weights * coords
        terms = num / (m.eigenvalues - z)
        assert np.isneginf(terms.real).any() and np.isposinf(terms.real).any()
        with pytest.raises(NumericalError, match="both infinite signs"):
            m._poles.at(z, num=num)


def test_terms_past_the_doubles_are_refused_at_the_door():
    # A weight or mass of 1e308 put F's and F_h's terms past the doubles at
    # 0.3, where their quotients read 0 or NaN, and values of 1e308 the
    # numerators of N_h: the door refuses each.
    with pytest.raises(ValidationError, match="normalize"):
        new_model([0.0, 1.0], [1e308, 1.0])
    for masses, values in (([1e308, 1.0], [1e-10, 1e10]),
                           ([1.0, 1.0], [1e308, 1.0])):
        with pytest.raises(ValidationError, match="normalize"):
            SampleSet(h=H, nodes=[0.0, 1.0], node_weights=masses,
                      values=values)


def _outcomes(s, points):
    """The per-point reconstruct of each point: its value, or the type and
    message of the error it raises."""
    out = []
    for z in points:
        try:
            out.append(reconstruct(s, z))
        except (NumericalError, ValidationError) as e:
            out.append((type(e), str(e)))
    return out


def _check_grid(s, points):
    """The grid form equals the per-point calls: the array of the points
    that evaluate, byte for byte, and at each failing point, a grid that
    reaches it raises what the point raises."""
    outcomes = _outcomes(s, points)
    good = [z for z, o in zip(points, outcomes) if not isinstance(o, tuple)]
    want = np.array([o for o in outcomes if not isinstance(o, tuple)],
                    dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert reconstruct(s, np.array(good)).tobytes() == want.tobytes()
        for i, o in enumerate(outcomes):
            if isinstance(o, tuple):
                with pytest.raises(o[0]) as e:
                    reconstruct(s, good[:3] + [points[i]] + good[3:])
                assert str(e.value) == o[1]
    return len(points) - len(good)


@pytest.mark.parametrize("tiny", [False, True], ids=["weights", "tiny"])
@pytest.mark.parametrize("n, layout", [(n, layout)
                                       for n in (2, 50, 100, 199, 200, 400)
                                       for layout in LAYOUTS])
def test_a_grid_equals_the_point_calls(n, layout, tiny):
    m, phi, s = _case(layout, tiny, n, n)
    if s is None:
        pytest.skip("a node mass below the smallest double")
    # Off-axis, real and huge points, and points next to the nodes and to
    # zeros of F_h (poles of the reconstruction).
    points = _points(m, 12, n)
    r = 1e-8 * max(1.0, s.nodes[-1] - s.nodes[0])
    points += [x + k * r * d for x in s.nodes[:: max(1, s.size // 4)]
               for k in (0.0, 0.9, 1.1) for d in (1.0, 1j)]
    _check_grid(s, points)


def test_a_grid_raises_what_its_first_failing_point_raises():
    s = SampleSet(h=H, nodes=[0.0, 1.0], node_weights=[1.0, 1.0],
                  values=[1.0, 2.0j])
    # A node, the zero of F_h at 0.5, and a non-finite point.
    assert _check_grid(s, [0.3 + 1j, 1.0, 0.5, 0.5 + 1e-9j, math.nan,
                           complex(0.2, math.inf), 2.0 + 0.5j]) == 5
    # G_h = 1/F_h overflows at |z| = 1e300 with tiny masses.
    m = layout_model(40, "random", True, 3)
    tiny = sample(m, random_state(np.random.default_rng(3), 40), H)
    assert _check_grid(tiny, [0.3 + 1j, 1e300, -1e300j, 2.0]) == 2
    # A non-finite point after a failing finite one: the finite one's error.
    with pytest.raises(PoleProximity):
        reconstruct(s, [2.0, 1.0, math.nan])
    with pytest.raises(ValidationError):
        reconstruct(s, [2.0, math.nan, 1.0])


def test_grid_blocks_keep_the_bits_and_the_shape(monkeypatch):
    rng = np.random.default_rng(9)
    m = random_model(rng, 50)
    s = sample(m, random_state(rng, 50), H)
    grid = np.array(_points(m, 20, 9)[:24]).reshape(4, 6)
    want = np.array([[reconstruct(s, z) for z in row] for row in grid])
    assert reconstruct(s, grid).tobytes() == want.tobytes()
    for terms in (1, 4 * 50, 4 * 50 * 5):
        monkeypatch.setattr(herglotz, "_BLOCK_TERMS", terms)
        assert reconstruct(s, grid).tobytes() == want.tobytes()
    empty = reconstruct(s, [])
    assert empty.shape == (0,) and empty.dtype == complex
    assert isinstance(reconstruct(s, np.complex128(0.3 + 1j)), complex)


def test_a_grid_row_passes_by_the_first_certificate_alone():
    # A grid clears a row by r S / m^2 alone, S the pole set's own fsum of
    # the masses and m the row's least |d|; a row only the summed bound
    # clears goes to PoleSet.at, which gives it the bits of the point call.
    # At h = 1.3 the exterior node of a model of total 70 carries most of
    # the mass, so S is far below n max m, and some rows go to at.
    rng = np.random.default_rng(3)
    m = random_model(rng, 100, normalized=False)
    s = sample(m, random_state(rng, 100), H)
    poles = s._poles
    assert poles.total == math.fsum(s.node_weights.tolist())
    x = s.nodes
    grid = (rng.uniform(x[0] - 5.0, x[-1] + 5.0, 1000)
            + 1j * 10.0 ** rng.uniform(-3.0, 1.0, 1000)
            * rng.choice([-1.0, 1.0], 1000))
    handed = 0
    for z, f, _, ok in poles.rows(grid, s._numerators):
        _, dist, least = poles.guard(z)
        first = poles.r * poles.total / least / least
        assert ok == _clear_of_zero(f, poles.c, dist, poles.r, first)
        handed += not ok and _clear_of_zero(f, poles.c, dist, poles.r)
    assert handed > 0
    assert _check_grid(s, list(grid)) == 0


def test_a_grid_evaluates_a_refused_point_without_calling_itself(
        monkeypatch):
    # Just past r from a node the grid's margin refuses the point, which
    # PoleSet.at evaluates: within the one reconstruct call, at the bits of
    # the point call.
    s = sample(new_model([0.0, 1.0, 2.0], [0.3, 0.3, 0.4]),
               StateVector([1.0, 2.0j, -0.5]), 1.3)
    r = herglotz.EXCLUSION_RADIUS * max(1.0, s.nodes[-1] - s.nodes[0])
    z = s.nodes[1] + 1j * r * (1.0 + 2.0 ** -51)
    (_, _, _, passed), = s._poles.rows(np.array([z]), s._numerators)
    assert not passed
    want = reconstruct(s, z)
    calls = []

    def counted(*args):
        calls.append(args)
        return reconstruct(*args)

    monkeypatch.setattr(sampling, "reconstruct", counted)
    got = sampling.reconstruct(s, [z])
    assert len(calls) == 1
    assert got.tobytes() == np.array([want]).tobytes()
