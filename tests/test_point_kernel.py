"""The point kernel's overflow decisions: where it holds numpy's warnings.

A pole set (herglotz.PoleSet) holds once whether a term of its sums can
pass the doubles (heavy, from a bound on its masses and numerators), and a
state holds a bound on its norm; a point past _FAR from a pole is held for
d^2.  On every side of those boundaries the evaluators must give the
reference's bits (test_point_sums) without a warning, and an ordinary
model's point evaluation must enter no np.errstate at all.
"""
import warnings

import numpy as np
import pytest

from specsample import (
    NumericalError,
    SampleSet,
    StateVector,
    evaluate_rep,
    inner_h,
    mu_inner,
    new_model,
    normalize,
    reconstruct,
    sample,
    to_partial_fractions,
    transform,
    weyl,
    weyl_h,
    xi,
    xi_norm_sq,
)
from specsample.herglotz import _FAR, _QUIET

from conftest import random_model, random_state
from test_point_sums import H, _check, _points


@pytest.mark.parametrize("z", [1e-6, 0.5 + 1e-3j])
def test_state_terms_past_the_doubles_raise_without_a_warning(z):
    # sqrt(w_j) phi_j / (lam_j - z) passes the doubles: numpy warned
    # "overflow encountered in divide", and transform returned its inf.
    m = new_model([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
    phi = StateVector([1e308, 1e308, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericalError):
            transform(m, phi, z)


def test_inner_products_past_the_doubles_raise_without_a_warning():
    # sqrt(1e300) 1e308 overflows: numpy warned "overflow encountered in
    # multiply", and mu_inner returned inf+0j.  inner_h did the same where
    # a tiny mass far out gives values near 4e201 (a case hypothesis found).
    m = new_model([0.0, 1.0, 2.0], [1e300, 1.0, 1.0])
    far = new_model([-2.0, 0.0, 1.891703202184998e169],
                    [4.444684991391323e24, 1.0, 1e-8])
    phi = StateVector([1j, 1j, 1j])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericalError, match="overflows"):
            mu_inner(m, StateVector([1e308, 1.0, 1.0]))
        with pytest.raises(NumericalError, match="overflows"):
            inner_h(far, 1e-8, phi, phi)


def _heavy_case(total):
    """Three poles whose weights sum to total exactly, a state and the
    sample set at H where the solver gives one."""
    lam = [0.0, 1.0, 2.0]
    m = new_model(lam, [total / 2, total / 4, total / 4])
    phi = StateVector([1.0, 2.0 - 1.0j, 3.0])
    try:
        s = sample(m, phi, H)
    except NumericalError:
        s = None
    return m, phi, s


@pytest.mark.parametrize("total", [np.nextafter(2.0 ** 994, 0.0), 2.0 ** 994,
                                   np.nextafter(_QUIET, 0.0), _QUIET],
                         ids=["below-2^994", "2^994", "below-quiet", "quiet"])
def test_models_on_both_sides_of_the_weight_bounds_equal_the_reference(total):
    m, phi, s = _heavy_case(total)
    assert m._poles.heavy == (total >= _QUIET)
    # Points just outside r of a pole, where the terms of F' are largest.
    # With weights near 2^993 F' passes the doubles there, and the
    # reference's rule with F' = inf refuses points that the certificate
    # passes (a known defect, ROADMAP.md): those models take points 1e-3
    # from a pole instead.
    step = ([1.1e-8 * m.scale, 3e-8 * m.scale] if total < 2.0 ** 960
            else [1e-3])
    points = _points(m, 6, 1) + [x + k * d for x in (0.0, 1.0) for k in step
                                 for d in (1.0, 1j)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _check(m, phi, s, points, kramer=False)


@pytest.mark.parametrize("size", [np.nextafter(_FAR, 0.0), _FAR, 1.2e154,
                                  1.4e154])
def test_points_on_both_sides_of_the_far_bound_equal_the_reference(size):
    # Past _FAR (6.7e153) in a part of d_j, d_j^2 can overflow, and past
    # 1.3e154 it does: the kernel holds the point there, and nowhere else.
    rng = np.random.default_rng(10)
    m, phi = random_model(rng, 20), random_state(rng, 20)
    s = sample(m, phi, H)
    points = [size, -size, size * 1j, size * (1 + 1j), size + 1j]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _check(m, phi, s, points, kramer=False)


def test_a_sample_set_whose_numerators_are_scaled_equals_the_reference():
    rng = np.random.default_rng(11)
    m, phi = random_model(rng, 30), random_state(rng, 30)
    s = sample(m, phi, H)
    s = SampleSet(h=H, nodes=s.nodes, node_weights=s.node_weights,
                  values=s.values * 1e300)
    assert s._numerators[1] > 0 and s._poles.heavy
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _check(m, phi, s, _points(m, 8, 11), kramer=False)


@pytest.mark.parametrize("n", [50, 400])
def test_an_ordinary_point_evaluation_enters_no_errstate(n, monkeypatch):
    rng = np.random.default_rng(n)
    m, phi = random_model(rng, n), random_state(rng, n)
    s = sample(m, phi, H)
    rep = to_partial_fractions(normalize(m), phi)
    entered = []
    errstate = np.errstate

    def counted(*args, **kwargs):
        entered.append(kwargs)
        return errstate(*args, **kwargs)

    monkeypatch.setattr(np, "errstate", counted)
    for z in (0.3 + 0.5j, 0.3, 2.0 - 1e-3j):
        weyl(m, z)
        weyl_h(m, H, z)
        xi(m, z)
        xi_norm_sq(m, z.real)
        transform(m, phi, z)
        reconstruct(s, z)
        evaluate_rep(rep, z)
    mu_inner(m, phi)
    assert entered == []
    # A point far out enters one.
    weyl(m, 1e200)
    assert len(entered) == 1
