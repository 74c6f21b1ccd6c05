"""The door and the point kernel's overflow decisions.

A model, a sample set and a partial-fraction form whose masses, numerators
or coefficients may sum to model._QUIET = 2^929 or past it are refused
(ValidationError naming normalize), so no term of their sums can pass the
doubles; a state holds a bound on its norm, decided per call, and a point
past _FAR from a pole is held for d^2.  On every side of those boundaries
the evaluators must give the reference's bits (test_point_sums) without a
warning, and an ordinary model's point evaluation must enter no
np.errstate at all.
"""
import warnings

import numpy as np
import pytest

from specsample import (
    MeromorphicRep,
    NumericalError,
    SampleSet,
    StateVector,
    ValidationError,
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
from specsample.herglotz import _FAR
from specsample.model import _QUIET

from conftest import random_model, random_state
from test_point_sums import H, _check, _check_grid, _fsum, _points

BELOW = np.nextafter(_QUIET, 0.0)


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
    # sqrt(1e279) 1e308 overflows: numpy warned "overflow encountered in
    # multiply", and mu_inner returned inf+0j.  inner_h did the same where
    # a tiny mass far out gives values near 4e201 (a case hypothesis found).
    m = new_model([0.0, 1.0, 2.0], [1e279, 1.0, 1.0])
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
    sample set at H where the solver gives one and the door takes it."""
    lam = [0.0, 1.0, 2.0]
    m = new_model(lam, [total / 2, total / 4, total / 4])
    phi = StateVector([1.0, 2.0 - 1.0j, 3.0])
    try:
        s = sample(m, phi, H)
    except NumericalError:
        s = None
    return m, phi, s


@pytest.mark.parametrize("total", [2.0 ** 928, BELOW],
                         ids=["2^928", "below-quiet"])
def test_models_below_the_door_equal_the_reference(total):
    m, phi, s = _heavy_case(total)
    assert m.mu_norm_sq == total
    # Points just outside r of a pole, where the terms of F' are largest.
    points = _points(m, 6, 1) + [x + k * d for x in (0.0, 1.0)
                                 for k in (1.1e-8, 3e-8) for d in (1.0, 1j)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _check(m, phi, s, points, kramer=False)


def _door_sets(top):
    """A sample set and a partial-fraction form on four poles whose masses,
    numerators and coefficients may sum to top (n max m and 2n max|c|), as
    builders."""
    nodes = [0.0, 1.0, 2.0, 3.0]
    c = top / 8
    # Values whose parts are at most 0.5: 1.5 times that is below 1, so
    # the masses' bound n max m decides.
    return (lambda: SampleSet(h=H, nodes=nodes,
                              node_weights=[top / 4, top / 8, top / 16,
                                            top / 4],
                              values=[0.5, 0.5j, -0.25 + 0.5j, 0.125]),
            lambda: MeromorphicRep(1.0 - 2.0j, nodes,
                                   [c, -c / 2, c / 4 + c / 2 * 1j, -c]))


def test_sample_sets_and_forms_below_the_door_equal_the_reference():
    s, rep = (build() for build in _door_sets(BELOW))
    m = new_model([-1.0, 0.5, 4.0], [0.3, 0.3, 0.4])
    phi = StateVector([1.0, 2.0 - 1.0j, 3.0])
    r = 1e-8 * 3.0
    points = _points(m, 6, 2) + [x + k * r * d for x in rep.poles
                                 for k in (1.1, 3.0) for d in (1.0, 1j)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _check(m, phi, s, points, kramer=False)
        _check_grid(s, points)
        for z in points:
            with np.errstate(all="ignore"):
                want = rep.constant + _fsum(rep.coefficients
                                            / (z - rep.poles))
            assert (np.array(evaluate_rep(rep, z)).tobytes()
                    == np.array(want).tobytes())


@pytest.mark.parametrize("total", [_QUIET, 2.0 ** 994, 1e308],
                         ids=["quiet", "2^994", "1e308"])
def test_data_at_or_past_the_door_are_refused(total):
    with pytest.raises(ValidationError, match="at or past 2.929.*normalize"):
        new_model([0.0, 1.0, 2.0], [total / 2, total / 4, total / 4])
    for build in _door_sets(total):
        with pytest.raises(ValidationError,
                           match="may sum to .* at or past 2.929.*normalize"):
            build()
    # Values of 1e300 past the door on masses of 1.
    with pytest.raises(ValidationError, match="normalize"):
        SampleSet(h=H, nodes=[0.0, 1.0], node_weights=[1.0, 1.0],
                  values=[1e300, 1.0])


def test_results_past_the_door_are_numerical_failures():
    # Values near 1e300 put the set's numerators, and the form's
    # coefficients, past the door; each was computed from accepted inputs.
    m = new_model([0.0, 1.0, 2.0], [1.0] * 3)
    phi = StateVector([1e300, 1.0, 1.0])
    with pytest.raises(NumericalError, match="at or past 2.929"):
        sample(m, phi, 1.3)
    with pytest.raises(NumericalError, match="at or past 2.929"):
        to_partial_fractions(normalize(m), phi)


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
