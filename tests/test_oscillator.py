import math

import numpy as np
import pytest

from specsample import (
    PoleProximity,
    QuadratureNonConvergence,
    StateVector,
    ValidationError,
    hermite_overlap,
    mu_pointwise,
    osc_F_integral,
    osc_F_series,
    osc_F_tail_bound,
    oscillator_model,
    reconstruct,
    sample,
    transform,
    weyl,
)


def test_model_levels_and_weights():
    m = oscillator_model(6)
    np.testing.assert_array_equal(m.eigenvalues, [1, 3, 5, 7, 9, 11])
    np.testing.assert_allclose(
        m.weights, [1.0, 1.0, 0.5, 1 / 6, 1 / 24, 1 / 120], rtol=1e-15
    )
    assert m.mu_norm_sq == pytest.approx(math.e, abs=1e-2)
    assert oscillator_model(6, normalized=True).mu_norm_sq == pytest.approx(
        1.0, abs=1e-14
    )
    with pytest.raises(ValidationError):
        oscillator_model(1)
    # 1/167! is below the weight floor: more levels are refused before
    # they are allocated (10**400 of them exhausted memory).
    assert oscillator_model(167).weights[-1] > 1e-300
    for levels in (168, 10 ** 400):
        with pytest.raises(ValidationError, match="1/167! is below"):
            oscillator_model(levels)


def test_series_at_zero():
    # F(0) = sum 1/(n!(2n+1)) = integral of exp(t^2) over [0, 1]
    assert osc_F_series(0.0, 40) == pytest.approx(1.4626517459, abs=1e-9)


def test_series_spot_value():
    assert osc_F_series(2.0, 40).real == pytest.approx(0.207020, abs=1e-5)


def test_series_matches_model_transform():
    m = oscillator_model(30)
    for z in (0.5j, 2.0 + 1.0j, -3.0, 6.0 + 0.25j):
        f, _ = weyl(m, complex(z))
        assert osc_F_series(z, 30) == pytest.approx(f, rel=1e-13)


def test_series_pole_guard():
    with pytest.raises(PoleProximity):
        osc_F_series(5.0 + 1e-12, 20)


def test_tail_bound_is_valid():
    for z in (0.0, 2.0 + 1.0j, 4.0 + 0.5j):
        lo = osc_F_series(z, 25)
        hi = osc_F_series(z, 60)
        assert abs(hi - lo) <= osc_F_tail_bound(z, 25)


def test_integral_matches_series():
    rng = np.random.default_rng(149)
    for _ in range(25):
        z = complex(rng.uniform(0, 8), rng.uniform(0.5, 2))
        series = osc_F_series(z, 60)
        integral = osc_F_integral(z, 64)
        assert integral == pytest.approx(series, abs=2e-7 * (1 + abs(series)))


def test_integral_real_axis():
    assert osc_F_integral(0.0, 64).real == pytest.approx(1.4626517459,
                                                         abs=1e-8)
    assert abs(osc_F_integral(0.0, 64).imag) < 1e-10


def test_integral_pole_guard():
    with pytest.raises(PoleProximity):
        osc_F_integral(3.0, 64)


def test_integral_refinement_guard():
    with pytest.raises(QuadratureNonConvergence):
        osc_F_integral(0.0, 6)


def test_mu_pointwise_is_shifted_gaussian():
    # ground-state Gaussian recentred at sqrt(2); squared norm is the raw
    # weight sum e
    xs = np.linspace(-6, 8, 2001)
    vals = np.array([mu_pointwise(x) for x in xs])
    norm = np.trapezoid(vals**2, xs)
    assert norm == pytest.approx(math.e, abs=1e-10)
    peak = xs[np.argmax(vals)]
    assert peak == pytest.approx(math.sqrt(2.0), abs=0.01)


def test_hermite_overlap_closed_form():
    for n in range(12):
        assert hermite_overlap(n, 96) == pytest.approx(
            1.0 / math.sqrt(math.factorial(n)), rel=1e-9
        )
    with pytest.raises(ValidationError):
        hermite_overlap(21, 96)


def test_overlaps_reproduce_model_weights():
    m = oscillator_model(8)
    for n in range(8):
        assert hermite_overlap(n, 96) ** 2 == pytest.approx(
            m.weights[n], rel=1e-8
        )


def test_raw_model_sampling_round_trip():
    m = oscillator_model(12)
    rng = np.random.default_rng(151)
    phi = StateVector(rng.normal(size=12) + 1j * rng.normal(size=12))
    s = sample(m, phi, 0.0)
    for _ in range(20):
        z = complex(rng.uniform(-2, 25), rng.uniform(0.4, 3))
        direct = transform(m, phi, z)
        assert abs(reconstruct(s, z) - direct) <= 1e-8 * max(1.0, abs(direct))


def test_series_is_the_model_transform():
    # The series is F of the model with as many levels, bit for bit, and
    # needs two levels like the model.
    for z in (0.5j, 2.0 + 0.25j, 6.5 - 1j):
        assert osc_F_series(z, 30) == weyl(oscillator_model(30), z)[0]
    with pytest.raises(ValidationError):
        osc_F_series(0.5j, 1)


def test_integral_just_outside_its_radius_is_the_series():
    # 3e-7 from level 7 is outside the integral's radius 1e-8: it returns
    # F there, within 1e-9 of the 40-digit sum.
    mp = pytest.importorskip("mpmath")
    z = 7.0 + 3e-7
    with mp.workdps(40):
        zm = mp.mpf(z)
        want = float(mp.fsum(1 / (mp.factorial(n) * (2 * n + 1 - zm))
                             for n in range(80)))
    assert abs(osc_F_integral(z, 1024) - want) <= 1e-9 * abs(want)
