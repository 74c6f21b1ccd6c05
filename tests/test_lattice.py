"""The Whittaker-Shannon-Kotel'nikov lattice against its closed forms.

The model with eigenvalues -M..M and unit weights has
F(z) = sum_k 1/(k - z) = psi(M + 1 - z) - psi(-M - z), psi the digamma
function, and F'(z) = -psi'(M + 1 - z) + psi'(-M - z).  As M grows, F tends
to -pi cot(pi z), whose coupled spectrum at h is theta_h + k,
theta_h = arctan(pi h)/pi, with every mass 1/(1 + pi^2 h^2): the sampling
theorem's lattice.  There the image function f of a state phi has
f cos(pi z) -> g(z) = sum_j (-1)^j phi_j sinc(z - j), which the
Whittaker-Shannon-Kotel'nikov series on the nodes reconstructs.
"""
import math

import numpy as np
import pytest

from specsample import (
    Coupling,
    StateVector,
    new_model,
    node_weights,
    perturbed_spectrum,
    sample,
    transform,
    weyl,
)

mp = pytest.importorskip("mpmath")

H = 0.7


def _lattice(size):
    return new_model(np.arange(-size, size + 1), np.ones(2 * size + 1))


def _digamma_f(size, z):
    """F and F' of the lattice at z, from the digamma form at 40 digits."""
    with mp.workdps(40):
        z = mp.mpc(z)
        return (mp.digamma(size + 1 - z) - mp.digamma(-size - z),
                -mp.psi(1, size + 1 - z) + mp.psi(1, -size - z))


@pytest.mark.parametrize("size", [10, 100, 1000])
def test_lattice_borel_transform_is_the_digamma_difference(size):
    m = _lattice(size)
    for z in (0.3 + 0.7j, -12.25 + 0.01j, 0.9 * size + 0.5 + 3j, 0.5 + 1e-3j):
        f, fp = weyl(m, z)
        want_f, want_fp = (complex(v) for v in _digamma_f(size, z))
        assert abs(f - want_f) <= 1e-15 * abs(want_f), z
        assert abs(fp - want_fp) <= 1e-15 * abs(want_fp), z


@pytest.mark.parametrize("size", [10, 100, 1000])
def test_lattice_roots_are_the_digamma_roots(size):
    # The root of 1 + h F in gap g lies between the eigenvalues -M + g and
    # -M + g + 1, where F rises from -inf to +inf.
    nodes = perturbed_spectrum(_lattice(size), Coupling.finite(H))
    for gap in (0, size // 2, size, 2 * size - 1):
        lo = -size + gap
        with mp.workdps(40):
            root = mp.findroot(lambda x: 1 + H * _digamma_f(size, x)[0].real,
                               (mp.mpf(lo) + mp.mpf("1e-30"),
                                mp.mpf(lo + 1) - mp.mpf("1e-30")),
                               solver="anderson")
        assert abs(nodes[gap] - float(root)) <= 1e-15 * abs(float(root)), gap


@pytest.mark.parametrize("size", [100, 1000])
def test_lattice_nodes_and_masses_tend_to_the_sampling_lattice(size):
    m = _lattice(size)
    nodes = perturbed_spectrum(m, Coupling.finite(H))
    masses = node_weights(m, H, nodes)
    theta = math.atan(math.pi * H) / math.pi
    inner = np.abs(nodes) < 10
    x = nodes[inner]
    assert x.size == 20
    assert np.abs(x - (theta + np.round(x - theta))).max() <= 2.0 / size
    assert (np.abs(masses[inner] - 1.0 / (1.0 + (math.pi * H) ** 2)).max()
            <= 1.0 / size)


WSK_POINTS = (0.3 + 0.2j, -2.7 + 0.5j, 5.1 - 0.3j)


def _wsk_state(size):
    j = np.arange(-size, size + 1)
    return j, StateVector(np.exp(-j ** 2 / 50.0))


def _cardinal(j, phi, z):
    """g(z) = sum_j (-1)^j phi_j sinc(z - j)."""
    return np.sum((-1.0) ** j * phi.coords.real * np.sinc(z - j))


@pytest.mark.parametrize("size", [50, 200, 1000, 4000])
def test_lattice_image_function_is_the_cardinal_series_over_sin(size):
    # With unit weights N(z) = sum_j phi_j / (j - z) and
    # sinc(z - j) = (-1)^j sin(pi z) / (pi (z - j)), so
    # f F sin(pi z) / pi = N sin(pi z) / pi = -g exactly at every M.
    m = _lattice(size)
    j, phi = _wsk_state(size)
    for z in WSK_POINTS:
        got = transform(m, phi, z) * weyl(m, z)[0] * np.sin(np.pi * z) / np.pi
        want = -_cardinal(j, phi, z)
        assert abs(got - want) <= 1e-14 * abs(want), z


@pytest.mark.parametrize("size", [50, 200, 1000])
def test_lattice_samples_give_the_wsk_series(size):
    # g is band-limited to pi, so the series sum_k g(x_k) sinc(z - x_k) on
    # the shifted lattice x_k = theta_h + k gives it, and the samples give
    # g(x_k) = f(x_k) cos(pi x_k) as M grows: within 17.2/M here.
    m = _lattice(size)
    j, phi = _wsk_state(size)
    s = sample(m, phi, H)
    x = s.nodes
    for z in WSK_POINTS:
        series = np.sum(s.values * np.cos(np.pi * x) * np.sinc(z - x))
        assert abs(series - _cardinal(j, phi, z)) <= 20.0 / size, z
