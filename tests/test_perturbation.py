import math

import numpy as np
import pytest

from specsample import (
    Coupling,
    InconsistentNodes,
    NumericalError,
    compression_spectrum,
    new_model,
    node_weights,
    perturbed_model,
    perturbed_spectrum,
    weyl,
)
from specsample.herglotz import _weyl_raw

from conftest import random_model

GOLDEN_LO = (3.0 - math.sqrt(5.0)) / 2.0
GOLDEN_HI = (3.0 + math.sqrt(5.0)) / 2.0


def test_spectrum_m2_h1(m2):
    # secular equation reduces to z^2 - 3z + 1 = 0
    nodes = perturbed_spectrum(m2, Coupling.finite(1.0))
    np.testing.assert_allclose(nodes, [GOLDEN_LO, GOLDEN_HI], atol=1e-12)


def test_spectrum_m2_h0(m2):
    np.testing.assert_array_equal(perturbed_spectrum(m2, Coupling.finite(0.0)),
                                  [0.0, 2.0])


def test_spectrum_m2_infinite(m2):
    np.testing.assert_allclose(perturbed_spectrum(m2, Coupling.infinite()),
                               [1.0], atol=1e-12)


def test_secular_residuals():
    rng = np.random.default_rng(29)
    for _ in range(50):
        m = random_model(rng, int(rng.integers(2, 13)))
        h = rng.uniform(-4, 4)
        if abs(h) < 1e-2:
            h = 1.0
        for x in perturbed_spectrum(m, Coupling.finite(h)):
            f, _ = _weyl_raw(m, x)
            assert abs(1.0 + h * f.real) <= 1e-10


def test_zero_residuals_infinite():
    rng = np.random.default_rng(31)
    for _ in range(50):
        m = random_model(rng, int(rng.integers(2, 13)))
        gaps = np.diff(m.eigenvalues)
        tol = 1e-12 * m.weights.max() / gaps.min()
        for x in perturbed_spectrum(m, Coupling.infinite()):
            f, _ = _weyl_raw(m, x)
            assert abs(f.real) <= tol


def test_exterior_root_location():
    rng = np.random.default_rng(37)
    for _ in range(50):
        m = random_model(rng, int(rng.integers(2, 9)), normalized=False)
        h = rng.uniform(0.2, 4)
        nodes = perturbed_spectrum(m, Coupling.finite(h))
        assert m.eigenvalues[-1] < nodes[-1] <= (
            m.eigenvalues[-1] + h * m.mu_norm_sq + 1e-9
        )
        nodes = perturbed_spectrum(m, Coupling.finite(-h))
        assert (
            m.eigenvalues[0] - h * m.mu_norm_sq - 1e-9
        ) <= nodes[0] < m.eigenvalues[0]


def test_node_weights_m2(m2):
    nodes = perturbed_spectrum(m2, Coupling.finite(1.0))
    w = node_weights(m2, 1.0, nodes)
    np.testing.assert_allclose(w, [0.276393, 0.723607], atol=1e-6)
    assert math.fsum(w) == pytest.approx(1.0, rel=1e-12)


def test_node_weights_h0(m2):
    np.testing.assert_array_equal(node_weights(m2, 0.0, [0.0, 2.0]),
                                  [0.5, 0.5])


def test_node_weights_rejects_foreign_nodes(m2):
    nodes_h2 = perturbed_spectrum(m2, Coupling.finite(2.0))
    with pytest.raises(InconsistentNodes):
        node_weights(m2, 1.0, nodes_h2)


def test_node_weight_sum_matches_total():
    rng = np.random.default_rng(41)
    for _ in range(30):
        m = random_model(rng, int(rng.integers(2, 10)), normalized=False)
        h = rng.uniform(-3, 3)
        if abs(h) < 1e-2:
            h = -1.0
        nodes = perturbed_spectrum(m, Coupling.finite(h))
        w = node_weights(m, h, nodes)
        assert math.fsum(w) == pytest.approx(m.mu_norm_sq, rel=1e-9)


def test_perturbed_model_identity(m2):
    back = perturbed_model(m2, 0.0)
    np.testing.assert_array_equal(back.eigenvalues, m2.eigenvalues)
    np.testing.assert_array_equal(back.weights, m2.weights)


def test_perturbed_model_m2(m2):
    pm = perturbed_model(m2, 1.0)
    np.testing.assert_allclose(pm.eigenvalues, [GOLDEN_LO, GOLDEN_HI],
                               atol=1e-10)
    np.testing.assert_allclose(pm.weights, [0.276393, 0.723607], atol=1e-6)


def test_perturbed_model_round_trip(m2):
    back = perturbed_model(perturbed_model(m2, 1.0), -1.0)
    np.testing.assert_allclose(back.eigenvalues, m2.eigenvalues, atol=1e-9)
    np.testing.assert_allclose(back.weights, m2.weights, atol=1e-9)


def test_aronzajn_krein_consistency():
    # F of the regenerated model equals the coupled transform of the original.
    rng = np.random.default_rng(43)
    for _ in range(10):
        m = random_model(rng, int(rng.integers(2, 9)))
        h = rng.uniform(-2, 2)
        pm = perturbed_model(m, h)
        for _ in range(10):
            z = complex(rng.uniform(-5, 15), rng.uniform(0.3, 3))
            f, _ = weyl(m, z)
            fpm, _ = weyl(pm, z)
            assert fpm == pytest.approx(f / (1 + h * f), rel=1e-10)


def test_compression_m2(m2):
    np.testing.assert_allclose(compression_spectrum(m2), [1.0], atol=1e-12)


def test_compression_matches_zeros_of_f():
    rng = np.random.default_rng(47)
    for _ in range(50):
        m = random_model(rng, int(rng.integers(2, 13)))
        comp = compression_spectrum(m)
        zeros = perturbed_spectrum(m, Coupling.infinite())
        np.testing.assert_allclose(comp, zeros, atol=1e-9 * m.scale)


def test_compression_three_level_brute_force():
    m = new_model([1, 3, 5], [0.4, 0.4, 0.2])
    comp = compression_spectrum(m)
    assert comp.size == 2
    assert 1 < comp[0] < 3 < comp[1] < 5
    # dense eigensolve of the projected operator as an independent oracle
    u = m.sqrt_weights / math.sqrt(m.mu_norm_sq)
    basis = np.linalg.svd(np.eye(3) - np.outer(u, u))[0][:, :2]
    dense = np.linalg.eigvalsh(basis.T @ np.diag(m.eigenvalues) @ basis)
    np.testing.assert_allclose(comp, np.sort(dense), atol=1e-9)


def test_infinite_eigenvector_witness():
    rng = np.random.default_rng(53)
    for _ in range(20):
        m = random_model(rng, int(rng.integers(2, 9)))
        u = m.sqrt_weights / math.sqrt(m.mu_norm_sq)
        proj = np.eye(m.dim) - np.outer(u, u)
        compressed = proj @ np.diag(m.eigenvalues) @ proj
        for x in compression_spectrum(m):
            omega = m.sqrt_weights / (m.eigenvalues - x)
            f, _ = _weyl_raw(m, x)
            assert abs(np.dot(m.sqrt_weights, omega)) == pytest.approx(
                abs(f.real), abs=1e-9
            )
            residual = np.linalg.norm(compressed @ omega - x * omega)
            assert residual <= 1e-9 * max(1.0, abs(x)) * np.linalg.norm(omega)


def test_interlacing_random():
    rng = np.random.default_rng(59)
    for _ in range(50):
        m = random_model(rng, int(rng.integers(2, 13)))
        h1, h2 = rng.uniform(-4, 4, size=2)
        if abs(h1 - h2) < 1e-2:
            h2 += 1.0
        s1 = perturbed_spectrum(m, Coupling.finite(h1))
        s2 = perturbed_spectrum(m, Coupling.finite(h2))
        merged = sorted([(x, 0) for x in s1] + [(x, 1) for x in s2])
        labels = [t for _, t in merged]
        assert all(a != b for a, b in zip(labels, labels[1:]))


def test_monotone_coupling():
    rng = np.random.default_rng(61)
    for _ in range(30):
        m = random_model(rng, int(rng.integers(2, 10)))
        h1 = rng.uniform(-3, 3)
        h2 = h1 + rng.uniform(0.1, 2)
        s1 = perturbed_spectrum(m, Coupling.finite(h1))
        s2 = perturbed_spectrum(m, Coupling.finite(h2))
        assert np.all(s2 >= s1 - 1e-12)


# The two models on which bracket hunting used to fail: a weight of 1e-20
# puts a root within 1e-20 of its pole, and a far pole at h = -1e-8 puts one
# within 1e-8 of a pole at 1e12.
SMALL_WEIGHT = ([0.0, 1.0, 2.0, 3.0], [1.0, 1e-20, 1.0, 1.0])
FAR_POLE = ([0.0, 1.0, 1e12], [1.0, 1.0, 1.0])


def _mp_secular_roots(m, h):
    """Roots of 1 + hF (zeros of F for h=None) by bisection at 40 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        lam = [mp.mpf(float(v)) for v in m.eigenvalues]
        w = [mp.mpf(float(v)) for v in m.weights]

        def g(x):
            f = mp.fsum(wj / (lj - x) for lj, wj in zip(lam, w))
            return f if h is None else 1 + mp.mpf(h) * f

        brackets = list(zip(lam, lam[1:]))
        if h is not None:
            shift = mp.mpf(h) * mp.fsum(w)
            if h > 0:
                brackets.append((lam[-1], lam[-1] + shift))
            else:
                brackets.insert(0, (lam[0] + shift, lam[0]))
        # sign(h) * g increases between consecutive poles.
        s = 1 if h is None or h > 0 else -1
        roots = []
        for lo, hi in brackets:
            for _ in range(200):
                mid = (lo + hi) / 2
                if s * g(mid) < 0:
                    lo = mid
                else:
                    hi = mid
            roots.append((lo + hi) / 2)
        return roots


@pytest.mark.parametrize("data,h", [(SMALL_WEIGHT, 1.0), (SMALL_WEIGHT, None),
                                    (FAR_POLE, -1e-8)],
                         ids=["small-weight-h1", "small-weight-inf",
                              "far-pole-h-1e-8"])
def test_roots_next_to_a_pole_match_the_oracle(data, h):
    m = new_model(*data)
    coupling = Coupling.infinite() if h is None else Coupling.finite(h)
    nodes = perturbed_spectrum(m, coupling)
    assert nodes.size == (m.dim - 1 if h is None else m.dim)
    assert np.all(np.diff(nodes) > 0.0)
    gap_roots = nodes if h is None else (nodes[:-1] if h > 0 else nodes[1:])
    lam = m.eigenvalues
    assert np.all(lam[:-1] <= gap_roots) and np.all(gap_roots <= lam[1:])
    eps = np.finfo(float).eps
    for x, exact in zip(nodes, _mp_secular_roots(m, h)):
        assert abs(x - float(exact)) <= 4 * eps * max(m.scale, abs(x))


def _hard_models():
    rng = np.random.default_rng(67)
    lam = np.sort(rng.uniform(-10, 10, 20))
    w = rng.uniform(0.1, 1.0, 20)
    clustered = np.sort(np.concatenate(
        [4.0 * k + rng.uniform(0, 1e-6, 5) for k in range(4)]))
    spread = np.sort(np.concatenate([rng.uniform(0, 1, 10),
                                     rng.uniform(2, 1e12, 10)]))
    return [new_model(*SMALL_WEIGHT), new_model(*FAR_POLE),
            new_model(lam, w), new_model(lam + 1e8, w),
            new_model(lam, 10.0 ** rng.uniform(-299, 0, 20)),
            new_model(clustered, w), new_model(spread, w)]


@pytest.mark.parametrize("h", [1e-8, -1e-8, 1e8, -1e8, 1e300, -1e300])
def test_extreme_couplings_give_finite_interlaced_roots(h):
    for m in _hard_models():
        try:
            nodes = perturbed_spectrum(m, Coupling.finite(h))
        except NumericalError:
            continue
        assert nodes.size == m.dim
        assert np.all(np.isfinite(nodes))
        gap_roots = nodes[:-1] if h > 0 else nodes[1:]
        lam = m.eigenvalues
        assert np.all(lam[:-1] <= gap_roots) and np.all(gap_roots <= lam[1:])


@pytest.mark.parametrize("h", [1e308, -1e308])
def test_exterior_root_beyond_the_largest_double_raises(h):
    # |h| * ||mu||^2 = 2e308 overflows, and so does the exterior root.
    with pytest.raises(NumericalError):
        perturbed_spectrum(new_model([0.0, 1.0], [1.0, 1.0]),
                           Coupling.finite(h))
