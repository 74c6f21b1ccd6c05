import math

import numpy as np
import pytest

from specsample import (
    Coupling,
    PoleProximity,
    StateVector,
    ZeroOfF,
    node_weights,
    perturbed_spectrum,
    weyl,
    weyl_h,
    xi,
    xi_norm_sq,
)
from specsample.herglotz import cauchy_rows
from specsample.perturbation import _secular_roots
from specsample.sampling import apply_perturbed, to_partial_fractions

from conftest import random_model, random_state

GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0  # low secular root of the m2 model, h=1


def test_weyl_m2_at_i(m2):
    f, fp = weyl(m2, 1j)
    assert f == pytest.approx(0.2 + 0.6j, abs=1e-15)
    assert fp == pytest.approx(-0.44 + 0.08j, abs=1e-15)


def test_weyl_m2_midpoint(m2):
    f, fp = weyl(m2, 1.0)
    assert f == 0.0
    assert fp == pytest.approx(1.0, abs=1e-15)


def test_weyl_pole_proximity(m2):
    with pytest.raises(PoleProximity):
        weyl(m2, 2.0 + 1e-15)


def test_weyl_h_m2(m2):
    f1, g1, _ = weyl_h(m2, 1.0, 1j)
    assert f1 == pytest.approx((1 + 1j) / 3, abs=1e-14)
    assert g1 == pytest.approx(1.5 - 1.5j, abs=1e-14)


def test_weyl_h_zero_coupling(m2):
    f0, _, _ = weyl_h(m2, 0.0, 1j)
    assert f0 == pytest.approx(0.2 + 0.6j, abs=1e-15)


def test_weyl_h_zero_of_f(m2):
    with pytest.raises(ZeroOfF):
        weyl_h(m2, 1.0, 1.0)


def test_weyl_h_inverse_identity():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = random_model(rng, int(rng.integers(2, 9)))
        h = rng.uniform(-4, 4)
        z = complex(rng.uniform(-5, 15), rng.uniform(0.3, 3))
        f_h, g_h, _ = weyl_h(m, h, z)
        assert f_h * g_h == pytest.approx(1.0, rel=1e-12)


def test_herglotz_property():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        m = random_model(rng, int(rng.integers(2, 8)))
        z = complex(rng.uniform(-5, 15), rng.uniform(1e-3, 5))
        f, _ = weyl(m, z)
        assert f.imag > 0
        h = rng.uniform(-4, 4)
        f_h, _, _ = weyl_h(m, h, z)
        assert f_h.imag > 0


def test_conjugate_symmetry():
    rng = np.random.default_rng(13)
    for _ in range(200):
        m = random_model(rng, int(rng.integers(2, 8)))
        z = complex(rng.uniform(-5, 15), rng.uniform(0.2, 5))
        f, _ = weyl(m, z)
        fc, _ = weyl(m, z.conjugate())
        assert fc == pytest.approx(f.conjugate(), rel=1e-13)


def test_xi_norm_sq_m2(m2):
    assert xi_norm_sq(m2, GOLDEN) == pytest.approx(3.618034, abs=1e-6)
    assert xi_norm_sq(m2, 3.0 - GOLDEN) == pytest.approx(1.381966, abs=1e-6)
    with pytest.raises(ZeroOfF):
        xi_norm_sq(m2, 1.0)


def test_xi_matches_norm(m2):
    v = xi(m2, GOLDEN)
    assert v.norm_sq() == pytest.approx(xi_norm_sq(m2, GOLDEN), rel=1e-12)


def test_xi_zero_of_f(m2):
    with pytest.raises(ZeroOfF):
        xi(m2, 1.0)


def test_xi_is_perturbed_eigenvector(m2):
    # At a real x the vector spans the kernel of A_h - x for h = -1/F(x).
    x = 0.5
    f, _ = weyl(m2, x)
    h = float(-1.0 / f.real)
    v = xi(m2, x)
    av = apply_perturbed(m2, h, StateVector(v.coords))
    residual = np.linalg.norm(av.coords - x * v.coords)
    assert residual <= 1e-9 * (1 + abs(x)) * math.sqrt(v.norm_sq())


def test_xi_eigen_residual_random():
    rng = np.random.default_rng(17)
    for _ in range(50):
        m = random_model(rng, int(rng.integers(2, 9)))
        # real point inside the spectral hull, away from poles and zeros
        while True:
            x = rng.uniform(m.eigenvalues[0] - 1, m.eigenvalues[-1] + 1)
            try:
                f, _ = weyl(m, x)
                v = xi(m, x)
                break
            except (PoleProximity, ZeroOfF):
                continue
        h = float(-1.0 / f.real)
        av = apply_perturbed(m, h, StateVector(v.coords))
        residual = np.linalg.norm(av.coords - x * v.coords)
        assert residual <= 1e-9 * (1 + abs(x)) * math.sqrt(v.norm_sq())


def test_evaluation_cauchy_schwarz():
    rng = np.random.default_rng(19)
    for _ in range(100):
        m = random_model(rng, int(rng.integers(2, 8)))
        phi = random_state(rng, m.dim)
        z = complex(rng.uniform(-5, 15), rng.uniform(0.3, 3))
        v = xi(m, z)
        val = np.vdot(v.coords, phi.coords)
        assert abs(val) <= math.sqrt(v.norm_sq()) * phi.norm() * (1 + 1e-12)


def test_resolvent_identity_form():
    # <xi(z), xi(w)> = (z - conj(w))^-1 (1/F(conj(w)) - 1/F(z))
    rng = np.random.default_rng(23)
    for _ in range(100):
        m = random_model(rng, int(rng.integers(2, 8)))
        z = complex(rng.uniform(-5, 15), rng.uniform(0.3, 3))
        w = complex(rng.uniform(-5, 15), rng.uniform(0.3, 3))
        lhs = np.vdot(xi(m, z).coords, xi(m, w).coords)
        fz, _ = weyl(m, z)
        fwb, _ = weyl(m, w.conjugate())
        rhs = (1.0 / fwb - 1.0 / fz) / (z - w.conjugate())
        assert lhs == pytest.approx(rhs, rel=1e-10)


def _per_node_sums(poles, coeffs, points, power):
    """The per-point loop the batched kernel replaces, as the reference."""
    return np.array([math.fsum(coeffs / (poles - x) ** power)
                     for x in points])


@pytest.mark.parametrize("n", [2, 50, 200])
@pytest.mark.parametrize("h", [1.3, -0.7, None], ids=["1.3", "-0.7", "inf"])
def test_cauchy_rows_match_per_node_fsum(n, h):
    # N=200 runs 81 rows per block: the last block is partial.
    rng = np.random.default_rng(n)
    m = random_model(rng, n)
    coupling = Coupling.infinite() if h is None else Coupling.finite(h)
    nodes = perturbed_spectrum(m, coupling)
    lam, w = m.eigenvalues, m.weights
    for power in (1, 2):
        assert (cauchy_rows(lam, w, nodes, power).tobytes()
                == _per_node_sums(lam, w, nodes, power).tobytes())
    phi = random_state(rng, n)
    c = m.sqrt_weights * phi.coords
    re, im = cauchy_rows(lam, np.stack((c.real, c.imag)), nodes)
    assert np.array_equal(re, [math.fsum(c.real / (lam - x)) for x in nodes])
    assert np.array_equal(im, [math.fsum(c.imag / (lam - x)) for x in nodes])
    # The node rule's masses, and at the zeros of F its residues, equal
    # their per-root reference bit for bit.
    masses, residues = _per_root_data(m, *((0.0, 1.0) if h is None
                                           else (1.0, h)), c)
    if h is None:
        assert (to_partial_fractions(m, phi).coefficients.tobytes()
                == residues.tobytes())
    else:
        assert node_weights(m, h, nodes).tobytes() == masses.tobytes()


def _per_root_data(m, a, b, c):
    """The node rule one root at a time, as its reference.  R, R' and, at
    a = 0, the numerator N_R with coefficients c are math.fsum sums over
    the poles other than the root's origin lam_k at
    d_j = (lam_j - lam_k) - tau, (k, tau) the solver's; t = tau/b is the
    quotient (w_k + R' tau^2) / (a + b R + b R' tau), the mass
    t (t / (w_k + (b t)^2 R')) and the residue mass (N_R - c_k / (b t))."""
    lam, w = m.eigenvalues, m.weights
    _, origin, offset, _ = _secular_roots(m, a, b)
    masses, residues = [], []
    for k, tau in zip(origin, offset):
        rest = np.arange(lam.size) != k
        d = (lam[rest] - lam[k]) - tau
        r, rp = math.fsum(w[rest] / d), math.fsum(w[rest] / (d * d))
        t = (w[k] + rp * tau * tau) / (a + b * r + b * rp * tau)
        bt = b * t
        mass = t * (t / (w[k] + bt * (bt * rp)))
        masses.append(mass)
        residues.append(complex(
            mass * (math.fsum(c.real[rest] / d) - c.real[k] / bt),
            mass * (math.fsum(c.imag[rest] / d) - c.imag[k] / bt)))
    return np.array(masses), np.array(residues)
