import math

import numpy as np
import pytest

from specsample import (
    MeromorphicRep,
    NormalizationRequired,
    NotAZero,
    PoleMismatch,
    PoleProximity,
    RealPoint,
    StateVector,
    apply_perturbed,
    blaschke_swap,
    compression_spectrum,
    conjugate_state,
    evaluate_rep,
    from_partial_fractions,
    inner_h,
    kramer_reconstruct,
    mu_inner,
    mu_state,
    new_model,
    omega_state,
    reconstruct,
    sample,
    to_partial_fractions,
    transform,
    xi,
)
from specsample.herglotz import _weyl_raw

from conftest import random_model, random_state

SQ2 = math.sqrt(2.0)


def _rand_point(rng, lo=-5.0, hi=15.0):
    return complex(rng.uniform(lo, hi), rng.uniform(0.3, 3.0))


def test_transform_m2_hand_value(m2):
    e1 = StateVector([1.0, 0.0])
    val = transform(m2, e1, 1j)
    assert val == pytest.approx(1.060660 + 0.353553j, abs=1e-6)


def test_transform_is_xi_pairing():
    rng = np.random.default_rng(67)
    for _ in range(100):
        m = random_model(rng, int(rng.integers(2, 9)))
        phi = random_state(rng, m.dim)
        z = _rand_point(rng)
        lhs = transform(m, phi, z)
        rhs = np.vdot(xi(m, z).coords, phi.coords)
        assert lhs == pytest.approx(rhs, rel=1e-11)


def test_transform_of_mu_is_one():
    rng = np.random.default_rng(71)
    for _ in range(50):
        m = random_model(rng, int(rng.integers(2, 9)))
        z = _rand_point(rng)
        assert transform(m, mu_state(m), z) == pytest.approx(1.0, rel=1e-11)


def test_transform_of_omega_is_reciprocal():
    rng = np.random.default_rng(73)
    for _ in range(30):
        m = random_model(rng, int(rng.integers(2, 9)))
        z = _rand_point(rng)
        for x in compression_spectrum(m):
            val = transform(m, omega_state(m, x), z)
            assert val == pytest.approx(1.0 / (z - x), rel=1e-9)


def test_sample_m2_h0(m2):
    e1 = StateVector([1.0, 0.0])
    s = sample(m2, e1, 0.0)
    np.testing.assert_array_equal(s.nodes, [0.0, 2.0])
    np.testing.assert_array_equal(s.node_weights, [0.5, 0.5])
    np.testing.assert_allclose(s.values, [SQ2, 0.0], atol=1e-14)


def test_sample_nodes_match_spectrum(m2):
    from specsample import Coupling, node_weights, perturbed_spectrum

    s = sample(m2, mu_state(m2), 1.0)
    nodes = perturbed_spectrum(m2, Coupling.finite(1.0))
    np.testing.assert_array_equal(s.nodes, nodes)
    np.testing.assert_array_equal(s.node_weights,
                                  node_weights(m2, 1.0, nodes))
    np.testing.assert_allclose(s.values, [1.0, 1.0], atol=1e-12)


def test_reconstruct_exact():
    rng = np.random.default_rng(79)
    for _ in range(30):
        m = random_model(rng, int(rng.integers(2, 10)))
        phi = random_state(rng, m.dim)
        h = rng.uniform(-3, 3)
        if abs(h) < 1e-2:
            h = 0.7
        s = sample(m, phi, h)
        for _ in range(5):
            z = _rand_point(rng)
            direct = transform(m, phi, z)
            rel = max(1.0, abs(direct))
            assert abs(reconstruct(s, z) - direct) <= 1e-9 * rel
            assert abs(kramer_reconstruct(m, s, z) - direct) <= 1e-9 * rel


def test_reconstruct_real_points():
    rng = np.random.default_rng(83)
    m = random_model(rng, 6)
    phi = random_state(rng, 6)
    s = sample(m, phi, 1.3)
    for x in np.linspace(m.eigenvalues[0], m.eigenvalues[-1], 29):
        try:
            direct = transform(m, phi, complex(x))
            recon = reconstruct(s, complex(x))
        except PoleProximity:
            continue
        assert recon == pytest.approx(direct, rel=1e-8, abs=1e-8)


def test_reconstruct_rejects_nodes(m2):
    s = sample(m2, mu_state(m2), 1.0)
    with pytest.raises(PoleProximity):
        reconstruct(s, complex(s.nodes[0]))


def test_unitarity():
    rng = np.random.default_rng(89)
    for _ in range(50):
        m = random_model(rng, int(rng.integers(2, 10)))
        phi = random_state(rng, m.dim)
        psi = random_state(rng, m.dim)
        h = rng.uniform(-3, 3)
        lhs = inner_h(m, h, phi, psi)
        rhs = np.vdot(phi.coords, psi.coords)
        assert abs(lhs - rhs) <= 1e-10 * phi.norm() * psi.norm()


def test_inner_h_solves_once_and_matches_two_samples(monkeypatch):
    from specsample import sampling

    rng = np.random.default_rng(90)
    m = random_model(rng, 7)
    phi, psi = random_state(rng, m.dim), random_state(rng, m.dim)
    fs, gs = sample(m, phi, 1.3), sample(m, psi, 1.3)
    expected = sampling._csum(np.conj(fs.values) * gs.values * fs.node_weights)
    solves = []
    solve = sampling.perturbed_spectrum
    monkeypatch.setattr(sampling, "perturbed_spectrum",
                        lambda *args: solves.append(args) or solve(*args))
    assert inner_h(m, 1.3, phi, psi) == expected
    assert len(solves) == 1


def test_partial_fractions_m2(m2):
    e1 = StateVector([1.0, 0.0])
    rep = to_partial_fractions(m2, e1)
    assert rep.constant == pytest.approx(SQ2 / 2, abs=1e-12)
    np.testing.assert_allclose(rep.poles, [1.0], atol=1e-12)
    assert rep.coefficients[0] == pytest.approx(-SQ2 / 2, abs=1e-10)


def test_partial_fractions_requires_unit_weight():
    m = new_model([0, 2], [1.0, 1.0])
    with pytest.raises(NormalizationRequired):
        to_partial_fractions(m, StateVector([1.0, 0.0]))


def test_partial_fractions_round_trip():
    rng = np.random.default_rng(97)
    for _ in range(30):
        m = random_model(rng, int(rng.integers(2, 10)))
        phi = random_state(rng, m.dim)
        rep = to_partial_fractions(m, phi)
        back = from_partial_fractions(m, rep)
        np.testing.assert_allclose(back.coords, phi.coords, atol=1e-10)
        z = _rand_point(rng)
        assert evaluate_rep(rep, z) == pytest.approx(
            transform(m, phi, z), rel=1e-9, abs=1e-10
        )


def test_partial_fractions_norm_identity():
    # |c|^2 + sum |c_n|^2 F'(x_n) = ||phi||^2
    rng = np.random.default_rng(101)
    for _ in range(30):
        m = random_model(rng, int(rng.integers(2, 10)))
        phi = random_state(rng, m.dim)
        rep = to_partial_fractions(m, phi)
        total = abs(rep.constant) ** 2
        for x, c in zip(rep.poles, rep.coefficients):
            _, fp = _weyl_raw(m, x)
            total += abs(c) ** 2 * fp.real
        assert total == pytest.approx(phi.norm() ** 2, rel=1e-10)


def test_from_partial_fractions_pole_mismatch(m2):
    rep = MeromorphicRep(constant=1.0, poles=[0.5], coefficients=[1.0])
    with pytest.raises(PoleMismatch):
        from_partial_fractions(m2, rep)


def test_conjugate_state():
    rng = np.random.default_rng(103)
    for _ in range(30):
        m = random_model(rng, int(rng.integers(2, 8)))
        phi = random_state(rng, m.dim)
        z = _rand_point(rng)
        lhs = transform(m, conjugate_state(m, phi), z)
        rhs = transform(m, phi, z.conjugate()).conjugate()
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_blaschke_swap_m2(m2):
    eta = StateVector([1j / SQ2, 1.0 / SQ2])
    w = 1.0 + 1.0j
    assert abs(transform(m2, eta, w)) < 1e-12
    swapped = blaschke_swap(m2, eta, w)
    assert swapped.norm() == pytest.approx(eta.norm(), rel=1e-14)
    assert abs(transform(m2, swapped, w.conjugate())) < 1e-12


def test_blaschke_swap_random():
    rng = np.random.default_rng(107)
    for _ in range(20):
        m = random_model(rng, int(rng.integers(3, 8)))
        phi = random_state(rng, m.dim)
        w = _rand_point(rng, lo=m.eigenvalues[0], hi=m.eigenvalues[-1])
        # project out the xi component so that w becomes a genuine zero
        v = xi(m, w).coords
        coords = phi.coords - (np.vdot(v, phi.coords)
                               / math.fsum(np.abs(v) ** 2)) * v
        phi = StateVector(coords)
        swapped = blaschke_swap(m, phi, w)
        assert swapped.norm() == pytest.approx(phi.norm(), rel=1e-13)
        assert abs(transform(m, swapped, w.conjugate())) <= (
            1e-10 * math.sqrt(xi(m, w.conjugate()).norm_sq()) * phi.norm()
        )


def test_blaschke_swap_errors(m2):
    with pytest.raises(RealPoint):
        blaschke_swap(m2, mu_state(m2), 0.5)
    with pytest.raises(NotAZero):
        blaschke_swap(m2, mu_state(m2), 1j)


def test_apply_perturbed_matrix_oracle():
    rng = np.random.default_rng(109)
    for _ in range(30):
        m = random_model(rng, int(rng.integers(2, 9)))
        phi = random_state(rng, m.dim)
        h = rng.uniform(-3, 3)
        a_h = np.diag(m.eigenvalues) + h * np.outer(m.sqrt_weights,
                                                    m.sqrt_weights)
        expected = a_h @ phi.coords
        got = apply_perturbed(m, h, phi).coords
        np.testing.assert_allclose(got, expected, atol=1e-12 * m.scale)


def test_mu_inner(m2):
    assert mu_inner(m2, StateVector([1.0, 1.0])) == pytest.approx(SQ2)
