import json
import math
import re

import numpy as np
import pytest

from specsample import (
    Coupling,
    InconsistentNodes,
    MeromorphicRep,
    NormalizationRequired,
    NotAZero,
    NumericalError,
    PoleMismatch,
    PoleProximity,
    RealPoint,
    SampleSet,
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
    node_weights,
    new_model,
    normalize,
    omega_state,
    perturbed_model,
    perturbed_spectrum,
    reconstruct,
    sample,
    to_partial_fractions,
    transform,
    weyl,
    xi,
)

from conftest import (
    LAYOUTS,
    layout_model,
    mp_residues,
    mp_root_masses,
    random_model,
    random_state,
    weyl_raw,
)

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


def test_inner_h_solves_once_and_matches_two_samples(monkeypatch, tmp_path):
    from specsample import cli, herglotz, perturbation

    rng = np.random.default_rng(90)
    m = random_model(rng, 7)
    phi, psi = random_state(rng, m.dim), random_state(rng, m.dim)
    fs, gs = sample(m, phi, 1.3), sample(m, psi, 1.3)
    expected = herglotz._sums([fs.node_weights * np.conj(fs.values)
                               * gs.values])[0]
    solves = []
    solve = perturbation._secular_roots
    monkeypatch.setattr(perturbation, "_secular_roots",
                        lambda *args: solves.append(args) or solve(*args))
    # The nodes and the offsets the node rule takes at them come from one
    # solve, on every path that needs both; each path gets a model object
    # that has not been solved yet.
    model_file = tmp_path / "m.json"
    model_file.write_text(json.dumps({"kind": "explicit",
                                      "eigenvalues": m.eigenvalues.tolist(),
                                      "weights": m.weights.tolist()}))
    paths = [
        lambda fresh: inner_h(fresh, 1.3, phi, psi) == expected,
        lambda fresh: sample(fresh, phi, 1.3).values.tobytes()
        == fs.values.tobytes(),
        lambda fresh: perturbed_model(fresh, 1.3).dim == m.dim,
        lambda fresh: to_partial_fractions(fresh, phi).poles.size == m.dim - 1,
        lambda fresh: cli.main(["spectrum", "--model", str(model_file),
                                "--coupling", "1.3"]) == 0,
    ]
    for path in paths:
        solves.clear()
        assert path(new_model(m.eigenvalues, m.weights))
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
            _, fp = weyl_raw(m, x)
            total += abs(c) ** 2 * fp.real
        assert total == pytest.approx(phi.norm() ** 2, rel=1e-10)


def test_verify_sums_the_norm_terms_of_every_block_as_one(monkeypatch):
    # verify's partial-fraction check forms its norm terms a block of rows
    # at a time into one fsum: blocks of one row, of four and of all rows
    # give the same result.
    from specsample import verify

    m = random_model(np.random.default_rng(96), 30)
    want = verify.check_partial_fractions(m, np.random.default_rng(0))
    for terms in (1, 4 * 29):
        monkeypatch.setattr(verify, "_BLOCK_TERMS", terms)
        assert verify.check_partial_fractions(
            m, np.random.default_rng(0)) == want


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


def test_node_on_an_eigenvalue_takes_the_limit_value():
    # The root next to the pole at 1 is 1.3e-40 away: it rounds onto the pole.
    m = new_model([0.0, 1.0, 2.0], [1.0, 1e-40, 1.0])
    phi = StateVector([1.0, 2.0 - 1.0j, 3.0])
    s = sample(m, phi, 1.3)
    assert s.nodes[1] == 1.0
    assert s.values[1] == phi.coords[1] / math.sqrt(1e-40)
    assert np.all(np.isfinite(s.values))
    # Mass w_1 / ((1 + hR)^2 + h^2 w_1 R'), with R = 0 and R' = 2 at x = 1.
    assert s.node_weights[1] == pytest.approx(1e-40 / (1.0 + 2 * 1.69e-40),
                                              rel=1e-15, abs=0.0)
    assert inner_h(m, 1.3, phi, phi) == pytest.approx(phi.norm() ** 2,
                                                      rel=1e-12)


def test_parseval_holds_beside_a_negligible_weight_at_a_large_coupling():
    # At h = 1e8 the root just below the weight of 1e-40 carries a mass of
    # 5e-17, where 1 + h R over the other poles cancels.
    m = new_model([0.0, 1.0, 2.0], [1.0, 1e-40, 1.0])
    phi = StateVector([1.0, 2.0 - 1.0j, 3.0])
    got = inner_h(m, 1e8, phi, phi)
    assert abs(got - phi.norm() ** 2) <= 1e-8 * phi.norm() ** 2


def test_node_beside_an_eigenvalue_takes_its_own_value_and_root_mass():
    # The root next to the pole at 1 is ~6 ulps away: the image function
    # changes by O(1) within that distance, so the value is the one at the
    # returned node, not the limit at the pole, and the mass is the one at
    # the exact root, not at the node.
    mp = pytest.importorskip("mpmath")
    lam, w, h = [0.0, 1.0, 2.0], [1.0, 1e-15, 2.0], 1.3
    m = new_model(lam, w)
    phi = StateVector([1.0, 2.0 - 1.0j, 3.0])
    s = sample(m, phi, h)
    x = s.nodes[1]
    assert 0.0 < x - 1.0 < 1e-13
    with mp.workdps(60):
        lm = [mp.mpf(v) for v in lam]
        wm = [mp.mpf(v) for v in m.weights]
        cm = [mp.sqrt(wj) * mp.mpc(c.real, c.imag)
              for wj, c in zip(wm, phi.coords)]

        def sums(t):
            return (mp.fsum(wj / (lj - t) for lj, wj in zip(lm, wm)),
                    mp.fsum(wj / (lj - t) ** 2 for lj, wj in zip(lm, wm)),
                    mp.fsum(cj / (lj - t) for lj, cj in zip(lm, cm)))

        f, _, n = sums(mp.mpf(x))
        value = complex(n / f)
        lo, hi = mp.mpf(1), mp.mpf(x) + mp.mpf(1e-15)
        for _ in range(150):
            mid = (lo + hi) / 2
            # 1 + h F rises from -inf at the pole through the root.
            lo, hi = (lo, mid) if 1 + h * sums(mid)[0] > 0 else (mid, hi)
        mass = float(1 / (h * h * sums(lo)[1]))
    assert abs(s.values[1] - value) <= 1e-12 * abs(value)
    assert abs(s.values[1] - phi.coords[1] / math.sqrt(1e-15)) > 0.1 * abs(value)
    assert s.node_weights[1] == pytest.approx(mass, rel=1e-13, abs=0.0)


def test_kramer_rejects_samples_of_another_coupling():
    m = random_model(np.random.default_rng(93), 12)
    phi = random_state(np.random.default_rng(94), 12)
    s = sample(m, phi, 1.3)
    other = SampleSet(h=0.9, nodes=s.nodes, node_weights=s.node_weights,
                      values=s.values)
    with pytest.raises(InconsistentNodes):
        kramer_reconstruct(m, other, 0.5 + 1.0j)
    # An empty grid has no point to sum, and still checks the nodes.
    assert kramer_reconstruct(m, s, np.empty((0, 3))).shape == (0, 3)
    with pytest.raises(InconsistentNodes):
        kramer_reconstruct(m, other, [])


def test_an_underflowed_node_mass_is_a_numerical_failure():
    # Tiny weights in 1e-6 clusters at h = 1e8: one node's exact mass is
    # below the smallest subnormal, so it has no mass to sample with.
    # The node rule names it, the 60-digit root masses show that it is the
    # only one, and sample names it too.
    m = layout_model(26, "clusters", True, 116987)
    nodes = perturbed_spectrum(m, Coupling.finite(1e8))
    with pytest.raises(NumericalError, match="has no positive mass") as err:
        node_weights(m, 1e8, nodes)
    named = [x for x in nodes if f"node {float(x)!r} " in str(err.value)]
    assert named == list(nodes[mp_root_masses(m, 1e8, nodes) == 0.0])
    assert len(named) == 1
    with pytest.raises(NumericalError, match=re.escape(f"{float(named[0])!r}")):
        sample(m, random_state(np.random.default_rng(3), 26), 1e8)


def test_kramer_rejects_a_partial_node_set():
    # Three of twelve nodes left out: no longer the spectrum at h.
    rng = np.random.default_rng(3)
    m = random_model(rng, 12)
    s = sample(m, random_state(rng, 12), 1.3)
    keep = np.delete(np.arange(12), [2, 5, 9])
    part = SampleSet(h=1.3, nodes=s.nodes[keep],
                     node_weights=s.node_weights[keep], values=s.values[keep])
    with pytest.raises(InconsistentNodes):
        kramer_reconstruct(m, part, 0.3 + 1.0j)


class _CountingMath:
    """The math module, counting the rows _row_sums hands to math.fsum."""

    def __init__(self):
        self.fsum_rows = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def fsum(self, terms):
        self.fsum_rows += 1
        return math.fsum(terms)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_sample_on_tiny_weights_sums_few_rows_by_fsum(monkeypatch, layout):
    # With weights down to 1e-299, w_k / (lam_k - x_j) overflows at most
    # nodes, which take the limit value psi_k / sqrt(w_k).  The pass at the
    # nodes sums only the others: a row with an infinite term cannot be
    # certified and would fall back to math.fsum (about 570 rows here).
    import specsample.herglotz as herglotz

    m = layout_model(200, layout, True, 2)
    phi = random_state(np.random.default_rng(2), m.dim)
    counting = _CountingMath()
    monkeypatch.setattr(herglotz, "math", counting)
    s = sample(m, phi, 1.3)
    assert counting.fsum_rows <= 3
    with np.errstate(divide="ignore", over="ignore"):
        terms = m.weights / (m.eigenvalues - s.nodes[:, None])
    assert (~np.isfinite(terms).all(axis=1)).sum() > 100


PHI3 = StateVector([1.0, 2.0 - 1.0j, 3.0])


def test_a_node_whose_pole_term_overflows_takes_the_limit_value():
    # At h = 5e-324 the first node is 5e-324, where w_0/(0 - x) overflows
    # although x != 0: its value is the limit phi_0/sqrt(w_0) = 1, and
    # Parseval holds.
    m = new_model([0.0, 1.0, 2.0], [1.0, 1e-40, 1.0])
    s = sample(m, PHI3, 5e-324)
    assert s.nodes[0] != 0.0 and s.values[0] == 1.0
    assert inner_h(m, 5e-324, PHI3, PHI3) == pytest.approx(15.0, rel=1e-15)
    m = layout_model(20, "pole-at-0", False, 5)
    s = sample(m, random_state(np.random.default_rng(5), 20), 5e-324)
    assert np.all(np.isfinite(s.values))


def test_inner_h_takes_the_mass_first():
    # A mass of 4.4e-316 against values of 4.7e157: the product of the
    # values alone overflows.  The result is 1e-8 below 15 = ||phi||^2
    # because the value next to 1 is taken at the rounded node, 8e-8 off
    # its value at the root (ROADMAP, direction 2).
    m = new_model([0.0, 1.0, 2.0], [1e-299, 1.0, 1.0])
    assert inner_h(m, 1e8, PHI3, PHI3) == pytest.approx(15.0, rel=1e-7)


def test_a_pole_on_an_eigenvalue_has_a_residue_but_no_preimage():
    # With weights down to 1e-299 zeros of F round onto an eigenvalue.  The
    # node rule still takes their residues at the exact zeros, so the
    # expansion evaluates the image, but the preimage would divide by
    # lam_j - x_n = 0 there.
    for layout in LAYOUTS:
        m = normalize(layout_model(20, layout, True, 5))
        phi = random_state(np.random.default_rng(5), m.dim)
        rep = to_partial_fractions(m, phi)
        assert np.isin(rep.poles, m.eigenvalues).any()
        rng = np.random.default_rng(6)
        lo, hi = m.eigenvalues[0], m.eigenvalues[-1]
        for _ in range(10):
            z = complex(rng.uniform(lo, hi), (hi - lo) * rng.uniform(0.3, 3))
            assert evaluate_rep(rep, z) == pytest.approx(transform(m, phi, z),
                                                         rel=1e-12)
        with pytest.raises(NumericalError, match="on an eigenvalue"):
            from_partial_fractions(m, rep)
    # Both zeros of F round onto the eigenvalue 1: no two poles may share
    # a double.
    m = normalize(new_model([0.0, 1.0, 2.0], [1.0, 1e-40, 1.0]))
    with pytest.raises(NumericalError, match="two roots round to 1.0"):
        to_partial_fractions(m, PHI3)


def test_partial_fractions_where_f_prime_overflows():
    # The zero of F at 6.7e-300 has (lam_k - x)^2 = 0 in doubles, so F' is
    # inf there while its residue is about -3e-150.
    m = normalize(new_model([0.0, 1.0, 2.0], [1e-299, 1.0, 1.0]))
    back = from_partial_fractions(m, to_partial_fractions(m, PHI3))
    assert abs(back.coords[0] - 1.0) <= 1e-12
    np.testing.assert_allclose(back.coords, PHI3.coords, rtol=1e-12)


def _cross_check_models():
    from specsample import JacobiParams, oscillator_model, truncate

    rng = np.random.default_rng(91)
    return [new_model([0.0, 2.0], [0.5, 0.5]), random_model(rng, 40),
            truncate(JacobiParams(np.arange(1.0, 9.0), np.ones(8)), 6),
            oscillator_model(8, normalized=False)]


def test_kramer_agrees_with_lagrange_to_the_cli_bound():
    rng = np.random.default_rng(92)
    for m in _cross_check_models():
        phi = random_state(rng, m.dim)
        s = sample(m, phi, 1.3)
        lo, hi = m.eigenvalues[0], m.eigenvalues[-1]
        for _ in range(10):
            z = complex(rng.uniform(lo - 1.0, hi + 1.0), rng.uniform(0.1, 3.0))
            assert abs(kramer_reconstruct(m, s, z) - reconstruct(s, z)) <= 1e-8


def test_kramer_on_a_grid_equals_point_by_point():
    # The node data is built once per grid; every value must be the one a
    # single-point call returns, bit for bit, in the grid's shape.
    rng = np.random.default_rng(95)
    for m in _cross_check_models():
        s = sample(m, random_state(rng, m.dim), 1.3)
        lo, hi = m.eigenvalues[0], m.eigenvalues[-1]
        grid = (rng.uniform(lo - 1.0, hi + 1.0, (2, 5))
                + 1j * rng.uniform(0.1, 3.0, (2, 5)))
        batched = kramer_reconstruct(m, s, grid)
        assert batched.shape == grid.shape
        for idx, z in np.ndenumerate(grid):
            single = kramer_reconstruct(m, s, complex(z))
            assert isinstance(single, complex)
            assert batched[idx] == single
        assert kramer_reconstruct(m, s, grid[0].tolist()).tolist() == (
            batched[0].tolist())


def _kramer_per_point(m, s, z):
    """Kramer at one point summed node by node: the image of conj(xi(z))
    at each node from one math.fsum per node and part, weighed by the
    node's mass (on an eigenvalue, the image's limit there)."""
    coords = np.conj(xi(m, z).coords)
    c, lam = m.sqrt_weights * coords, m.eigenvalues
    masses = node_weights(m, s.h, s.nodes)
    values = []
    for x in s.nodes:
        k = int(np.argmin(np.abs(lam - x)))
        if x == lam[k]:
            values.append(coords[k] / m.sqrt_weights[k])
            continue
        d = lam - x
        f = math.fsum(m.weights / d)
        values.append(complex(math.fsum(c.real / d) / f,
                              math.fsum(c.imag / d) / f))
    terms = masses * np.array(values) * s.values
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


def _kramer_identity(m, s, z):
    """Kramer at one point by the kernel identity, from public pieces:
    sum_j m_j f(x_j) (h + 1/F(z)) / (x_j - z), F(z) from weyl, the masses
    from node_weights and the sum by one math.fsum per part (no node of
    these models is an eigenvalue)."""
    g = s.h + 1.0 / weyl(m, z)[0]
    terms = node_weights(m, s.h, s.nodes) * s.values * g / (s.nodes - z)
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


def test_kramer_grid_matches_the_node_by_node_sums():
    # A grid and its points give, bit for bit, the identity summed node by
    # node at each point, on the cross-check models and on N=120 (150
    # points).
    rng = np.random.default_rng(98)
    for m, count in [(mm, 12) for mm in _cross_check_models()] + [
            (random_model(rng, 120), 150)]:
        s = sample(m, random_state(rng, m.dim), 1.3)
        lo, hi = m.eigenvalues[0], m.eigenvalues[-1]
        grid = (rng.uniform(lo - 1.0, hi + 1.0, count)
                + 1j * rng.uniform(0.1, 3.0, count))
        want = np.array([_kramer_identity(m, s, z) for z in grid]).tobytes()
        assert kramer_reconstruct(m, s, grid).tobytes() == want
        assert np.array([kramer_reconstruct(m, s, z)
                         for z in grid]).tobytes() == want


def test_kramer_identity_equals_the_orthogonal_expansion():
    # The closed form against the series summed term by term from xi.
    rng = np.random.default_rng(97)
    for m in _cross_check_models() + [random_model(rng, 120)]:
        s = sample(m, random_state(rng, m.dim), 1.3)
        lo, hi = m.eigenvalues[0], m.eigenvalues[-1]
        for _ in range(6):
            z = complex(rng.uniform(lo - 1.0, hi + 1.0), rng.uniform(0.1, 3.0))
            want = _kramer_per_point(m, s, z)
            assert abs(kramer_reconstruct(m, s, z) - want) <= 1e-13 * abs(want)


def _mp_transform(m, phi, z):
    """The image of phi at z from the model's doubles, at 30 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        zz = mp.mpc(complex(z))
        lam = [mp.mpf(float(v)) - zz for v in m.eigenvalues]
        w = [mp.mpf(float(v)) for v in m.weights]
        f = mp.fsum(wj / d for wj, d in zip(w, lam))
        n = mp.fsum(mp.sqrt(wj) * mp.mpc(complex(c)) / d
                    for wj, c, d in zip(w, phi.coords, lam))
        return complex(n / f)


@pytest.mark.parametrize("tiny", [False, True], ids=["weights", "tiny"])
@pytest.mark.parametrize("layout", LAYOUTS)
def test_kramer_is_as_accurate_as_lagrange(layout, tiny):
    # Against the 30-digit transform, Kramer's worst relative error on 12
    # points from the axis out to the spread is within 4x reconstruct's
    # (or 1e-14).  At offset-1e8 with tiny weights (seed 1) every root
    # rounds onto its eigenvalue, where the node holds f(lam_k): the
    # kernel taken at the root instead reads 1.5e-11 against 4e-16.
    for seed in range(3):
        m = layout_model(40, layout, tiny, seed)
        rng = np.random.default_rng(seed)
        phi = random_state(rng, m.dim)
        s = sample(m, phi, 1.3)
        lam = m.eigenvalues
        span = lam[-1] - lam[0]
        grid = (rng.uniform(lam[0] - 0.1 * span, lam[-1] + 0.1 * span, 12)
                + 1j * 10.0 ** rng.uniform(-3, 0, 12) * span
                * rng.choice([-1, 1], 12))
        want = np.array([_mp_transform(m, phi, z) for z in grid])
        kramer, lagrange = (np.max(np.abs(got - want) / np.abs(want)) for got
                            in (kramer_reconstruct(m, s, grid),
                                reconstruct(s, grid)))
        assert kramer <= max(4.0 * lagrange, 1e-14), (seed, kramer, lagrange)


# On eigenvalues offset to 1e8 a zero of F can lie 1e-3 from its
# eigenvalue, where the double zero is millions of tau-relative ulps off
# the root, and in clusters offset to 1e8 a few ulps from it: the residues
# are taken at the solver's offset, not at the double.
@pytest.mark.parametrize("case", [f"N={n}" for n in (2, 9, 60, 200)] + [
    f"{layout}-{weights}" for layout in LAYOUTS + ["clusters-offset-1e8"]
    for weights in ("tiny", "gentle")] + ["weight-1e-299"])
def test_partial_fraction_coefficients_are_the_residues_at_the_exact_zeros(
        case):
    # Each coefficient is N/F' at the exact zero next to its pole, within
    # 1e-13 of the 60-digit residue, also where the pole is on an
    # eigenvalue or F' overflows there.
    rng = np.random.default_rng(99)
    if case.startswith("N="):
        n = int(case[2:])
        m, phi = random_model(rng, n), random_state(rng, n)
    elif case == "weight-1e-299":
        m, phi = normalize(new_model([0.0, 1.0, 2.0], [1e-299, 1.0, 1.0])), PHI3
    else:
        layout, weights = case.rsplit("-", 1)
        m = normalize(layout_model(20, layout, weights == "tiny", 5))
        phi = random_state(rng, m.dim)
    rep = to_partial_fractions(m, phi)
    np.testing.assert_allclose(rep.coefficients,
                               mp_residues(m, rep.poles, phi), rtol=1e-13)
