import json
import math

import numpy as np
import pytest

from specsample import (
    Coupling,
    InconsistentNodes,
    NumericalError,
    compression_spectrum,
    kramer_reconstruct,
    new_model,
    node_weights,
    perturbed_model,
    perturbed_spectrum,
    sample,
    weyl,
)
from specsample import perturbation
from specsample.cli import main
from specsample.herglotz import cauchy_rows
from specsample.perturbation import _secular_roots
from specsample.serialize import model_to_dict

from conftest import (
    LAYOUTS,
    layout_model,
    mp_root_masses,
    random_model,
    random_state,
    weyl_raw,
)

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
            f, _ = weyl_raw(m, x)
            assert abs(1.0 + h * f.real) <= 1e-10


def test_zero_residuals_infinite():
    rng = np.random.default_rng(31)
    for _ in range(50):
        m = random_model(rng, int(rng.integers(2, 13)))
        gaps = np.diff(m.eigenvalues)
        tol = 1e-12 * m.weights.max() / gaps.min()
        for x in perturbed_spectrum(m, Coupling.infinite()):
            f, _ = weyl_raw(m, x)
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


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("tiny", [False, True], ids=["w", "tiny-w"])
def test_node_weights_h0_are_the_weights_bit_for_bit(layout, tiny):
    # At h = 0 the one mass rule steps from each eigenvalue by -tau = 0 and
    # gives t = w_k, so the masses are the weights exactly.
    for seed in range(4):
        m = layout_model(30, layout, tiny, seed)
        assert node_weights(m, 0.0, m.eigenvalues).tobytes() == (
            m.weights.tobytes())


def test_node_weights_rejects_foreign_nodes(m2):
    nodes_h2 = perturbed_spectrum(m2, Coupling.finite(2.0))
    with pytest.raises(InconsistentNodes):
        node_weights(m2, 1.0, nodes_h2)
    # Offset far from 0, a node is known to ~1e-8 but the gaps are ~0.4: a
    # tolerance relative to |x| would take these.
    rng = np.random.default_rng(43)
    m = new_model(np.sort(rng.uniform(-10, 10, 30)) + 1e8,
                  rng.uniform(0.1, 1.0, 30))
    nodes = perturbed_spectrum(m, Coupling.finite(0.55))
    with pytest.raises(InconsistentNodes):
        node_weights(m, 0.37, nodes)
    # The node rule keeps the solve the nodes came from, not the nodes: a
    # node moved after the solve is still checked against its root.
    nodes = perturbed_spectrum(m2, Coupling.finite(1.0))
    nodes[0] += 0.1
    with pytest.raises(InconsistentNodes):
        node_weights(m2, 1.0, nodes)


def test_node_weights_reject_a_partial_node_set_at_every_coupling():
    m = random_model(np.random.default_rng(3), 12)
    for h in (1.3, -0.7, 1e-8, 1e8, 0.0):
        nodes = perturbed_spectrum(m, Coupling.finite(h))
        with pytest.raises(InconsistentNodes):
            node_weights(m, h, np.delete(nodes, [2, 5, 9]))


def test_perturbed_model_with_an_underflowed_mass_is_a_numerical_failure():
    # One exact node mass of this model at h = 1e8 is below the smallest
    # subnormal (see test_sampling): a numerical failure, not bad input.
    m = layout_model(26, "clusters", True, 116987)
    with pytest.raises(NumericalError, match="has no positive mass"):
        perturbed_model(m, 1e8)


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


# At an offset of 2^511 (herglotz._FAR) or more from its origin, every
# other pole of a root is at least as far, so each term of R' squares past
# the doubles and R' reads 0: the masses of [0, 1, 2] with weights
# [.5, .25, .25] summed to 4.0 at h = 1e155 and 2.0 at h = -1e160, a model
# of total 2^928 read 4 times its total at h = 1.3, and one of total 1e150
# at h = 1e5 did too.
FAR_NODES = [([0.5, 0.25, 0.25], 1e155), ([0.5, 0.25, 0.25], -1e160),
             ([2.0 ** 927, 2.0 ** 926, 2.0 ** 926], 1.3),
             ([5e149, 2.5e149, 2.5e149], 1e5)]


@pytest.mark.parametrize("weights, h", FAR_NODES)
def test_a_node_2_to_511_from_its_origin_is_a_numerical_failure(weights, h):
    m = new_model([0.0, 1.0, 2.0], weights)
    nodes = perturbed_spectrum(m, Coupling.finite(h))
    with pytest.raises(NumericalError, match=r"at or past 2\^511"):
        node_weights(m, h, nodes)
    with pytest.raises(NumericalError, match=r"at or past 2\^511"):
        perturbed_model(m, h)
    with pytest.raises(NumericalError, match=r"at or past 2\^511"):
        sample(m, random_state(np.random.default_rng(0), 3), h)


def test_masses_of_a_far_node_below_2_to_511_sum_to_the_total():
    m = new_model([0.0, 1.0, 2.0], [0.5, 0.25, 0.25])
    nodes = perturbed_spectrum(m, Coupling.finite(1e150))
    assert math.fsum(node_weights(m, 1e150, nodes)) == 1.0


def test_node_data_sums_only_the_rows_it_returns(monkeypatch, tmp_path,
                                                 capsys):
    # The masses come from one kernel pass at the roots; the pass at the
    # nodes runs only for image values, which only sample asks for.  A
    # Kramer grid takes the masses alone, once.
    calls = []
    kernel = perturbation.cauchy_rows

    def counted(*args, **kw):
        calls.append(1)
        return kernel(*args, **kw)

    monkeypatch.setattr(perturbation, "cauchy_rows", counted)

    def passes(run):
        calls.clear()
        run()
        return len(calls)

    rng = np.random.default_rng(5)
    m = random_model(rng, 30)
    nodes = perturbed_spectrum(m, Coupling.finite(1.3))
    path = tmp_path / "m.json"
    path.write_text(json.dumps(model_to_dict(m)))
    assert passes(lambda: node_weights(m, 1.3, nodes)) == 1
    assert passes(lambda: perturbed_model(m, 1.3)) == 1
    assert passes(lambda: main(["spectrum", "--model", str(path),
                                "--coupling", "1.3"])) == 1
    assert passes(lambda: sample(m, random_state(rng, 30), 1.3)) == 2
    s = sample(m, random_state(rng, 30), 1.3)
    grid = np.linspace(-1.0, 11.0, 40) + 0.5j
    assert passes(lambda: kramer_reconstruct(m, s, grid)) == 1
    capsys.readouterr()


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


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("tiny", [False, True], ids=["gentle", "tiny"])
def test_compression_oracle_holds_at_an_offset_of_1e8(tiny, seed):
    # eigvalsh of the compression of lam itself erred by 5e-9 to 7e-9 of the
    # scale here, past verify's 1e-9 bound; of lam - c it is exact.
    from specsample.verify import check_compression_zeros

    m = layout_model(40, "offset-1e8", tiny, seed)
    assert check_compression_zeros(m, None).passed


def test_a_secular_residual_past_the_doubles_fails_without_a_warning():
    # The node beside 0 is the smallest subnormal, F there is 9.0e307, and
    # 1 + hF overflows at h = 2.34: it reads inf, not numpy's warning.
    from specsample.verify import check_secular_residuals

    m = new_model([0.0, 1e-29], [1e-20, 9e278])
    result = check_secular_residuals(m, np.random.default_rng([0, 1]))
    assert not result.passed and result.detail == "max=inf"


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
            f, _ = weyl_raw(m, x)
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


def _mp_secular_roots(m, h, which=None, steps=200):
    """Roots of 1 + hF (zeros of F for h=None) by bisection at 40 digits:
    all of them, or those with the indices in which; steps halvings of each
    bracket."""
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
        for lo, hi in (brackets if which is None
                       else [brackets[j] for j in which]):
            for _ in range(steps):
                mid = (lo + hi) / 2
                if s * g(mid) < 0:
                    lo = mid
                else:
                    hi = mid
            roots.append((lo + hi) / 2)
        return roots


# At |h| = 1e9 the exterior root is near 3e9, where one ulp (4.8e-7)
# exceeds 1e-7 times the model scale.
LARGE_H = ([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
# Offset to 1e8, where one ulp is 1.5e-8: at h = -1e-8 the exterior root is
# about 5e-9 below the lowest eigenvalue and rounds to a double next to it.
_offset_rng = np.random.default_rng(44)
OFFSET = (np.sort(_offset_rng.uniform(-10, 10, 20)) + 1e8,
          _offset_rng.uniform(0.1, 1.0, 20))


@pytest.mark.parametrize("data,h", [(SMALL_WEIGHT, 1.0), (SMALL_WEIGHT, None),
                                    (FAR_POLE, -1e-8), (LARGE_H, 1e9),
                                    (LARGE_H, -1e9), (OFFSET, -1e-8)],
                         ids=["small-weight-h1", "small-weight-inf",
                              "far-pole-h-1e-8", "large-h-1e9",
                              "large-h--1e9", "offset-1e8-h-1e-8"])
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
    exact = _mp_secular_roots(m, h)
    for x, root in zip(nodes, exact):
        assert abs(x - float(root)) <= 4 * eps * max(m.scale, abs(x))
    if h is None:
        return
    # Masses 1/(h^2 F'(x)) at the exact roots.  The far-pole root at
    # 1 - 1e-8, the small-weight root that rounds onto its pole and the
    # offset exterior root are each known only to half an ulp, which is
    # 1e-8 or more of their distance to the pole: their masses are taken at
    # the root.
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        masses = [1 / (mp.mpf(h) ** 2 * mp.fsum(
            mp.mpf(float(wj)) / (mp.mpf(float(lj)) - x) ** 2
            for lj, wj in zip(m.eigenvalues, m.weights))) for x in exact]
    got = node_weights(m, h, nodes)
    for g, want in zip(got, masses):
        assert abs(g - float(want)) <= 1e-12 * float(want)


# A weight of 1e-299 on the pole at 0 puts its root within ~1e-299 of it,
# where w_0 / x^2 overflows at the node; a weight of 1e-40 at h = 1e8 leaves
# 1 + h R to cancel at the roots beside it.
@pytest.mark.parametrize("weights,h", [([1e-299, 1.0, 1.0], 1.0),
                                       ([1e-299, 1.0, 1.0], 1e-8),
                                       ([1.0, 1e-40, 1.0], 1e8),
                                       ([1.0, 1e-40, 2.0], 1e8)],
                         ids=["1e-299-h1", "1e-299-h1e-8", "1e-40-h1e8",
                              "1e-40-2-h1e8"])
def test_masses_of_roots_hugging_a_pole_match_the_oracle(weights, h):
    m = new_model([0.0, 1.0, 2.0], weights)
    nodes = perturbed_spectrum(m, Coupling.finite(h))
    if weights[0] == 1e-299:
        assert np.isinf(cauchy_rows(m.eigenvalues, m.weights, nodes, 2)[0])
    got = node_weights(m, h, nodes)
    assert np.all(got > 0.0)
    np.testing.assert_allclose(got, mp_root_masses(m, h, nodes),
                               rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("n", [50, 200])
@pytest.mark.parametrize("h", [1.3, -0.7])
def test_masses_of_random_models_match_the_oracle(n, h):
    rng = np.random.default_rng(n)
    m = new_model(np.sort(rng.uniform(-10, 10, n)), rng.uniform(0.1, 1, n))
    nodes = perturbed_spectrum(m, Coupling.finite(h))
    np.testing.assert_allclose(node_weights(m, h, nodes),
                               mp_root_masses(m, h, nodes),
                               rtol=1e-14, atol=0.0)


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


def _bisection_roots(m, a, b):
    """The solver this one replaced, kept as its reference: |tau| bisected
    on its bit pattern down to two adjacent doubles, the end with the
    smaller |a + b F| returned.  Roots the solver returns must equal these
    bit for bit, or lie no farther from the exact root."""
    lam, w = m.eigenvalues, m.weights
    buf = np.empty((m.dim, m.dim))

    def g(shift, tau):
        d = np.subtract(shift, tau[:, None], out=buf[:tau.size])
        return a + b * np.sum(np.divide(w, d, out=d), axis=1)

    lower = np.arange(m.dim - 1)
    half = 0.5 * lam[1:] - 0.5 * lam[:-1]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        right = g(lam - lam[lower, None], half) * np.sign(b) < 0.0
        origin = np.where(right, lower + 1, lower)
        far = np.where(right, -half, half)
        if a != 0.0:
            at = origin.size if b > 0.0 else 0
            origin = np.insert(origin, at, m.dim - 1 if b > 0.0 else 0)
            far = np.insert(far, at, b * m.mu_norm_sq)
        pole_sign = -np.sign(b) * np.sign(far)
        shift = lam - lam[origin, None]

        def offset(bits):
            return np.copysign(bits.view(np.float64), far)

        lo = np.zeros(origin.size, dtype=np.int64)
        hi = np.abs(far).view(np.int64)
        while np.any(hi - lo > 1):
            mid = lo + (hi - lo) // 2
            up = (mid == lo) | (g(shift, offset(mid)) * pole_sign > 0.0)
            lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
        nearer = np.abs(g(shift, offset(lo))) < np.abs(g(shift, offset(hi)))
    return np.where(nearer, lam[origin] + offset(lo), lam[origin] + offset(hi))


def _reference_models():
    rng = np.random.default_rng(71)
    models = {f"random-{n}": new_model(np.sort(rng.uniform(-10, 10, n)),
                                       rng.uniform(0.1, 1.0, n))
              for n in (2, 3, 50, 200)}
    hard = _hard_models()
    models.update({"small-weight": hard[0], "far-pole": hard[1],
                   "offset-1e8": hard[3], "tiny-weights": hard[4],
                   "clustered": hard[5], "spread-1e12": hard[6]})
    # Weights spread over 40 decades: a + b F is lost in rounding over up
    # to ~100 ulps of tau around some roots, where steps of one ulp would
    # creep (53 to 75 evaluations per root).
    rng = np.random.default_rng(1)
    models["weights-1e40"] = new_model(np.sort(rng.uniform(-10, 10, 120)),
                                       10.0 ** rng.uniform(-20, 20, 120))
    return models


_REFERENCE_MODELS = _reference_models()


@pytest.mark.parametrize("name", sorted(_REFERENCE_MODELS))
@pytest.mark.parametrize("h", [1.3, -1.3, 1e-8, -1e-8, 1e8, -1e8, None])
def test_roots_equal_the_bit_bisection(name, h):
    _check_against_bisection(_REFERENCE_MODELS[name], h)


@pytest.mark.parametrize("seed,h", [(0, -3.0), (0, 3.0), (0, -2.0),
                                    (1, 2.0), (2, -2.0)])
def test_exterior_root_where_newton_on_v_points_away(seed, h):
    # Normalized weights: between the edge eigenvalue and the exterior root
    # v' <= 0 at these couplings, so Newton on v pointed away from the root
    # and the bracket crept to it in 74 to 80 evaluations.
    _check_against_bisection(random_model(np.random.default_rng(seed), 200),
                             h)


def _check_against_bisection(m, h):
    a, b = (0.0, 1.0) if h is None else (1.0, h)
    got, _, _, steps = _secular_roots(m, a, b)
    want = _bisection_roots(m, a, b)
    # 65 + _FREE_STEPS bounds every root; these take far fewer.
    assert steps.min() >= 1 and steps.max() <= 24
    differ = np.flatnonzero(got != want)
    if differ.size:
        exact = _mp_secular_roots(m, h, which=differ.tolist())
        for j, root in zip(differ, exact):
            assert abs(got[j] - root) <= abs(want[j] - root)


@pytest.mark.parametrize("name", ["random-3", "random-50", "clustered",
                                  "tiny-weights", "offset-1e8"])
@pytest.mark.parametrize("h", [1.3, -1e-8, 1e8, None])
def test_roots_in_blocks_equal_the_unblocked_roots(monkeypatch, name, h):
    # A block bound of two rows splits every solve into several blocks:
    # roots, origins, offsets and evaluation counts keep their bits, and
    # the roots match the bit bisection.
    m = _REFERENCE_MODELS[name]
    a, b = (0.0, 1.0) if h is None else (1.0, h)
    want = _secular_roots(m, a, b)
    monkeypatch.setattr(perturbation, "_BLOCK_TERMS", 2 * m.dim)
    got = _secular_roots(m, a, b)
    assert [v.tobytes() for v in got] == [v.tobytes() for v in want]
    _check_against_bisection(m, h)


@pytest.mark.parametrize("h", [1.3, -0.7, None])
def test_most_roots_take_a_few_evaluations(h):
    rng = np.random.default_rng(73)
    m = new_model(np.sort(rng.uniform(-10, 10, 200)),
                  rng.uniform(0.1, 1.0, 200))
    *_, steps = _secular_roots(m, *((0.0, 1.0) if h is None else (1.0, h)))
    assert np.median(steps) <= 8


@pytest.mark.parametrize("h", [5e-324, -5e-324, 1e-320, 2.5e-310])
def test_root_next_to_a_pole_at_zero_matches_the_oracle(h):
    # The root sits within about h of the eigenvalue at 0, where w / tau
    # overflows though 1 + h F is of order one.
    # The lowest root is that one: in the first gap for h > 0, below the
    # spectrum for h < 0.
    m = new_model(*FAR_POLE)
    nodes = perturbed_spectrum(m, Coupling.finite(h))
    exact = _mp_secular_roots(m, h, which=[0], steps=1200)[0]
    assert nodes[0] == float(exact)
