"""The known defects (ROADMAP "Known defects"), one test each.

Each test asserts the right behaviour and is marked
xfail(strict=True, raises=...) with the failure it meets today, so every
run proves that the defect is still there, and a change that mends one
sees its test pass, which strict xfail reports as a failure: that change
removes the marker and the ROADMAP entry together.  No other test file
may carry an xfail marker (the CI checks this), so no existing check can
be loosened by one.
"""
import numpy as np
import pytest

from specsample import (
    Coupling,
    NumericalError,
    PoleProximity,
    StateVector,
    evaluate_rep,
    kramer_reconstruct,
    new_model,
    node_weights,
    normalize,
    perturbed_spectrum,
    reconstruct,
    sample,
    to_partial_fractions,
    transform,
    weyl,
    weyl_h,
)
from specsample.verify import run_verification

from conftest import LAYOUTS, layout_model, random_state
from test_sampling import _mp_transform


def _defect(reason: str, raises: type[Exception]):
    return pytest.mark.xfail(strict=True, raises=raises, reason=reason)


def _failing(results) -> list[tuple[str, str]]:
    return [(r.name, r.detail) for r in results if not r.passed]


@_defect("secular-residuals and unitarity fail at N = 200", AssertionError)
def test_verify_passes_on_a_random_model():
    rng = np.random.default_rng(0)
    m = new_model(np.sort(rng.uniform(-10, 10, 200)),
                  rng.uniform(0.1, 1, 200))
    assert _failing(run_verification(m, 0)) == []


# Every layout but pole-at-0 fails some checks; with tiny weights the zeros
# of F round onto eigenvalues, which from_partial_fractions refuses.
@pytest.mark.parametrize("layout, tiny", [
    pytest.param(layout, tiny, marks=_defect(
        "a zero of F rounds onto an eigenvalue" if tiny
        else "the nodes' values are taken at the rounded roots",
        NumericalError if tiny else AssertionError))
    for layout in LAYOUTS for tiny in (False, True)
    if (layout, tiny) != ("pole-at-0", False)])
def test_verify_passes_on_each_layout(layout, tiny):
    assert _failing(run_verification(layout_model(40, layout, tiny, 3),
                                     0)) == []


@_defect("the exclusion radius scales with the nodes' spread at large h",
         PoleProximity)
def test_reconstruct_at_a_large_coupling_is_not_refused():
    # The point is 1.16 from its nearest node; the radius is 23.7.
    m = layout_model(40, "random", False, 3)
    phi = random_state(np.random.default_rng(3), 40)
    z = 5.68 + 1.13j
    value = reconstruct(sample(m, phi, 1e8), z)
    want = transform(m, phi, z)
    assert np.isfinite(value) and abs(value - want) <= 1e-4 * abs(want)


@pytest.mark.parametrize("lam, w, h", [
    pytest.param([0.0, 1e-200, 1.0], [1.0] * 3, 1.3, marks=_defect(
        "R' overflows where two eigenvalues nearly coincide",
        NumericalError), id="near-coincident"),
    pytest.param([0.0, 1.0, 2.0], [0.5, 0.25, 0.25], 1e155, marks=_defect(
        "the node rule refuses roots 2^511 or more from their origin",
        NumericalError), id="far-root"),
    pytest.param([0.0, 1.0, 2.0], [2.0 ** -60] * 3, 2.0 ** 560, marks=_defect(
        "the terms of R' are subnormal (1.63e-4 off)", AssertionError),
        id="subnormal"),
])
def test_node_masses_sum_to_the_total(lam, w, h):
    m = new_model(lam, w)
    nodes = perturbed_spectrum(m, Coupling.finite(h))
    total = node_weights(m, h, nodes).sum()
    assert abs(total / m.mu_norm_sq - 1.0) <= 1e-14


@_defect("R' overflows where two eigenvalues nearly coincide: the root "
         "next to 1e-310 is 5.56e-309", AssertionError)
def test_root_next_to_a_subnormal_eigenvalue():
    # At h = 5e-324 the root above 1e-310 lies 4.94e-324 above it: the
    # 80-digit root, by bisection on the sign of 1 + hF.
    mp = pytest.importorskip("mpmath")
    lam = [0.0, 1e-310, 1.0]
    x = perturbed_spectrum(new_model(lam, [1.0] * 3), Coupling.finite(5e-324))
    with mp.workdps(80):
        h, poles = mp.mpf(5e-324), [mp.mpf(v) for v in lam]
        a, b = poles[1], poles[1] + mp.mpf(2e-323)
        for _ in range(300):
            c = (a + b) / 2
            if 1 + h * sum(1 / (p - c) for p in poles) < 0:
                a = c
            else:
                b = c
        root = float(a)
    assert abs(x[1] - root) <= 1e-12 * root, (x[1], root)


@_defect("F(z)^2 underflows, although -F'/F^2 is about -1.7e299",
         NumericalError)
def test_weyl_h_where_f_squared_underflows():
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        d = [mp.mpf(v) - mp.mpf(1e8) for v in (0, 1, 2)]
        f = sum(mp.mpf(2e-300) / v for v in d)
        want = float(-sum(mp.mpf(2e-300) / v ** 2 for v in d) / f ** 2)
    got = weyl_h(new_model([0.0, 1.0, 2.0], [2e-300] * 3), 1.3, 1e8)[2]
    assert abs(got - want) <= 1e-14 * abs(want)


@_defect("d^2 takes inf - inf at a huge |z|", AssertionError)
def test_weyl_derivative_at_a_huge_point_is_finite():
    m = new_model([0.0, 1.0, 2.0], [0.3, 0.3, 0.4])
    assert np.isfinite(weyl(m, 1e200 * (1 + 1j))[1])


@_defect("N/F at the rounded node takes F's cancellation (4.204e201i)",
         AssertionError)
def test_sample_next_to_a_huge_cancellation():
    # The node is -4.49975646e-25; the 80-digit value is -2.22234e16 i.
    m = new_model([-2.0, 0.0, 1.891703202184998e169],
                  [4.444684991391323e24, 1.0, 1e-8])
    s = sample(m, StateVector([1j, 1j, 1j]), 1e-8)
    assert abs(s.nodes[0] / -4.49975646e-25 - 1.0) < 1e-8
    assert abs(s.values[0] / -2.22234e16j - 1.0) <= 1e-5


@_defect("evaluate_rep sums at the rounded poles (4.0e-10 off)",
         AssertionError)
def test_evaluate_rep_on_clusters_offset_to_1e8():
    m = normalize(layout_model(20, "clusters-offset-1e8", False, 5))
    phi = random_state(np.random.default_rng(5), 20)
    rep = to_partial_fractions(m, phi)
    rng, lam = np.random.default_rng(6), m.eigenvalues
    points = (rng.uniform(lam[0], lam[-1], 10)
              + 1j * (lam[-1] - lam[0]) * rng.uniform(0.3, 3, 10))
    for z in points:
        want = transform(m, phi, z)
        assert abs(evaluate_rep(rep, z) - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize("layout, seed", [("offset-1e8", 4),
                                          ("clusters-offset-1e8", 1)])
@_defect("Kramer sees a node's rounding where Lagrange does not",
         AssertionError)
def test_kramer_is_as_accurate_as_lagrange_with_tiny_weights(layout, seed):
    # test_sampling.test_kramer_is_as_accurate_as_lagrange's bound at one
    # seed: 3.2e-9 and 1.2e-9 today.
    m = layout_model(40, layout, True, seed)
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
    assert kramer <= max(4.0 * lagrange, 1e-14), (kramer, lagrange)
