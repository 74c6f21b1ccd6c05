"""Property tests over the hard regimes, with a fixed example sequence
(derandomize) so the suite stays deterministic."""
import math

import numpy as np
import pytest

from specsample import (
    Coupling,
    JacobiParams,
    NumericalError,
    node_weights,
    perturbed_spectrum,
    sturm_count,
    truncate,
    weyl,
    weyl_approx,
)

from conftest import LAYOUTS, layout_model, mp_root_masses

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


@hypothesis.settings(derandomize=True, max_examples=25, deadline=None)
@hypothesis.given(n=st.integers(2, 200), spread=st.floats(0.0, 1e3),
                  ramp=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_jacobi_truncation_is_exact_or_refused(n, spread, ramp, seed):
    # Diagonal spreads up to 1e3 b; the weights either sum to one, with
    # nodes that the Sturm counts separate and the paper's identity
    # F = -Q_n/P_n, or fall below the model floor and are refused.
    rng = np.random.default_rng(seed)
    b = rng.uniform(0.5, 1.0, size=n - 1)
    q = spread * (np.linspace(-0.5, 0.5, n) if ramp
                  else rng.uniform(-0.5, 0.5, size=n))
    params = JacobiParams(q=q, b=b)
    try:
        m = truncate(params, n)
    except NumericalError as exc:
        assert "floor 1e-300" in str(exc)
        return
    assert m.mu_norm_sq == pytest.approx(1.0, abs=1e-13)
    lam = m.eigenvalues
    cuts = np.concatenate([[lam[0] - 1.0], 0.5 * (lam[:-1] + lam[1:]),
                           [lam[-1] + 1.0]])
    assert [sturm_count(params, n, t) for t in cuts] == list(range(n + 1))
    z = 0.5 + 1j
    try:
        want = weyl_approx(params, z, n)
    except NumericalError:
        return
    assert abs(weyl(m, z)[0] - want) <= 1e-13 * abs(want)


@hypothesis.settings(derandomize=True, max_examples=40, deadline=None)
@hypothesis.given(n=st.integers(2, 30),
                  layout=st.sampled_from(LAYOUTS + ["clusters-offset-1e8"]),
                  tiny=st.booleans(), log_h=st.floats(-8.0, 8.0),
                  sign=st.sampled_from([1.0, -1.0]),
                  seed=st.integers(0, 2**32 - 1))
# Roots next to the pole at 0, 1e-157 and 6.7e-154 away, where F' at the
# node is inexact or 1.4e156 against R' = 2e-10: their masses need R' summed
# without the pole's term.
@hypothesis.example(n=19, layout="pole-at-0", tiny=True, log_h=0.0,
                    sign=-1.0, seed=129)
@hypothesis.example(n=23, layout="pole-at-0", tiny=True, log_h=-2.984375,
                    sign=1.0, seed=23)
def test_node_masses_are_the_root_masses(n, layout, tiny, log_h, sign, seed):
    # The aim-3 regimes, one eigenvalue layout at a time: an eigenvalue at
    # 0, clusters 1e-6 wide, an offset of 1e8, a spread of 1e12, clusters
    # offset to 1e8, where a root's offset from its pole is a few ulps of
    # the node and only the solver's offset locates the root; weights
    # U(0.1, 1) or 10^U(-299, 0); |h| from 1e-8 to 1e8.  The masses sum to
    # ||mu||^2 and match the 60-digit root masses; a mass below the
    # smallest normal double can only be matched to that double.
    m = layout_model(n, layout, tiny, seed)
    h = sign * 10.0 ** log_h
    nodes = perturbed_spectrum(m, Coupling.finite(h))
    masses = node_weights(m, h, nodes)
    assert np.all(np.isfinite(masses)) and np.all(masses >= 0.0)
    assert abs(math.fsum(masses) - m.mu_norm_sq) <= 1e-13 * m.mu_norm_sq
    np.testing.assert_allclose(masses, mp_root_masses(m, h, nodes),
                               rtol=1e-13, atol=np.finfo(float).tiny)
