"""Property tests over the hard regimes, with a fixed example sequence
(derandomize) so the suite stays deterministic."""
import numpy as np
import pytest

from specsample import (
    JacobiParams,
    NumericalError,
    sturm_count,
    truncate,
    weyl,
    weyl_approx,
)

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
