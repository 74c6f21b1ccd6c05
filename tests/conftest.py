import numpy as np
import pytest

from specsample import SpectralModel, StateVector, new_model
from specsample.herglotz import _csum, _derivative


@pytest.fixture
def m2() -> SpectralModel:
    """Symmetric two-level reference model."""
    return new_model([0.0, 2.0], [0.5, 0.5])


def random_model(rng: np.random.Generator, n: int, spread: float = 10.0,
                 normalized: bool = True) -> SpectralModel:
    """Random model with gaps bounded away from zero and moderate weights."""
    gaps = 0.2 + rng.random(n - 1)
    lam = np.concatenate([[0.0], np.cumsum(gaps)])
    lam = lam / lam[-1] * spread + rng.uniform(-1, 1)
    w = 0.2 + rng.random(n)
    if normalized:
        w = w / w.sum()
    return new_model(lam, w)


# The hard regimes of the property tests: an eigenvalue at 0, clusters
# 1e-6 wide, an offset of 1e8, a spread of 1e12.
LAYOUTS = ["random", "pole-at-0", "clusters", "offset-1e8", "spread-1e12"]


def layout_model(n: int, layout: str, tiny: bool, seed: int) -> SpectralModel:
    """n eigenvalues U(-10, 10) arranged by layout (one of LAYOUTS), with
    weights U(0.1, 1), or 10^U(-299, 0) if tiny, from numpy seed seed."""
    rng = np.random.default_rng(seed)
    lam = np.sort(rng.uniform(-10, 10, n))
    if layout == "pole-at-0":
        lam -= lam[n // 2]
    elif layout == "clusters":
        lam = np.sort(np.round(lam / 4) * 4 + rng.uniform(0, 1e-6, n))
    elif layout == "offset-1e8":
        lam += 1e8
    elif layout == "spread-1e12":
        lam = np.sort(np.concatenate([rng.uniform(0, 1, n // 2),
                                      rng.uniform(2, 1e12, n - n // 2)]))
    w = 10.0 ** rng.uniform(-299, 0, n) if tiny else rng.uniform(0.1, 1, n)
    return new_model(lam, w)


def weyl_raw(m: SpectralModel, x) -> tuple[complex, complex]:
    """F and F' at x as weyl sums them, without its pole guard."""
    d = m.eigenvalues - x
    return _csum(m.weights / d), _derivative(m.weights, d)


def random_state(rng: np.random.Generator, n: int) -> StateVector:
    return StateVector(rng.normal(size=n) + 1j * rng.normal(size=n))


def mp_root_masses(m: SpectralModel, h: float, nodes) -> np.ndarray:
    """The masses 1/(h^2 F') at the exact secular roots next to the nodes,
    at 60 digits.  From each node's offset tau from its nearest eigenvalue
    lam_k, Newton steps on the pole-free (1 + h R) tau - h w_k (R, R' the
    sums of F, F' over the other poles) until a step is below 1e-30 of the
    root, which leaves it good to about 60 digits; the mass is
    tau^2 / (h^2 (w_k + tau^2 R')), with R' from the last step."""
    mp = pytest.importorskip("mpmath")
    lam = m.eigenvalues
    out = []
    with mp.workdps(60):
        lm = [mp.mpf(float(v)) for v in lam]
        wm = [mp.mpf(float(v)) for v in m.weights]
        hm, tol = mp.mpf(h), mp.mpf(1e-30)
        for x in nodes:
            k = int(np.argmin(np.abs(lam - x)))
            others = [(lj - lm[k], wj) for j, (lj, wj) in enumerate(zip(lm, wm))
                      if j != k]
            tau = mp.mpf(float(x)) - lm[k]
            for _ in range(20):
                inv = [1 / (d - tau) for d, _ in others]
                q = [wj * v for (_, wj), v in zip(others, inv)]
                r = mp.fsum(q)
                rp = mp.fsum(a * v for a, v in zip(q, inv))
                new = hm * (wm[k] + rp * tau ** 2) / (1 + hm * r
                                                      + hm * rp * tau)
                done = abs(new - tau) <= tol * abs(new)
                tau = new
                if done:
                    break
            else:
                raise AssertionError(f"the oracle did not converge at {x!r}")
            out.append(float(tau ** 2 / (hm ** 2 * (wm[k] + tau ** 2 * rp))))
    return np.array(out)
