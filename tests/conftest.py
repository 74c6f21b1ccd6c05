import numpy as np
import pytest

from specsample import SpectralModel, StateVector, new_model


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
    """n eigenvalues U(-10, 10) arranged by layout (one of LAYOUTS, or
    "clusters-offset-1e8", where the cluster gaps are a few ulps), with
    weights U(0.1, 1), or 10^U(-299, 0) if tiny, from numpy seed seed.
    Eigenvalues offset to 1e8 that round to one double are kept once, so
    there may be fewer than n."""
    rng = np.random.default_rng(seed)
    lam = np.sort(rng.uniform(-10, 10, n))
    if layout == "pole-at-0":
        lam -= lam[n // 2]
    elif layout.startswith("clusters"):
        lam = np.sort(np.round(lam / 4) * 4 + rng.uniform(0, 1e-6, n))
    if layout.endswith("offset-1e8"):
        lam = np.unique(lam + 1e8)
    elif layout == "spread-1e12":
        lam = np.sort(np.concatenate([rng.uniform(0, 1, n // 2),
                                      rng.uniform(2, 1e12, n - n // 2)]))
    w = (10.0 ** rng.uniform(-299, 0, lam.size) if tiny
         else rng.uniform(0.1, 1, lam.size))
    return new_model(lam, w)


def weyl_raw(m: SpectralModel, x) -> tuple[complex, complex]:
    """F and F' at x as weyl sums them, without its pole guard."""
    # Private names, imported here: tools/bitsweep.py loads this module
    # against the source tree it sweeps, which may lack them.
    from specsample.herglotz import _slopes, _sums

    d = m.eigenvalues - x
    return tuple(_sums([m.weights / d, _slopes(m.weights, d)]))


def random_state(rng: np.random.Generator, n: int) -> StateVector:
    return StateVector(rng.normal(size=n) + 1j * rng.normal(size=n))


def _mp_roots(m: SpectralModel, a, b, nodes) -> list:
    """For the roots of a + b F given in full as nodes, in order, each one's
    gap end lam_k nearer the node, and the exact root in that gap as its
    offset tau from lam_k with R' there, at 60 digits (mpmath numbers; use
    them inside mpmath.workdps(60)).  Root i lies above lam_i, or below it
    at b < 0 and a != 0, and the exterior root within |b| ||mu||^2 of its
    edge.  Newton steps on the pole-free (a + b R) tau - b w_k (R, R' the
    sums of F, F' over the other poles) start from the node, and a step
    that leaves the gap is halved back into it (from lam_k, to half the
    gap); they run until a step is below 1e-30 of the root, which leaves it
    good to about 60 digits."""
    mp = pytest.importorskip("mpmath")
    lam = m.eigenvalues
    n = lam.size
    out = []
    with mp.workdps(60):
        lm = [mp.mpf(float(v)) for v in lam]
        wm = [mp.mpf(float(v)) for v in m.weights]
        am, bm, tol = mp.mpf(a), mp.mpf(b), mp.mpf(1e-30)
        edge = 2 * abs(bm) * mp.fsum(wm)
        for i, x in enumerate(nodes):
            lo = i - (a != 0 and b < 0)
            if lo < 0 or lo + 1 < n and (abs(x - lam[lo + 1])
                                         < abs(x - lam[lo])):
                k = lo + 1
                other = lm[lo] - lm[k] if lo >= 0 else -edge
            else:
                k = lo
                other = lm[k + 1] - lm[k] if k + 1 < n else edge
            others = [(lj - lm[k], wj) for j, (lj, wj) in enumerate(zip(lm, wm))
                      if j != k]
            tau = mp.mpf(float(x)) - lm[k]
            if not 0 <= tau / other < 1:
                tau = other / 2
            for _ in range(200):
                inv = [1 / (d - tau) for d, _ in others]
                q = [wj * v for (_, wj), v in zip(others, inv)]
                r = mp.fsum(q)
                rp = mp.fsum(qj * v for qj, v in zip(q, inv))
                new = bm * (wm[k] + rp * tau ** 2) / (am + bm * r
                                                      + bm * rp * tau)
                if not 0 < new / other < 1:
                    new = tau / 2 if new / other <= 0 and tau else (
                        (tau + other) / 2)
                done = abs(new - tau) <= tol * abs(new)
                tau = new
                if done:
                    break
            else:
                raise AssertionError(f"the oracle did not converge at {x!r}")
            out.append((k, tau, rp))
    return out


def mp_root_masses(m: SpectralModel, h: float, nodes) -> np.ndarray:
    """The masses 1/(h^2 F') at the exact secular roots next to the nodes,
    at 60 digits: tau^2 / (h^2 (w_k + tau^2 R')) at the roots of
    _mp_roots."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        hm = mp.mpf(h)
        return np.array([
            float(tau ** 2 / (hm ** 2 * (mp.mpf(float(m.weights[k]))
                                         + tau ** 2 * rp)))
            for k, tau, rp in _mp_roots(m, 1, h, nodes)])


def mp_residues(m: SpectralModel, poles, phi: StateVector) -> np.ndarray:
    """The residues N/F' of the image of phi at the exact zeros of F next
    to the poles, at 60 digits, N(x) = sum sqrt(w_j) phi_j/(lam_j - x) and
    F' = w_k/tau^2 + R' at the roots of _mp_roots."""
    mp = pytest.importorskip("mpmath")
    out = []
    with mp.workdps(60):
        lm = [mp.mpf(float(v)) for v in m.eigenvalues]
        wm = [mp.mpf(float(v)) for v in m.weights]
        num = [mp.sqrt(wj) * mp.mpc(complex(c))
               for wj, c in zip(wm, phi.coords)]
        for k, tau, rp in _mp_roots(m, 0, 1, poles):
            n = mp.fsum(c / ((lj - lm[k]) - tau)
                        for j, (c, lj) in enumerate(zip(num, lm))
                        if j != k) - num[k] / tau
            out.append(complex(n / (wm[k] / tau ** 2 + rp)))
    return np.array(out)
