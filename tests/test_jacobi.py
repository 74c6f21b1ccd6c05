import tracemalloc

import numpy as np
import pytest

from specsample import (
    InsufficientCoefficients,
    JacobiParams,
    NumericalError,
    PoleProximity,
    QZero,
    StateVector,
    ValidationError,
    jm_reconstruct,
    polys,
    reconstruct,
    sample,
    sturm_count,
    transform,
    truncate,
    weyl,
    weyl_approx,
)
from specsample import jacobi

from conftest import random_state


def _rand_params(rng, n):
    return JacobiParams(q=rng.uniform(-2, 2, size=n),
                        b=rng.uniform(0.5, 2.0, size=n - 1))


def _tridiag(params, n):
    t = np.diag(params.q[:n])
    off = params.b[: n - 1]
    return t + np.diag(off, 1) + np.diag(off, -1)


def test_params_validation():
    with pytest.raises(ValidationError):
        JacobiParams(q=[1.0, 2.0], b=[0.0])
    with pytest.raises(ValidationError):
        JacobiParams(q=[[1.0]], b=[1.0])
    with pytest.raises(InsufficientCoefficients):
        polys(JacobiParams(q=[1.0], b=[]), 0.0, 2)


def test_polys_low_degree():
    params = JacobiParams(q=[1.0, 2.0], b=[1.0])
    ev = polys(params, 0.0, 2)
    assert ev.P[0] == 1.0
    assert ev.P[1] == pytest.approx(-1.0)   # (z - 1)/1 at z=0
    assert ev.P[2] == pytest.approx(1.0)    # ((z-2)P1 - P0)/b2 at z=0
    assert ev.Q[1] == pytest.approx(1.0)
    assert ev.Q[2] == pytest.approx(-2.0)


def test_first_kind_vanishes_on_truncation_spectrum():
    rng = np.random.default_rng(113)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        params = _rand_params(rng, n)
        lam = np.linalg.eigvalsh(_tridiag(params, n))
        for x in lam:
            ev = polys(params, x, n)
            # P_n has leading coefficient 1/prod(b); normalize the residual
            assert abs(ev.P[n]) <= 1e-8 * np.abs(ev.P[:n]).max()


def test_derivative_recurrence_matches_finite_difference():
    rng = np.random.default_rng(127)
    params = _rand_params(rng, 8)
    z = 0.37 + 0.21j
    eps = 1e-6
    ev = polys(params, z, 8)
    plus = polys(params, z + eps, 8)
    minus = polys(params, z - eps, 8)
    np.testing.assert_allclose(ev.P_prime, (plus.P - minus.P) / (2 * eps),
                               rtol=1e-7, atol=1e-7)
    np.testing.assert_allclose(ev.Q_prime, (plus.Q - minus.Q) / (2 * eps),
                               rtol=1e-7, atol=1e-7)


def test_sturm_count():
    params = JacobiParams(q=[1.0, 2.0], b=[1.0])
    lam = np.linalg.eigvalsh(_tridiag(params, 2))
    assert sturm_count(params, 2, lam[0] - 0.1) == 0
    assert sturm_count(params, 2, 0.5 * (lam[0] + lam[1])) == 1
    assert sturm_count(params, 2, lam[1] + 0.1) == 2


def test_truncate_against_dense_eigensolve():
    rng = np.random.default_rng(131)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        params = _rand_params(rng, n)
        m = truncate(params, n)
        t = _tridiag(params, n)
        lam, vec = np.linalg.eigh(t)
        np.testing.assert_allclose(m.eigenvalues, lam, atol=1e-10)
        np.testing.assert_allclose(m.weights, vec[0] ** 2, atol=1e-10)
        assert m.mu_norm_sq == pytest.approx(1.0, abs=1e-12)


def test_weyl_approx_hand_case():
    params = JacobiParams(q=[1.0, 2.0], b=[1.0])
    assert weyl_approx(params, 0.0, 2) == pytest.approx(2.0, abs=1e-14)


def test_weyl_approx_matches_truncated_model():
    rng = np.random.default_rng(137)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        params = _rand_params(rng, n)
        m = truncate(params, n)
        z = complex(rng.uniform(-4, 4), rng.uniform(0.3, 2))
        f, _ = weyl(m, z)
        assert weyl_approx(params, z, n) == pytest.approx(f, rel=1e-9)


def test_weyl_approx_pole_guard():
    params = JacobiParams(q=[1.0, 2.0], b=[1.0])
    lam = np.linalg.eigvalsh(_tridiag(params, 2))
    with pytest.raises(PoleProximity):
        weyl_approx(params, complex(lam[0]), 2)


def test_jm_reconstruct_exact_at_full_degree():
    rng = np.random.default_rng(139)
    for _ in range(10):
        n = int(rng.integers(3, 9))
        params = _rand_params(rng, n)
        m = truncate(params, n)
        phi = random_state(rng, n)
        h = rng.uniform(0.5, 2.0)
        s = sample(m, phi, h)
        for _ in range(4):
            z = complex(rng.uniform(-4, 4), rng.uniform(0.5, 2))
            direct = transform(m, phi, z)
            got = jm_reconstruct(params, n, s, z)
            assert abs(got - direct) <= 1e-8 * max(1.0, abs(direct))


def test_jm_reconstruct_truncation_converges():
    # small version of the convergence study; full sweep lives in acceptance
    params = JacobiParams(q=np.arange(1.0, 13.0), b=np.ones(11))
    n_full = 10
    m = truncate(params, n_full)
    coords = np.zeros(n_full, dtype=complex)
    for c, x in zip([1.0, -2.0, 1.0], m.eigenvalues[:3]):
        coords += c * m.sqrt_weights / (m.eigenvalues - x + 0.5)
    phi = StateVector(coords)
    s = sample(m, phi, 1.5)
    z = 5.0 + 2.0j
    exact = transform(m, phi, z)
    errs = [abs(jm_reconstruct(params, n, s, z) - exact)
            for n in (4, 6, 8, 10)]
    assert errs[-1] <= 1e-8
    assert errs[0] > errs[-1]


def _wide(kind, n):
    """Jacobi parameters with b = 1 and a diagonal spread well past 2b."""
    if kind == "ramp":
        q = np.arange(n, dtype=float)
    elif kind == "ramp0.3":
        q = 0.3 * np.arange(n)
    elif kind == "free":
        q = np.zeros(n)
    else:
        q = np.random.default_rng(n).uniform(-n, n, size=n)
    return JacobiParams(q=q, b=np.ones(n - 1))


@pytest.mark.parametrize("n", [20, 30, 45, 60])
@pytest.mark.parametrize("kind", ["ramp", "ramp0.3", "uniform"])
def test_truncation_borel_transform_is_the_rational_approximant(kind, n):
    params = _wide(kind, n)
    m = truncate(params, n)
    z = 0.5 + 1j
    want = weyl_approx(params, z, n)
    assert abs(weyl(m, z)[0] - want) <= 1e-13 * abs(want)
    assert m.mu_norm_sq == pytest.approx(1.0, abs=1e-13)
    lam = m.eigenvalues
    cuts = np.concatenate([[lam[0] - 1.0], 0.5 * (lam[:-1] + lam[1:]),
                           [lam[-1] + 1.0]])
    assert [sturm_count(params, n, t) for t in cuts] == list(range(n + 1))


def _mp_truncation(params, n):
    """Eigenvalues and weights at 80 digits: the implicit-QL stage of
    mpmath.eigsy, run on the tridiagonal itself with only the first row of
    the eigenvector matrix accumulated."""
    mp = pytest.importorskip("mpmath")
    from mpmath.matrices.eigen_symmetric import tridiag_eigen

    with mp.workdps(80):
        d = [mp.mpf(float(v)) for v in params.q[:n]]
        e = [mp.mpf(float(v)) for v in params.b[: n - 1]] + [mp.mpf(0)]
        first = mp.matrix(1, n)
        first[0, 0] = 1
        tridiag_eigen(mp.mp, d, e, first)
        return d, [first[0, j] ** 2 for j in range(n)]


def _sturm_newton_nodes(params, n):
    """The former node rule: Sturm bisection to 1e-13 of the spread, then
    at most four Newton steps on P_n kept inside the bracket."""
    q, b = params.q[:n], params.b[: n - 1]
    lo = float(q.min() - 2.0 * b.max())
    hi = float(q.max() + 2.0 * b.max())
    tol = 1e-13 * max(1.0, hi - lo)
    lam = np.empty(n)
    for j in range(n):
        a, c = lo, hi
        while c - a > tol and a < 0.5 * (a + c) < c:
            mid = 0.5 * (a + c)
            if sturm_count(params, n, mid) <= j:
                a = mid
            else:
                c = mid
        x = 0.5 * (a + c)
        for _ in range(4):
            ev = polys(params, x, n)
            p, dp = ev.P[n].real, ev.P_prime[n].real
            if dp == 0.0 or not a <= x - p / dp <= c or p == 0.0:
                break
            x -= p / dp
        lam[j] = x
    return lam


@pytest.mark.parametrize("kind, n", [("ramp", 30), ("ramp", 60),
                                     ("ramp0.3", 30), ("uniform", 50),
                                     ("free", 40)])
def test_truncate_against_80_digit_eigensolver(kind, n):
    params = _wide(kind, n)
    m = truncate(params, n)
    lam, w = _mp_truncation(params, n)
    rel = [abs(got / float(want) - 1.0) for got, want in zip(m.weights, w)]
    assert max(rel) <= 1e-11
    ref = np.array([float(x) for x in lam])
    old = np.abs(_sturm_newton_nodes(params, n) - ref).max()
    assert np.abs(m.eigenvalues - ref).max() <= old + np.spacing(
        np.abs(ref).max())


def _traced(call):
    """call()'s result and the peak of the memory it traced."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind, n, width", [("free", 30, 2), ("uniform", 60, 7),
                                            ("random", 45, 4),
                                            ("random", 300, 13),
                                            ("free", 300, 16)])
def test_truncate_in_blocks_equals_the_one_block_truncation(monkeypatch,
                                                            kind, n, width):
    # Each _twisted pass runs over blocks of `width` columns of lam; at
    # n = 45 with 4 columns a block, and at n = 300 with 13, the one column
    # left over joins the last block: one alone reduces in another order,
    # which moves a log-weight of the random n = 45 matrix by 8.9e-16.
    # Eigenvalues and weights keep their bits, and the traced peak falls.
    params = (_rand_params(np.random.default_rng(n), n) if kind == "random"
              else _wide(kind, n))
    want, whole = _traced(lambda: truncate(params, n))
    monkeypatch.setattr(jacobi, "_TWIST_TERMS", width * n)
    got, blocked = _traced(lambda: truncate(params, n))
    assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
    assert got.weights.tobytes() == want.weights.tobytes()
    assert blocked < whole


@pytest.mark.parametrize("n", [10, 20, 40])
def test_free_weyl_approximants_converge_to_the_semicircle_transform(n):
    # The free Jacobi matrix (q = 0, b = 1): m(z) = (-z + sqrt(z^2 - 4))/2,
    # the branch with Im m > 0, and -Q_n/P_n is within 1.21 |m|^(2n) of it.
    params = JacobiParams(np.zeros(n + 1), np.ones(n + 1))
    z = 0.5 + 0.5j
    root = np.sqrt(z * z - 4.0)
    m = next(v for v in ((-z + root) / 2, (-z - root) / 2) if v.imag > 0)
    assert abs(weyl_approx(params, z, n) - m) <= 1.5 * abs(m) ** (2 * n)


def test_truncate_refuses_weights_below_the_model_floor():
    params = _wide("ramp", 100)
    with pytest.raises(NumericalError, match=r"10\^-314\.7.*floor 1e-300"):
        truncate(params, 100)


def test_weyl_approx_overflow_is_a_numerical_error():
    params = JacobiParams(q=10.0 * np.arange(201.0), b=np.ones(201))
    with pytest.raises(NumericalError, match="overflow"):
        weyl_approx(params, 0.5 + 1j, 200)


def _jm_case():
    params = JacobiParams(q=np.arange(1.0, 9.0), b=np.ones(8))
    m = truncate(params, 6)
    return params, sample(m, StateVector(np.ones(6, dtype=complex)), 1.3)


def test_jm_reconstruct_far_from_the_axis():
    # Q_n/P_n ~ 1/z, so a test on |Q_n| against |P_n| misfires here.
    params, s = _jm_case()
    for z in (1e12j, 1e14j):
        want = reconstruct(s, z)
        assert jm_reconstruct(params, 6, s, z) == pytest.approx(want,
                                                                rel=1e-12)


def test_jm_reconstruct_at_a_zero_of_q():
    # The zeros of Q_n are the eigenvalues of the minor without row one.
    params, s = _jm_case()
    minor = JacobiParams(q=params.q[1:], b=params.b[1:])
    for x in np.linalg.eigvalsh(_tridiag(minor, 5)):
        with pytest.raises(QZero):
            jm_reconstruct(params, 6, s, x)
