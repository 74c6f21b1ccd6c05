"""The row-sum kernel of cauchy_rows: every row must equal the per-row
math.fsum of its terms bit for bit (the correctly rounded sum), whatever
numpy's summation order, including the rows the extraction cannot certify
and hands to math.fsum.  Examples are derandomized so the suite stays
deterministic."""
import math

import numpy as np
import pytest

from specsample import NumericalError, new_model
from specsample.herglotz import cauchy_rows
from specsample.perturbation import _secular_roots

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

SETTINGS = hypothesis.settings(derandomize=True, max_examples=60,
                               deadline=None)


def _fsum_rows(poles, coeffs, points, powers, origin=None):
    """cauchy_rows one set, point and fsum at a time: terms c_j / d_j
    (d_j * d_j for power 2), d_j = poles_j - x, or with origin
    d_j = (poles_j - poles_k) - x, k = origin of the row, and no term at
    poles_k."""
    out = np.empty((len(coeffs), points.size))
    for i, (c, p) in enumerate(zip(coeffs, powers)):
        for j, x in enumerate(points):
            if origin is None:
                d, keep = poles - x, np.arange(poles.size)
            else:
                keep = np.arange(poles.size) != origin[j]
                d = (poles[keep] - poles[origin[j]]) - x
            if p == 2:
                d = d * d
            with np.errstate(divide="ignore", invalid="ignore"):
                out[i, j] = math.fsum(c[keep] / d)
    return out


def _assert_rows_match(poles, coeffs, points, powers, origin=None):
    try:
        want = _fsum_rows(poles, coeffs, points, powers, origin)
    except OverflowError:
        with pytest.raises(NumericalError, match="past the largest double"):
            cauchy_rows(poles, coeffs, points, powers, origin)
        return
    got = cauchy_rows(poles, coeffs, points, powers, origin)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@st.composite
def models(draw):
    """The hard regimes: clusters 1e-6 wide, weights down to 1e-299,
    spreads of 1e12 and offsets of 1e8, next to plain random models."""
    n = draw(st.integers(2, 60))
    kind = draw(st.sampled_from(
        ["uniform", "clustered", "tiny-weights", "spread-1e12",
         "offset-1e8"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lam = np.sort(rng.uniform(-10.0, 10.0, n))
    w = rng.uniform(0.1, 1.0, n)
    if kind == "clustered":
        lam = np.sort(4.0 * (np.arange(n) % 5) + rng.uniform(0, 1e-6, n))
    elif kind == "tiny-weights":
        w = 10.0 ** rng.uniform(-299, 0, n)
    elif kind == "spread-1e12":
        lam = np.sort(np.concatenate([rng.uniform(0, 1, n // 2),
                                      rng.uniform(2, 1e12, n - n // 2)]))
    elif kind == "offset-1e8":
        lam = lam + 1e8
    lam, first = np.unique(lam, return_index=True)
    return new_model(lam, w[first]), rng


@SETTINGS
@hypothesis.given(case=models(),
                  h=st.sampled_from([1.3, -0.7, 1e-8, 1e8, None]),
                  on_pole=st.booleans(), at_origin=st.booleans())
def test_rows_at_secular_roots_match_fsum(case, h, on_pole, at_origin):
    m, rng = case
    lam, n = m.eigenvalues, m.dim
    a, b = (0.0, 1.0) if h is None else (1.0, h)
    nodes, origin, offset, _ = _secular_roots(m, a, b)
    if on_pole:
        # A point on a pole gives an infinite or NaN row, as fsum does;
        # from the origin, a point on its own pole a finite one, and on the
        # next pole (offset lam_{k+1} - lam_k, so d = 0 exactly) an
        # infinite or NaN one.
        k = rng.integers(n - 1, size=2)
        nodes = np.concatenate((nodes, lam[k]))
        origin = np.concatenate((origin, k))
        offset = np.concatenate((offset, [0.0, lam[k[1] + 1] - lam[k[1]]]))
    origin, points = (origin, offset) if at_origin else (None, nodes)
    real = np.stack((m.weights, m.weights, m.sqrt_weights))
    _assert_rows_match(lam, real, points, (1, 2, 1), origin)
    # Complex coefficients are summed as their real and imaginary parts.
    c = m.sqrt_weights * (rng.normal(size=(2, n))
                          + 1j * rng.normal(size=(2, n)))
    _assert_rows_match(lam, np.concatenate((c.real, c.imag)), points,
                       (2, 1, 2, 1), origin)


TIE = 2.0 ** -53


@st.composite
def term_rows(draw):
    """Rows of raw terms: any finite doubles, sums that cancel to exactly
    0, rows of -0.0, exact ties, subnormal terms, and terms near 1e308."""
    n = draw(st.integers(1, 30))
    shape = draw(st.sampled_from(
        ["any", "cancel", "negative-zero", "tie", "subnormal", "huge"]))
    if shape == "tie":
        return draw(st.sampled_from([[1.0, TIE], [1.0, TIE, TIE * TIE],
                                     [1.0 + 4.0 * TIE, TIE, TIE * TIE],
                                     [-1.0, -TIE, 3.0 * TIE * TIE],
                                     [2.0 ** 1000, 2.0 ** 947],
                                     [1.0, 1.0, TIE, TIE, -TIE]]))
    if shape == "negative-zero":
        return [-0.0] * n
    if shape == "subnormal":
        units = draw(st.lists(st.integers(-2**52, 2**52), min_size=n,
                              max_size=n))
        return [math.ldexp(u, -1074) for u in units]
    if shape == "huge":
        return draw(st.lists(st.floats(1e307, 1.7e308).map(
            lambda x: x * draw(st.sampled_from([1.0, -1.0]))),
            min_size=n, max_size=n))
    row = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                                  width=64), min_size=n, max_size=n))
    if shape == "cancel":
        row = row + [-x for x in reversed(row)]
    return row


@SETTINGS
@hypothesis.given(rows=st.lists(term_rows(), min_size=1, max_size=4),
                  power=st.sampled_from([1, 2]), scale=st.integers(0, 3))
def test_raw_terms_match_fsum(rows, power, scale):
    # Poles at 0 and the point -1 make every d_j (and d_j^2) exactly 1, so
    # the coefficients are the terms; rows are padded with zeros to one
    # length, and tiled so that the sum sees more terms (and orders).
    width = max(map(len, rows))
    coeffs = np.array([r + [0.0] * (width - len(r)) for r in rows])
    coeffs = np.tile(coeffs, (1, 1 + scale))
    poles = np.zeros(coeffs.shape[1])
    _assert_rows_match(poles, coeffs, np.array([-1.0]), (power,) * len(rows))


def test_exact_ties_and_zeros_round_like_fsum():
    # The last two ties round to even unless the 2^-106 term, which the
    # float sum of the low parts drops, is seen.
    cases = {(1.0, TIE): 1.0, (1.0, TIE, TIE * TIE): 1.0 + 2.0 * TIE,
             (1.0 + 4.0 * TIE, TIE, TIE * TIE): 1.0 + 6.0 * TIE,
             (1.0, -1.0): 0.0, (-0.0, -0.0): math.fsum([-0.0, -0.0])}
    for terms, want in cases.items():
        got = cauchy_rows(np.zeros(len(terms)), np.array(terms),
                          np.array([-1.0]))
        assert got.tobytes() == np.array([want]).tobytes()
    with pytest.raises(NumericalError, match="past the largest double"):
        cauchy_rows(np.zeros(2), np.array([1e308, 1e308]), np.array([-1.0]))


def test_a_row_holding_both_infinities_is_nan():
    # Two poles closer than 1/1.8e308 around the point: the terms 1/d are
    # -inf and +inf, on which math.fsum raises ValueError.  The row is NaN,
    # as numpy sums it.
    got = cauchy_rows(np.array([0.0, 1e-310, 1.0]), np.ones(3),
                      np.array([5e-324, 0.5]))
    assert np.isnan(got[0]) and got[1] == math.fsum([-2.0, 1.0 / (
        1e-310 - 0.5), 2.0])


@pytest.mark.parametrize("n", [300, 700])
def test_rows_do_not_depend_on_the_order_of_the_poles(n):
    # Permuting the poles with their coefficients (and the origins)
    # reorders every row's terms; numpy's sum would change the last bits
    # of many rows, the correctly rounded sum cannot change.
    rng = np.random.default_rng(n)
    lam = np.sort(rng.uniform(-10.0, 10.0, n))
    m = new_model(lam, rng.uniform(0.1, 1.0, n))
    _, origin, offset, _ = _secular_roots(m, 1.0, 1.3)
    coeffs = np.stack((m.weights, m.weights, m.sqrt_weights
                       * rng.normal(size=n)))
    want = cauchy_rows(lam, coeffs, offset, (1, 2, 1), origin)
    for _ in range(3):
        perm = rng.permutation(n)
        back = np.argsort(perm)
        got = cauchy_rows(lam[perm], coeffs[:, perm], offset, (1, 2, 1),
                          back[origin])
        assert got.tobytes() == want.tobytes()
