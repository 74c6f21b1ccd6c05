"""High-precision oracle for every output the benchmark checks.

Every input the library sees is a double, and every double is a dyadic
rational.  The sums over model terms (F, F' and the state sum
sum c_j/(lam_j - z)) are therefore formed in binary fixed point on Python
integers: each term is exact up to one unit in GUARD_BITS fraction bits
beyond the finest bit of the inputs, and the sum itself is exact.  Each sum
is rounded once to an mpmath number at 40 digits, and everything after that
(Newton updates, ratios, closed forms) is mpmath at 40 digits.  Terms are
held in numpy object arrays so the integer arithmetic runs without a Python
loop per term.

The oracle answers depend only on the generated inputs.  It runs outside
the timed region.
"""
from __future__ import annotations

import math

import mpmath
import numpy as np
from mpmath import mp

mp.dps = 40

# Resolution of refined roots below the finest bit of any input (and below
# 2**-53 at least, so that roots of inputs with few bits still get 40 digits).
EXTRA_BITS = 80
# Newton stops once a step is this many bits below the inputs' finest bit.
CONVERGED_BITS = 24
# Fraction bits of the fixed-point sums beyond the root resolution.
GUARD_BITS = 96
# Bits of sqrt(w_j) beyond the model's own scale.
SQRT_BITS = 64

# Pass/fail bounds.  They separate a wrong answer from an imprecise one;
# precision itself is reported as digits (acc_digits_min).  Nodes are
# measured relative to the model scale, everything else relatively.
BOUNDS = {
    "node": 1e-9,
    "relative": 1e-6,
}

DIGITS_CAP = 16.0


class OracleError(Exception):
    """The oracle itself could not produce a reference value."""


def digits(err: float) -> float:
    """-log10 of an error, capped at DIGITS_CAP and floored at zero."""
    if err <= 0.0:
        return DIGITS_CAP
    if not math.isfinite(err):
        return 0.0
    return max(0.0, min(DIGITS_CAP, -math.log10(err)))


def _bits_below_one(v: float) -> int:
    """Smallest e >= 0 with v * 2**e an integer."""
    _, den = float(v).as_integer_ratio()
    return den.bit_length() - 1


def _fixed(v: float, scale: int) -> int:
    """v * 2**scale as an integer (exact when scale covers v's bits)."""
    num, den = float(v).as_integer_ratio()
    return (num << scale) // den


def _fixed_array(values, scale: int) -> np.ndarray:
    return np.array([_fixed(v, scale) for v in values], dtype=object)


def _mpf(n: int, scale: int) -> mpmath.mpf:
    return mpmath.ldexp(mpmath.mpf(n), -scale)


def rel_err(got, want) -> float:
    want = mpmath.mpmathify(want)
    diff = abs(mpmath.mpmathify(got) - want)
    if want == 0:
        return 0.0 if diff == 0 else math.inf
    return float(diff / abs(want))


class ExactModel:
    """A spectral model, and optionally a state, as exact fixed-point integers.

    All real quantities live at one binary scale S: the integer X stands for
    X / 2**S.  Square roots of the weights are floor(sqrt(w) * 2**(S+SQRT_BITS)).
    """

    def __init__(self, eigenvalues, weights, coords=None):
        lam = [float(v) for v in eigenvalues]
        w = [float(v) for v in weights]
        finest = [_bits_below_one(v) for v in lam + w]
        if coords is not None:
            coords = [complex(c) for c in coords]
            finest += [_bits_below_one(c.real) for c in coords]
            finest += [_bits_below_one(c.imag) for c in coords]
        self.S = max(max(finest), 53) + EXTRA_BITS
        self.P = self.S + GUARD_BITS
        self.scale = max(1.0, lam[-1] - lam[0])
        self.L = _fixed_array(lam, self.S)
        self.W = _fixed_array(w, self.S)
        # Numerators of F and F' shifted to the fraction bits of the sums.
        self._WF = self.W << self.P
        self._WFp = self.W << (self.P + self.S)
        self.C = None
        if coords is not None:
            t = self.S + SQRT_BITS
            sqrt_w = np.array(
                [math.isqrt(int(v) << (2 * t - self.S)) for v in self.W],
                dtype=object,
            )
            # c_j = sqrt(w_j) * phi_j at scale S + t.
            self.t = t
            self.C = (sqrt_w * _fixed_array([c.real for c in coords], self.S),
                      sqrt_w * _fixed_array([c.imag for c in coords], self.S))
            self._CT = (self.C[0] << (self.P - t), self.C[1] << (self.P - t))

    # -- fixed-point sums -------------------------------------------------

    def fixed(self, v: float) -> int:
        return _fixed(v, self.S)

    def real_sums(self, X: int, state: bool = False):
        """F, F' at the real point X / 2**S (and the state sum when asked)."""
        D = self.L - X
        if not D.all():
            raise OracleError("evaluation point coincides with a pole")
        p = self.P
        F = _mpf(int((self._WF // D).sum()), p)
        Fp = _mpf(int((self._WFp // (D * D)).sum()), p)
        if not state:
            return F, Fp, None
        cr = _mpf(int((self._CT[0] // D).sum()), p)
        ci = _mpf(int((self._CT[1] // D).sum()), p)
        return F, Fp, mpmath.mpc(cr, ci)

    def complex_sums(self, z: complex, state: bool = False):
        """F(z), F'(z) (and the state sum when asked) at a non-real z."""
        z = complex(z)
        p, s = self.P, self.S
        Dr = self.L - self.fixed(z.real)
        zi = self.fixed(z.imag)
        den = Dr * Dr + zi * zi                     # |lam - z|^2, scale 2S
        # 1/(lam - z) = conj(lam - z)/|lam - z|^2 = (Dr + i zi)/den.
        F = mpmath.mpc(_mpf(int((((self.W * Dr) << p) // den).sum()), p),
                       _mpf(int((((self.W * zi) << p) // den).sum()), p))
        den2 = den * den
        re2 = Dr * Dr - zi * zi
        im2 = 2 * Dr * zi
        Fp = mpmath.mpc(
            _mpf(int((((self.W * re2) << (p + s)) // den2).sum()), p),
            _mpf(int((((self.W * im2) << (p + s)) // den2).sum()), p),
        )
        if not state:
            return F, Fp, None
        cr, ci = self.C
        k = p - self.t
        num_r = cr * Dr - ci * zi
        num_i = cr * zi + ci * Dr
        T = mpmath.mpc(_mpf(int(((num_r << k) // den).sum()), p),
                       _mpf(int(((num_i << k) // den).sum()), p))
        return F, Fp, T

    # -- secular roots ----------------------------------------------------

    def root(self, h, x0: float, lo: int, hi: int, first=None):
        """Root of 1 + hF (h=None: of F) in the open bracket (lo, hi).

        Safeguarded Newton from the double x0; g is monotone on the
        bracket, so each iterate also shrinks the bracket.  Stops once a
        step is below 2**-CONVERGED_BITS of the inputs' finest bit, where
        the quadratic convergence leaves an error far below that.  Returns
        the root as an integer at scale S and F' there.
        `first` may carry (F, F') already evaluated at x0.
        """
        hm = None if h is None else mpmath.mpf(h)
        rising = h is None or h > 0
        X = self.fixed(x0) if math.isfinite(x0) else (lo + hi) // 2
        if not lo < X < hi:
            X, first = (lo + hi) // 2, None
        tol = 1 << (EXTRA_BITS - CONVERGED_BITS)
        for _ in range(400):
            F, Fp = first or self.real_sums(X)[:2]
            first = None
            g = F if hm is None else 1 + hm * F
            if g == 0:
                return X, Fp
            if (g > 0) == rising:
                hi = X
            else:
                lo = X
            gp = Fp if hm is None else hm * Fp
            Xn = X - int(mpmath.nint(mpmath.ldexp(g / gp, self.S)))
            if abs(Xn - X) <= tol or hi - lo <= 2:
                return Xn, self.real_sums(Xn)[1]
            if not lo < Xn < hi:
                Xn = (lo + hi) // 2
            X = Xn
        raise OracleError("secular Newton iteration did not converge")

    def brackets(self, h):
        """Open intervals holding one root each, in increasing order."""
        L = [int(v) for v in self.L]
        gaps = list(zip(L[:-1], L[1:]))
        if h is None:
            return gaps
        if h == 0:
            raise OracleError("zero coupling has no secular roots")
        num, den = abs(float(h)).as_integer_ratio()
        reach = num * int(sum(int(v) for v in self.W)) // den + 2
        if h > 0:
            return gaps + [(L[-1], L[-1] + reach)]
        return [(L[0] - reach, L[0])] + gaps


# -- checks ---------------------------------------------------------------
#
# Each check returns a list of (quantity, error, bound) triples.  An output
# of the wrong shape yields an infinite error.


def bound(kind: str) -> float:
    return BOUNDS["node"] if kind == "node" else BOUNDS["relative"]


def _shape_error(kind: str):
    return [(kind, math.inf, bound(kind))]


def check_spectrum(lam, w, h, nodes, node_weights=None, values=None,
                   coords=None):
    """Nodes (and weights and sampled values) of the perturbed spectrum."""
    ex = ExactModel(lam, w, coords)
    bks = ex.brackets(h)
    nodes = [float(x) for x in nodes]
    if len(nodes) != len(bks):
        return _shape_error("node")
    out = []
    hm = None if h is None else mpmath.mpf(h)
    for j, (x, (lo, hi)) in enumerate(zip(nodes, bks)):
        first = None
        if values is not None and lo < ex.fixed(x) < hi:
            # A sampled value is the image function at the returned node;
            # the node's own error is checked separately.
            F, Fp, T = ex.real_sums(ex.fixed(x), state=True)
            first = (F, Fp)
            out.append(("value", rel_err(values[j], T / F), BOUNDS["relative"]))
        elif values is not None:
            out.append(("value", math.inf, BOUNDS["relative"]))
        X, Fp = ex.root(h, x, lo, hi, first)
        exact = _mpf(X, ex.S)
        # Relative to the model scale, or to |x| beyond it: no double is
        # nearer than half an ulp of x.
        out.append(("node", float(abs(mpmath.mpf(x) - exact)
                                  / max(ex.scale, abs(exact))), BOUNDS["node"]))
        if node_weights is not None:
            out.append(("weight", rel_err(node_weights[j], 1 / (hm * hm * Fp)),
                        BOUNDS["relative"]))
    return out


class PointOracle:
    """Exact F, F', and the image function of one state, at any z."""

    def __init__(self, lam, w, coords):
        self.ex = ExactModel(lam, w, coords)

    def at(self, z: complex):
        return self.ex.complex_sums(z, state=True)

    def check_eval(self, h, z, reconstructed, transformed, weyl_h_out):
        F, Fp, T = self.at(z)
        f = T / F
        hm = mpmath.mpf(h)
        want_h = (F / (1 + hm * F), hm + 1 / F, -Fp / (F * F))
        out = [("value", rel_err(reconstructed, f), BOUNDS["relative"]),
               ("value", rel_err(transformed, f), BOUNDS["relative"])]
        out += [("value", rel_err(g, wv), BOUNDS["relative"])
                for g, wv in zip(weyl_h_out, want_h)]
        return out

    def check_values(self, zs, values):
        out = []
        for z, v in zip(zs, values):
            F, _, T = self.at(z)
            out.append(("value", rel_err(v, T / F), BOUNDS["relative"]))
        return out


# -- closed forms -----------------------------------------------------------


def free_jacobi(n: int):
    """Eigenvalues 2cos(k pi/(n+1)) and weights (2/(n+1)) sin^2(k pi/(n+1))
    of the n-truncation of the free Jacobi matrix (q=0, b=1), ascending."""
    ks = range(n, 0, -1)
    a = [mpmath.mpf(k) * mpmath.pi / (n + 1) for k in ks]
    return ([2 * mpmath.cos(t) for t in a],
            [2 * mpmath.sin(t) ** 2 / (n + 1) for t in a])


def free_jacobi_zeros(n: int):
    """Zeros of F for the n-truncation of the free Jacobi matrix: the
    eigenvalues of the (n-1)-truncation, 2cos(k pi/n)."""
    return [2 * mpmath.cos(mpmath.mpf(k) * mpmath.pi / n)
            for k in range(n - 1, 0, -1)]


def check_against(kind, got, want, scale=None):
    """Errors of `got` against `want`: nodes relative to `scale`, anything
    else relatively."""
    got = list(got)
    if len(got) != len(want):
        return _shape_error(kind)
    if scale is None:
        return [(kind, rel_err(g, wv), bound(kind)) for g, wv in zip(got, want)]
    return [(kind, float(abs(mpmath.mpf(float(g)) - wv)) / scale, bound(kind))
            for g, wv in zip(got, want)]


def check_free_truncation(n, eigenvalues, weights):
    lam, w = free_jacobi(n)
    return (check_against("node", eigenvalues, lam, scale=4.0)
            + check_against("weight", weights, w))


def free_weyl(n: int, z: complex):
    """-Q_n/P_n of the free Jacobi matrix, as the Borel transform of its
    n-truncation."""
    lam, w = free_jacobi(n)
    z = mpmath.mpc(z)
    return mpmath.fsum(wk / (lk - z) for lk, wk in zip(lam, w))


def _polys(q, b, z, n):
    """P_n, Q_n and their derivatives at z by the three-term recurrence."""
    def off(k):
        return mpmath.mpf(b[k - 1]) if k <= len(b) else mpmath.mpf(1)
    z = mpmath.mpmathify(z)
    b1 = off(1)
    P0, Q0, dP0, dQ0 = mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0), mpmath.mpf(0)
    P1, Q1 = (z - q[0]) / b1, 1 / b1
    dP1, dQ1 = 1 / b1, mpmath.mpf(0)
    for k in range(2, n + 1):
        bk, bp = off(k), off(k - 1)
        zq = z - q[k - 1]
        P0, P1 = P1, (zq * P1 - bp * P0) / bk
        Q0, Q1 = Q1, (zq * Q1 - bp * Q0) / bk
        dP0, dP1 = dP1, (P0 + zq * dP1 - bp * dP0) / bk
        dQ0, dQ1 = dQ1, (Q0 + zq * dQ1 - bp * dQ0) / bk
    return P1, Q1, dP1, dQ1


def jm_formula(q, b, n, h, nodes, values, z):
    """jm_reconstruct's interpolation formula evaluated at 40 digits."""
    P, Q, _, _ = _polys(q, b, z, n)
    w_z = P / Q
    z = mpmath.mpc(z)
    total = mpmath.mpc(0)
    for x, v in zip(nodes, values):
        Px, Qx, dPx, dQx = _polys(q, b, x, n)
        w_prime = (dPx * Qx - Px * dQx) / (Qx * Qx)
        total += (h - w_z) * mpmath.mpc(v) / ((x - z) * w_prime)
    return total


def jacobi_truncation(q, b, n, eigenvalues):
    """Eigenvalues and weights of a general Jacobi n-truncation.

    Newton on P_n from each returned double, then a Sturm count at the
    midpoints between refined roots confirms one root per interval.
    """
    q = [mpmath.mpf(float(v)) for v in q[:n]]
    b = [mpmath.mpf(float(v)) for v in b[:n]]
    roots = []
    for x0 in eigenvalues:
        x = mpmath.mpf(float(x0))
        for _ in range(100):
            P, _, dP, _ = _polys(q, b, x, n)
            step = P / dP
            x -= step
            if abs(step) <= mpmath.mpf(2) ** (-120) * max(1, abs(x)):
                break
        else:
            raise OracleError("characteristic-polynomial Newton failed")
        roots.append(x)

    tiny = mpmath.mpf(2) ** -400

    def sturm(t):
        # Eigenvalues below t; a zero pivot is nudged below zero.
        count, d = 0, q[0] - t
        for k in range(n):
            if k:
                d = (q[k] - t) - b[k - 1] ** 2 / d
            if d == 0:
                d = -tiny
            count += d < 0
        return count

    cuts = [roots[0] - 1 - 4 * max(abs(v) for v in b)] + [
        (a + c) / 2 for a, c in zip(roots[:-1], roots[1:])
    ] + [roots[-1] + 1 + 4 * max(abs(v) for v in b)]
    if [sturm(t) for t in cuts] != list(range(n + 1)):
        raise OracleError("refined roots do not isolate the spectrum")
    weights = []
    for x in roots:
        acc, p0, p1 = mpmath.mpf(1), mpmath.mpf(1), (x - q[0]) / b[0]
        for k in range(1, n):
            acc += p1 * p1
            bk = b[k] if k < len(b) else mpmath.mpf(1)
            p0, p1 = p1, ((x - q[k]) * p1 - b[k - 1] * p0) / bk
        weights.append(1 / acc)
    return roots, weights


def oscillator_series(z: complex, terms=None):
    """sum 1/(n! (2n+1-z)): a partial sum, or the full series."""
    z = mpmath.mpc(z)
    total = mpmath.mpc(0)
    inv_fact = mpmath.mpf(1)
    n = 0
    while True:
        if terms is not None and n >= terms:
            return total
        if n > 0:
            inv_fact /= n
        term = inv_fact / (2 * n + 1 - z)
        total += term
        n += 1
        if terms is None and abs(term) < mpmath.mpf(10) ** (-mp.dps - 5) * abs(total):
            return total


def oscillator_model(levels: int):
    """Levels 2n+1 and exact weights 1/n!."""
    return ([mpmath.mpf(2 * n + 1) for n in range(levels)],
            [1 / mpmath.factorial(n) for n in range(levels)])


def oscillator_zeros(levels: int, zeros):
    """Zeros of the oscillator model's F, by Newton from the given doubles."""
    lam, w = oscillator_model(levels)
    out = []
    for x0 in zeros:
        x = mpmath.mpf(float(x0))
        for _ in range(100):
            F = mpmath.fsum(wk / (lk - x) for lk, wk in zip(lam, w))
            Fp = mpmath.fsum(wk / (lk - x) ** 2 for lk, wk in zip(lam, w))
            step = F / Fp
            x -= step
            if abs(step) <= mpmath.mpf(2) ** (-125) * max(1, abs(x)):
                break
        else:
            raise OracleError("oscillator Newton iteration did not converge")
        out.append(x)
    # One zero per gap of the level ladder.
    for j, x in enumerate(out):
        if not lam[j] < x < lam[j + 1]:
            raise OracleError("oscillator zero left its gap")
    return out


def hermite_overlap(k: int):
    return 1 / mpmath.sqrt(mpmath.factorial(k))
