"""Spectra and spectral weights of the rank-one perturbed family.

Eigenvalues of the perturbed operator at coupling h solve the secular
equation 1 + h F(x) = 0; at infinite coupling they are the zeros of F.
Both are the roots of a + b F(x), with (a, b) = (1, h) or (0, 1).  Since
F' = sum w_j/(lam_j - x)^2 > 0, F runs from -inf to +inf across every
spectral gap, so each gap holds exactly one root and the sign of a + b F
next to each pole is known without evaluating it.

All roots are solved at once.  Each is stored as an offset tau from the
pole it is nearer to, its origin, which keeps lam_j - x accurate next to
that pole; |tau| lies in a bracket of int64 bit patterns whose ends give
a + b F opposite signs.  Each step evaluates a + b F where R.-C. Li's
middle-way iteration (LAPACK Working Note 89, 1993; the method of LAPACK's
dlaed4, after Bunch, Nielsen & Sorensen, Numer. Math. 31, 1978) or Newton
on the pole-free form tau (a + b F) puts the root, most roots taking four
to seven evaluations.  The safeguard doubles steps that stop shrinking and
takes the bracket's bit midpoint for a point outside the bracket or one
that would leave it behind a bisection schedule, so no root takes more
than 65 + _FREE_STEPS evaluations.  A root is done when its bracket is two
adjacent doubles, and the end with the smaller |a + b F| is returned, as
the double x = lam_k + tau with its origin k and offset tau.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import InconsistentNodes, NumericalError
from .herglotz import _BLOCK_TERMS, _FAR, _complex, cauchy_rows
from .model import Coupling, SpectralModel, _array, _number, new_model

# Steps a root may take before its bracket must keep up with bisection.
_FREE_STEPS = 16


def _secular_roots(model: SpectralModel, a: float, b: float
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Roots of a + b F(x), one per gap, in increasing order: each as a
    double x, the index k of its origin and its offset tau from lam_k (x is
    lam_k + tau rounded), and the number of evaluations of a + b F each
    took.

    With a != 0 the exterior root in (lam_N, lam_N + b ||mu||^2] (b > 0) or
    [lam_1 + b ||mu||^2, lam_1) (b < 0) is included; there |F| <= 1/|b| at
    the far end, so a + b F has the sign of a.
    """
    lam, w = model.eigenvalues, model.weights
    n = model.dim
    # Steps are taken on s (a + b F) / c = a' + b' F, s = sign(b) and
    # c = max(|a|, |b|): it increases across every gap, and |a'|, b' <= 1
    # keep it finite at any coupling.
    s = 1.0 if b > 0.0 else -1.0
    c = max(abs(a), abs(b))
    a1, b1 = s * a / c, abs(b) / c
    # Rows are taken a block at a time; row k starts as lam_j - lam_k.
    block = max(1, min(n, _BLOCK_TERMS // n))
    diff, work = np.empty((block, n)), np.empty((block, n))
    index = np.arange(block)
    starts = index * n

    def sums(origin, cut, tau):
        """F, R and R' (see evaluate) for the rows of one block."""
        m = tau.size
        # lam_j - x as (lam_j - lam_k) - tau is exact at the origin.
        d = np.subtract(lam, lam[origin, None], out=diff[:m])
        d -= tau[:, None]
        q = np.divide(w, d, out=work[:m])
        total = q.sum(axis=1)
        q[index[:m], origin] = 0.0
        cuts = (starts[:m, None] + cut).ravel()
        return (total, np.add.reduceat(q.ravel(), cuts),
                np.add.reduceat(np.divide(q, d, out=d).ravel(), cuts))

    def evaluate(origin, cut, tau):
        """At x = lam_k + tau, k = origin: a + b F; u = a' + b' R;
        v = tau (a' + b' F) = tau u - b' w_k; and R' summed over the
        columns before cut and from it on.  R and R' sum F and F' over the
        poles other than lam_k."""
        if tau.size <= block:
            total, r, rp = sums(origin, cut, tau)
        else:
            total, r, rp = map(np.concatenate, zip(*(
                sums(origin[lo:lo + block], cut[lo:lo + block],
                     tau[lo:lo + block])
                for lo in range(0, tau.size, block))))
        value = a + b * total
        u = a1 + b1 * (r[0::2] + r[1::2])
        v = tau * u - b1 * w[origin]
        # w_k / tau overflows next to a pole at 0 while a + b F is finite:
        # there the sign comes from the pole-free form.
        if not np.isfinite(total).all():
            k = np.flatnonzero(~np.isfinite(total))
            value[k] = s * c * v[k] / tau[k]
        # Steps aim at the sign change of the sum the bracket reads, so v
        # is taken from it wherever that (or b F at a huge |b|) is finite.
        direct = tau * value * (s / c)
        v = np.where(np.isfinite(direct), direct, v)
        return value, u, v, rp[0::2], rp[1::2]

    def propose(tau, other, toward, u, v, rp_before, rp_after):
        """Where the root is by Li's middle-way step from tau: a' + b' F
        modelled by two poles, at the origin and at the gap's other end
        (offset other), each fitted to the value and slope of the sum over
        its side.  Newton on v where that is not finite (always at the
        exterior root, whose other is NaN) or points away from the root
        (toward: +1 away from the origin, -1 towards it), and Newton on
        v / tau = a' + b' F where that points away too: v' can be <= 0
        between the origin and an exterior root, while a' + b' F increases
        across every gap, so its step always points at the root."""
        # The model's quadratic for the step eta, cq eta^2 - qa eta - pb = 0,
        # divided by |v'| (v' = nd, the slope of v) so that its
        # coefficients neither underflow nor overflow when squared.
        nd = u + b1 * tau * (rp_before + rp_after)
        scale = 1.0 / np.abs(nd)
        slope, newton = nd * scale, -v * scale
        far = other - tau
        qa, pb = far * slope + newton, -far * newton
        cq = slope - b1 * other * scale * np.where(other > 0.0, rp_after,
                                                   rp_before)
        root = np.sqrt(np.abs(qa * qa + 4.0 * pb * cq))
        eta = np.where(qa <= 0.0, (qa - root) / (2.0 * cq),
                       -2.0 * pb / (qa + root))
        ahead = tau * toward
        fine = np.isfinite(eta) & (eta * ahead >= 0.0)
        step = newton * slope
        away = step * ahead < 0.0
        if away.any():
            direct = v / (v / tau - nd)
            step = np.where(away & np.isfinite(direct), direct, step)
        return tau + np.where(fine, eta, step)

    # One row per gap, first seen from its left pole at its midpoint
    # (halving before subtracting keeps gaps near the largest double
    # finite), and the exterior row last (b > 0) or first (b < 0), seen
    # from the edge pole at its far end.  Columns are cut at the gap.
    lower = np.arange(n - 1)
    origin, tau, other, cut = (lower, 0.5 * lam[1:] - 0.5 * lam[:-1],
                               lam[1:] - lam[:-1], lower + 1)
    if a != 0.0:
        ext = ((n - 1, b * model.mu_norm_sq, np.nan, n - 1) if b > 0.0
               else (0, b * model.mu_norm_sq, np.nan, 1))
        origin, tau, other, cut = (
            np.concatenate((v, [e]) if b > 0.0 else ([e], v))
            for v, e in zip((origin, tau, other, cut), ext))
    cut = np.stack((np.zeros_like(cut), cut), axis=1)
    rows = origin.size
    live = np.arange(rows)
    steps = np.ones(rows, dtype=np.int64)
    ends = np.empty((4, rows))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # a + b F has the sign -s just right of a pole and s just left of
        # it; the root is past the midpoint while a + b F still has the left
        # pole's sign there, and then the right pole becomes its origin.
        value, *slopes = evaluate(origin, cut, tau)
        right = s * value < 0.0
        right[np.isnan(other)] = False
        guess = propose(tau, other, np.where(right, 1.0, -1.0), *slopes)
        k = np.flatnonzero(right)
        guess[k] -= other[k]
        other[k], origin[k] = -other[k], origin[k] + 1
        far = np.where(right, -tau, tau)
        sign = np.sign(far)
        final_origin, final_cut = origin, cut
        # The root's offset has the sign of far and its magnitude lies in
        # [lo, hi] as bit patterns (a non-negative double orders like its
        # int64 bit pattern).  up: the root lies beyond the last point,
        # away from the origin.  v_lo, v_hi: a + b F at the ends (infinite
        # at the pole, NaN if not evaluated).  proposed, taken: the last
        # step proposed and taken, in bits.
        lo = np.zeros(rows, dtype=np.int64)
        hi = np.abs(far).view(np.int64)
        v_lo, v_hi = np.full(rows, np.inf), np.where(right, np.nan, value)
        up = np.zeros(rows, dtype=bool)
        proposed = np.full(rows, 1 << 62)
        taken = np.zeros(rows, dtype=np.int64)
        step = 0
        while True:
            # Roots whose bracket is two adjacent doubles are done.
            done = hi - lo <= 1
            if done.any():
                k = live[done]
                ends[:, k] = (lo[done].view(np.float64),
                              hi[done].view(np.float64), v_lo[done],
                              v_hi[done])
                steps[k] += step
                keep = ~done
                (live, origin, cut, sign, other, lo, hi, v_lo, v_hi, up,
                 proposed, taken, guess) = (
                    v[keep] for v in (live, origin, cut, sign, other, lo, hi,
                                      v_lo, v_hi, up, proposed, taken, guess))
                if not live.size:
                    break
            # The guess's step from the last point towards the root, in
            # bits: 0 if it points away, and a guess past the origin reads
            # as bit pattern -1.
            toward = np.where(up, 1, -1)
            cur = np.where(up, lo, hi)
            ahead = np.maximum(toward * (np.where(
                guess * sign > 0.0, np.abs(guess).view(np.int64), -1) - cur),
                0)
            # A step no shorter than half the one proposed before (the
            # iteration stalls, or creeps on rounding noise) doubles the
            # last step taken instead, and every step is at least one bit,
            # so the bracket closes across the root within a few steps.
            stalled = ahead >= proposed - ahead
            proposed = ahead
            taken = np.minimum(np.where(stalled,
                                        2 * np.minimum(taken, 1 << 61),
                                        np.maximum(ahead, 1)), hi - lo)
            bits = cur + toward * taken
            # A point outside the bracket, or one after which the bracket
            # could stay wider than 2^(62 + _FREE_STEPS - step) bits, becomes
            # the bit midpoint: after 63 + _FREE_STEPS steps every bracket
            # is two adjacent doubles.
            mid = lo + (hi - lo) // 2
            bits = np.where((bits <= lo) | (bits >= hi), mid, bits)
            if step >= _FREE_STEPS:
                width = 1 << max(0, 62 + _FREE_STEPS - step)
                bits = np.where((bits - lo > width) | (hi - bits > width),
                                mid, bits)
            tau = np.copysign(bits.view(np.float64), sign)
            value, *slopes = evaluate(origin, cut, tau)
            # A NaN (terms overflowing with both signs) moves hi.
            up = s * sign * value < 0.0
            lo, v_lo = np.where(up, bits, lo), np.where(up, value, v_lo)
            hi, v_hi = np.where(up, hi, bits), np.where(up, v_hi, value)
            guess = propose(tau, other, np.where(up, 1.0, -1.0), *slopes)
            step += 1
        tau_lo, tau_hi = np.copysign(ends[:2], far)
        x_lo, x_hi = lam[final_origin] + tau_lo, lam[final_origin] + tau_hi
        if not np.all(np.isfinite(x_hi)):
            raise NumericalError(
                f"the exterior root at coupling {b!r} is beyond the largest "
                "double"
            )
        # Past its gap's midpoint by less than one bit, a root has no value
        # at hi yet.
        k = np.flatnonzero(np.isnan(ends[3]))
        if k.size:
            ends[3, k] = evaluate(final_origin[k], final_cut[k],
                                  tau_hi[k])[0]
            steps[k] += 1
        nearer = np.abs(ends[2]) < np.abs(ends[3])
    return (np.where(nearer, x_lo, x_hi), final_origin,
            np.where(nearer, tau_lo, tau_hi), steps)


# The last solve, as (model, a, b, roots), so that the node rule takes the
# offsets of the nodes perturbed_spectrum has just handed out from the same
# solve: sample, perturbed_model and to_partial_fractions solve once.
_last_solve = None


def _roots(model: SpectralModel, a: float,
           b: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The roots of a + b F as (x, k, tau), x = lam_k + tau rounded (see
    _secular_roots); at b = 0 the eigenvalues, each its own origin."""
    global _last_solve
    last = _last_solve
    if last is not None and last[0] is model and last[1:3] == (a, b):
        return last[3]
    roots = ((model.eigenvalues, np.arange(model.dim), np.zeros(model.dim))
             if b == 0.0 else _secular_roots(model, a, b)[:3])
    _last_solve = model, a, b, roots
    return roots


def perturbed_spectrum(model: SpectralModel, coupling: Coupling) -> np.ndarray:
    """Eigenvalues of the perturbed operator, in increasing order.

    Finite nonzero coupling yields one root per spectral gap (in its closed
    gap) plus one exterior root within |h| * mu_norm_sq of the edge;
    infinite coupling yields the N-1 zeros of F.  Raises NumericalError
    when the exterior root is beyond the largest double.
    """
    a, b = (0.0, 1.0) if coupling.is_infinite else (1.0, coupling.value)
    return _roots(model, a, float(b))[0].copy()


# Distance to the solver's root, relative to the model scale, above which
# supplied nodes are rejected as belonging to a different coupling.  A raw
# residual bound would misfire at roots that hug a pole with a tiny weight:
# there F' is huge and cancellation inflates |1 + h F| even for a correctly
# placed node, while its distance to the root stays tiny.
_NODE_DISTANCE_TOL = 1e-7
# Far from 0 (a large |h|, or eigenvalues offset far from 0) a node is only
# known to a few rounding errors of the largest magnitude in play, |x_j| or
# max |lam_k|, which can exceed any fixed fraction of the scale; solved
# nodes stay within 4 eps of it.  A fraction of max(scale, |x_j|) instead
# would accept the nodes of another coupling once the offset dwarfs the gaps.
_NODE_ROUNDING_TOL = 64 * np.finfo(float).eps


def _node_data(model: SpectralModel, a: float, b: float, nodes,
               coords: np.ndarray | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
    """Masses of the roots of a + b F given as nodes, (a, b) = (1, h) at
    coupling h and (0, 1) at the zeros of F, and image values there: the
    one rule that accepts or rejects node data.

    Each node is matched to its root in the solve at (a, b), held as the
    offset tau from its origin lam_k (_roots), and its mass is 1/(b^2 F')
    there (1/||xi||^2 at a secular root).  One cauchy_rows pass from origin
    k at offset tau sums R and R', F and F' over the other poles; the root
    solves (a + b R) tau = b w_k, so t = tau/b is (w_k + R' tau^2) /
    (a + b R + b R' tau), finite at a subnormal tau and w_k at h = 0, and
    the mass tau^2 / (b^2 (w_k + tau^2 R')) is t (t / (w_k + (b t)^2 R')),
    which neither overflows nor underflows.  Image values, of the rows psi
    of coords (an empty stack without them), belong to the node they are
    returned with: N(x_j)/F(x_j), N(x) = sum sqrt(w_j) psi_j / (lam_j - x),
    from a second pass at the nodes that keep it, and psi_k/sqrt(w_k) where
    w_k/(lam_k - x_j) is not finite; at a zero of F, the residue N/F' =
    mass (N_R - sqrt(w_k) psi_k / (b t)), N_R summed in the pass at the
    root.  Every row is correctly rounded: it is the per-node math.fsum.

    InconsistentNodes: a node count other than the number of roots, or a
    node farther from its root than 1e-9 times the scale at h = 0, else
    _NODE_DISTANCE_TOL times the scale (or a few rounding errors).
    NumericalError: two roots on one double, a root _FAR = 2^511 or
    farther from its origin (every other pole is at least as far, so each
    term of R' squares past the doubles and R' reads 0), a mass that
    rounds to 0 (naming an overflow of R'), or an image value that is not
    finite.
    """
    x = np.asarray(nodes, dtype=float)
    lam, w = model.eigenvalues, model.weights
    h = b / a if a else math.inf
    root, k, tau = _roots(model, a, b)
    if x.size != root.size:
        raise InconsistentNodes(
            f"{x.size} nodes do not match the spectrum at h={h}")
    off = np.abs(x - root)
    big = np.maximum(np.abs(x), max(abs(lam[0]), abs(lam[-1])))
    bad = ~(off <= (1e-9 * model.scale if b == 0.0 else np.maximum(
        _NODE_DISTANCE_TOL * model.scale, _NODE_ROUNDING_TOL * big)))
    if bad.any():
        j = int(bad.argmax())
        raise InconsistentNodes(
            f"node {float(x[j])!r} is about {off[j]:.3e} off its secular "
            f"root at h={h}"
        )
    same = np.flatnonzero(root[1:] == root[:-1])
    if same.size:
        raise NumericalError(f"two roots round to {float(root[same[0]])!r} "
                             f"at h={h}")
    far = ~(np.abs(tau) < _FAR)
    if far.any():
        j = int(far.argmax())
        raise NumericalError(
            f"node {float(x[j])!r} lies {abs(float(tau[j])):.3e} from "
            f"eigenvalue {float(lam[k[j]])!r}, at or past 2^511: its mass "
            "takes squares past the doubles")
    coords = np.empty((0, model.dim)) if coords is None else coords
    wk = w[k]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        num = model.sqrt_weights * coords
        sets = (w, w) + ((num.real, num.imag) if a == 0.0 else ())
        r, rp, *rows = cauchy_rows(lam, np.vstack(sets), tau,
                                   (1, 2) + (1,) * (len(sets) - 2), origin=k)
        t = (wk + rp * tau * tau) / (a + b * r + b * rp * tau)
        bt = b * t
        masses = t * (t / (wk + bt * (bt * rp)))
        if a == 0.0 or not len(num):
            # The residues, or an empty stack where no values are asked for.
            # sqrt(w_k) psi_k / tau: tau sqrt(w_k) psi_k can underflow.
            re, im = np.array(rows).reshape(2, len(num), x.size)
            values = _complex(masses * (re - num.real[:, k] / bt),
                              masses * (im - num.imag[:, k] / bt))
        else:
            values = coords[:, k] / model.sqrt_weights[k]
            keep = np.flatnonzero(np.isfinite(wk / (lam[k] - x)))
            f, *rows = cauchy_rows(lam, np.vstack((w, num.real, num.imag)),
                                   x[keep])
            re, im = np.array(rows).reshape(2, len(num), keep.size)
            # numpy's complex division multiplies by a rounded reciprocal.
            values[:, keep] = _complex(re / f, im / f)
    lost = ~(masses > 0.0)  # an exact mass below the smallest subnormal
    if lost.any():
        j = int(lost.argmax())
        why = ("F' over the other poles overflows there"
               if np.isinf(rp[j]) else f"got {float(masses[j])!r}")
        raise NumericalError(f"node {float(x[j])!r} has no positive mass in "
                             f"double precision ({why})")
    lost = ~np.isfinite(values).all(axis=0)
    if lost.any():
        raise NumericalError(f"node {float(x[lost.argmax()])!r} has no "
                             "finite value in double precision")
    return masses, values


def node_weights(model: SpectralModel, h: float, nodes) -> np.ndarray:
    """Point masses m_h({x_j}) = 1/||xi(x_j)||^2 at the perturbed spectrum.

    At a secular root F(x_j) = -1/h exactly, so the mass reduces to
    1/(h^2 F'(x_j)).  Every node takes it at its exact root, matched to the
    solve at h: tau^2 / (h^2 (w_k + tau^2 R')), tau the solver's offset of
    the root from its origin lam_k and R' the sum of F' over the other
    poles there (see _node_data), so it stays accurate for roots that hug
    a pole or lie closer together than the rounding of x_j.  The nodes are
    taken by model._array.  Raises InconsistentNodes for nodes that are not
    the spectrum at h, and NumericalError naming a node whose mass rounds
    to 0 or that lies 2^511 or farther from its origin.
    """
    return _node_data(model, 1.0, _number(h, float, "h"),
                      _array(nodes, float, "nodes"))[0]


def perturbed_model(model: SpectralModel, h: float) -> SpectralModel:
    """Spectral model of the perturbed operator with the same cyclic vector."""
    nodes = perturbed_spectrum(model, Coupling.finite(h))
    return new_model(nodes, node_weights(model, h, nodes))


def compression_spectrum(model: SpectralModel) -> np.ndarray:
    """Eigenvalues of the compression of the model to the complement of mu.

    A Householder reflection maps the first coordinate axis onto mu's
    direction; the remaining reflected axes give a deterministic
    orthonormal basis of the complement.  Cross-validates, independently of
    the solver, the zeros of F from perturbed_spectrum at infinite coupling.
    It compresses lam - c, c the midpoint of the eigenvalues, and adds c
    back: lam - c is exact, and eigvalsh's error scales with the largest
    |lam - c|, not with an offset.
    """
    lam = model.eigenvalues
    c = 0.5 * lam[0] + 0.5 * lam[-1]
    u = model.sqrt_weights / math.sqrt(model.mu_norm_sq)
    v = u.copy()
    v[0] += 1.0
    refl = np.eye(model.dim) - 2.0 * np.outer(v, v) / np.dot(v, v)
    basis = refl[:, 1:]
    compressed = basis.T @ ((lam - c)[:, None] * basis)
    return np.linalg.eigvalsh(compressed) + c
