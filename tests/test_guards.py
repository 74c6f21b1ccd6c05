"""One pole-guard policy for every point evaluator.

Each evaluator raises within r = EXCLUSION_RADIUS * max(1, spread of its
poles) of a pole (PoleProximity) or, by the Newton step |f/f'|, of a zero
of its denominator (ZeroOfF for F, PoleProximity for F_h and P_n), returns
a finite value at 1.1 r, and rejects a point that is not a finite number.
"""
import math
import warnings

import numpy as np
import pytest

from specsample import (
    Coupling,
    DimensionMismatch,
    JacobiParams,
    MeromorphicRep,
    NumericalError,
    PoleProximity,
    SampleSet,
    SpectralError,
    StateVector,
    ValidationError,
    ZeroOfF,
    apply_perturbed,
    blaschke_swap,
    evaluate_rep,
    from_partial_fractions,
    hermite_overlap,
    inner_h,
    jm_reconstruct,
    kramer_reconstruct,
    mu_pointwise,
    mu_state,
    new_model,
    node_weights,
    normalize,
    omega_state,
    oscillator_model,
    osc_F_integral,
    osc_F_series,
    osc_F_tail_bound,
    perturbed_spectrum,
    polys,
    reconstruct,
    sample,
    sturm_count,
    to_partial_fractions,
    transform,
    truncate,
    weyl,
    weyl_approx,
    weyl_h,
    xi,
    xi_norm_sq,
)
from specsample.herglotz import EXCLUSION_RADIUS
from specsample.model import _QUIET

from conftest import random_model, random_state

# The largest total weight the door accepts.
_BELOW = float(np.nextafter(_QUIET, 0.0))

_RNG = np.random.default_rng(5)
M = random_model(_RNG, 6)
PHI = random_state(_RNG, 6)
R = EXCLUSION_RADIUS * M.scale
EIG = M.eigenvalues[2]
ZERO_F = perturbed_spectrum(M, Coupling.infinite())[2]
S = sample(M, PHI, 1.3)
RS = EXCLUSION_RADIUS * max(1.0, S.nodes[-1] - S.nodes[0])
REP = to_partial_fractions(M, PHI)
RR = EXCLUSION_RADIUS * max(1.0, REP.poles[-1] - REP.poles[0])

JAC = JacobiParams(np.arange(1.0, 13.0), np.ones(12))
JAC_EIG = truncate(JAC, 6).eigenvalues[3]
M10 = truncate(JAC, 10)
S10 = sample(M10, StateVector(M10.sqrt_weights / (1.0 + M10.eigenvalues ** 2)),
             1.5)
RS10 = EXCLUSION_RADIUS * (S10.nodes[-1] - S10.nodes[0])

EVALUATORS = {
    "weyl": lambda z: weyl(M, z),
    "weyl_h": lambda z: weyl_h(M, 1.3, z),
    "xi": lambda z: xi(M, z).coords,
    "xi_norm_sq": lambda z: xi_norm_sq(M, z),
    "transform": lambda z: transform(M, PHI, z),
    "kramer_reconstruct": lambda z: kramer_reconstruct(M, S, z),
    "reconstruct": lambda z: reconstruct(S, z),
    "evaluate_rep": lambda z: evaluate_rep(REP, z),
    "jm_reconstruct": lambda z: jm_reconstruct(JAC, 10, S10, z),
    "weyl_approx": lambda z: weyl_approx(JAC, z, 6),
    "osc_F_series": lambda z: osc_F_series(z, 20),
    "osc_F_integral": lambda z: osc_F_integral(z, 64),
    "osc_F_tail_bound": lambda z: osc_F_tail_bound(z, 20),
    "blaschke_swap": lambda z: blaschke_swap(M, PHI, z),
}

# (evaluator, what the point is next to, the point, radius, raised error)
CASES = [
    *[(name, "eigenvalue", EIG, R, PoleProximity)
      for name in ("weyl", "weyl_h", "xi", "xi_norm_sq", "transform",
                   "kramer_reconstruct")],
    *[(name, "zero-of-F", ZERO_F, R, ZeroOfF)
      for name in ("weyl_h", "xi", "xi_norm_sq", "transform",
                   "kramer_reconstruct")],
    *[(name, "node", S.nodes[3], RS, PoleProximity)
      for name in ("reconstruct", "kramer_reconstruct")],
    ("reconstruct", "zero-of-F_h", ZERO_F, RS, PoleProximity),
    ("evaluate_rep", "pole", REP.poles[1], RR, PoleProximity),
    ("jm_reconstruct", "node", S10.nodes[4], RS10, PoleProximity),
    ("weyl_approx", "zero-of-P_n", JAC_EIG, EXCLUSION_RADIUS * JAC.scale(6),
     PoleProximity),
    ("osc_F_series", "level", 7.0, EXCLUSION_RADIUS * 2 * 19, PoleProximity),
    # The integral's only poles are the zeros of cos(pi z/2); it sums no
    # finite set of levels, so it takes the one-pole radius.
    ("osc_F_integral", "level", 7.0, EXCLUSION_RADIUS, PoleProximity),
]


def _finite(value) -> bool:
    return bool(np.all(np.isfinite(np.asarray(value, dtype=complex))))


@pytest.mark.parametrize("direction", [1.0, -1.0, 1j])
@pytest.mark.parametrize("name,near,point,r,error", CASES,
                         ids=[f"{c[0]}-{c[1]}" for c in CASES])
def test_guard_radius(name, near, point, r, error, direction):
    evaluate = EVALUATORS[name]
    with pytest.raises(error):
        evaluate(point + 0.9 * r * direction)
    assert _finite(evaluate(point + 1.1 * r * direction))


@pytest.mark.parametrize("z", [complex(math.inf, 0.0), complex(0.5, math.inf),
                               complex(math.nan, 0.0), complex(0.0, math.nan),
                               "0.5+1j", None, ["0.5+1j"]],
                         ids=["inf", "inf-imag", "nan", "nan-imag", "string",
                              "none", "list"])
@pytest.mark.parametrize("name", sorted(EVALUATORS))
def test_non_finite_point_is_rejected(name, z):
    # Each point passes the input rule, which complex() alone does not
    # apply: it parses the string, and a grid of it.
    with pytest.raises(ValidationError):
        EVALUATORS[name](z)


@pytest.mark.parametrize("k", range(20))
def test_series_guard_matches_the_model(k):
    # The series has the poles of the 20-level model, so it has its radius:
    # 3e-7 is inside 1e-8 * 38.
    z = 2 * k + 1 + 3e-7
    with pytest.raises(PoleProximity):
        weyl(oscillator_model(20), z)
    with pytest.raises(PoleProximity):
        osc_F_series(z, 20)


def test_weyl_h_at_an_exact_pole_of_f_h():
    # At the middle node 1 + hF rounds to exactly 0, where F_h has no
    # value; at the outer nodes F_h is large but finite.
    m = new_model([0.0, 1.0, 2.0], [0.3, 0.3, 0.4])
    x = perturbed_spectrum(m, Coupling.finite(1.3))
    with pytest.raises(PoleProximity, match="pole of F_h"):
        weyl_h(m, 1.3, x[1])
    for node, f_h in ((x[0], -2.3e15), (x[2], 3.5e15)):
        value = weyl_h(m, 1.3, node)[0]
        assert value.imag == 0.0 and abs(value.real / f_h - 1.0) < 0.02


def test_a_point_farther_than_the_doubles_from_a_pole_is_a_numerical_error():
    # 1.7e308 - (-1e307) is past the largest double: that term would drop
    # out of every sum (reconstruct read 2.5 here, the value is about 2.02,
    # and weyl's F' NaN).  Point and grid raise alike, without a warning.
    lam = [-1e307, 0.0, 1.0]
    s = SampleSet(h=1.3, nodes=lam, node_weights=[1.0] * 3,
                  values=[1.0, 2.0, 3.0])
    m = new_model(lam, [1.0] * 3)
    # Masses of 1e278, near the largest the door takes here, leave the
    # near node's term below the zero certificate's slack at 1.7e308
    # (masses of 1e308 cleared it): a grid hands the point to PoleSet.at,
    # whose guard raises.
    heavy = SampleSet(h=1.3, nodes=[-1e307, 1e308], node_weights=[1e278] * 2,
                      values=[1.0, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in [(s, 1.7e308), (s, [1e300j, 1.7e308]), (heavy, 1.7e308),
                  (heavy, [1j, 1.7e308])]:
            with pytest.raises(NumericalError) as e:
                reconstruct(*z)
            assert str(e.value) == ("sampling node - z overflows at "
                                    "z=(1.7e+308+0j)")
        for call in (lambda: transform(m, StateVector([1.0, 2.0, 3.0]),
                                       1.7e308 + 1j),
                     lambda: weyl(m, 1.7e308),
                     lambda: weyl(m, 1.7e308 - 1.7e308j),
                     lambda: weyl(new_model([-1.0, 0.0, 1e307], [1.0] * 3),
                                  -1.7e308)):
            with pytest.raises(NumericalError, match="^eigenvalue - z over"):
                call()
        # At 8e307 the largest difference, 9e307, is still a double.
        assert math.isfinite(weyl(m, 8e307)[0].real)


def test_a_sample_set_whose_sum_can_pass_the_doubles_is_refused():
    # F_h's three terms at 1.001 are finite and their sum is not: masses
    # that may sum past 2^929 are refused at the door.
    with pytest.raises(ValidationError, match="normalize"):
        SampleSet(h=1.3, nodes=[0.0, 0.001, 0.002],
                  node_weights=[1.2e308] * 3, values=[1.0, 1.0, 1.0])


def test_public_helpers_past_the_doubles_raise_without_a_warning():
    # Terms past the doubles gave inf+0j, or a ValidationError about the
    # coordinates they made, each after numpy's warning.  A form whose
    # coefficients may sum past 2^929 is refused at the door, and a state
    # computed from accepted inputs past the doubles or the state's door
    # (a norm of 2^464) is a NumericalError.
    with pytest.raises(ValidationError, match="normalize"):
        MeromorphicRep(1.0, [0.0, 1.0], [1e308, -1e308])
    m = new_model([0.0, 1.0, 2.0], [1.0, 1e-299, 1.0])
    zeros = perturbed_spectrum(m, Coupling.infinite())
    assert zeros.tolist() == [1.0, 1.0]
    unit = new_model([0.0, 1.0, 2.0], [1.0] * 3)
    rep = to_partial_fractions(normalize(unit), StateVector([1.0, 2.0, 3.0]))
    heavy = MeromorphicRep(rep.constant, rep.poles, rep.coefficients * 1e250)
    door = "at or past 2.464.*normalize"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for pole in zeros:
            with pytest.raises(NumericalError,
                               match="^pole 1.0 lies on an eigenvalue$"):
                omega_state(m, pole)
        with pytest.raises(NumericalError, match="^coords must be finite$"):
            apply_perturbed(unit, 1e308, StateVector([1e100, 1.0, 1.0]))
        with pytest.raises(NumericalError, match=door):
            apply_perturbed(unit, 1e200, StateVector([1.0, 1.0, 1.0]))
        with pytest.raises(NumericalError, match=door):
            omega_state(unit, 1e-200)
        with pytest.raises(NumericalError, match=door):
            mu_state(new_model([0.0, 1.0], [2.0 ** 928, 1.0]))
        with pytest.raises(NumericalError, match=door):
            from_partial_fractions(normalize(unit), heavy)
        # At this zero w of f the swap's multiplier on the pole at 0 is
        # e^(-i pi/4): it turns phi_0 = a (1 + i), whose parts are the
        # state's largest, into a sqrt(2), past the door.
        w = 0.5 + 0.5j * math.tan(math.pi / 8)
        p = (1 - 2.0 ** -20) * 2.0 ** 464 / math.sqrt(6.0) * (1 + 1j)
        phi = StateVector([p, -(p / -w + p / (2 - w)) * (1 - w), p])
        with pytest.raises(NumericalError, match=door):
            blaschke_swap(unit, phi, w)


# Every argument that counts (a degree, a size, levels, terms or points),
# as (function, the argument's name in the error).
COUNTS = [
    (lambda n: hermite_overlap(n, 128), "n"),
    (lambda n: hermite_overlap(3, n), "quad_points"),
    (lambda n: polys(JAC, 0.5 + 1j, n), "polynomial degree"),
    (lambda n: truncate(JAC, n), "truncation size"),
    (lambda n: sturm_count(JAC, n, 2.5), "polynomial degree"),
    (lambda n: jm_reconstruct(JAC, n, S10, 0.5 + 1j), "polynomial degree"),
    (oscillator_model, "levels"),
    (lambda n: osc_F_series(0.5 + 1j, n), "terms"),
    (lambda n: osc_F_tail_bound(0.5 + 1j, n), "terms"),
    (lambda n: osc_F_integral(0.5 + 1j, n), "quad_points"),
]


@pytest.mark.parametrize("value", [2.5, True, -1, "3"])
@pytest.mark.parametrize("call,what", COUNTS,
                         ids=[f"{i}-{what}" for i, (_, what)
                              in enumerate(COUNTS)])
def test_a_count_that_is_not_one_is_a_validation_error(call, what, value):
    # hermite_overlap(-1, 128) returned the n = 1 overlap and polys(p, z,
    # True) ran degree 1; floats and strings raised a bare TypeError, and
    # negative terms and points a bare ValueError.
    with pytest.raises(ValidationError, match=f"^{what} must be "):
        call(value)


# Arguments that once skipped the input rule, as (call, value, error):
# node_weights raised a bare ValueError for strings, returned weights for
# 2-d nodes and InconsistentNodes for booleans or a NaN; sturm_count took
# "0.5" and True and counted 0 at NaN; mu_pointwise took "1.0" and gave NaN
# at inf; omega_state raised a bare UFuncTypeError for a string, took True
# as 1.0 and called NaN an overflow.
MALFORMED = [
    (lambda v: node_weights(M, 1.3, v), ["a"] * 6, ValidationError),
    (lambda v: node_weights(M, 1.3, v), [S.nodes], DimensionMismatch),
    (lambda v: node_weights(M, 1.3, v), [True] * 6, ValidationError),
    (lambda v: node_weights(M, 1.3, v), np.r_[math.nan, S.nodes[1:]],
     ValidationError),
    (lambda v: sturm_count(JAC, 3, v), "0.5", ValidationError),
    (lambda v: sturm_count(JAC, 3, v), True, ValidationError),
    (lambda v: sturm_count(JAC, 3, v), math.nan, ValidationError),
    (mu_pointwise, "1.0", ValidationError),
    (mu_pointwise, math.inf, ValidationError),
    (mu_pointwise, math.nan, ValidationError),
    (lambda v: omega_state(M, v), "0.5", ValidationError),
    (lambda v: omega_state(M, v), True, ValidationError),
    (lambda v: omega_state(M, v), math.nan, ValidationError),
]


@pytest.mark.parametrize("call,value,error", MALFORMED,
                         ids=[f"{i}-{error.__name__}" for i, (_, _, error)
                              in enumerate(MALFORMED)])
def test_a_malformed_argument_is_refused_by_the_input_rule(call, value,
                                                           error):
    with pytest.raises(error):
        call(value)


def test_extreme_models_return_or_raise_a_spectral_error():
    # Every public evaluator, on weights from 2e-300 to 1e308, eigenvalues
    # up to 1e307 in size, |z| up to 1.7e308 and couplings from the
    # smallest subnormal to 1e300, returns or raises a SpectralError; so
    # does weyl_h at the nodes, where 1 + hF can round to exactly 0.  The
    # suite's filter makes a RuntimeWarning an error: none may warn first.
    # Weights of half and a fifth of the largest total below the door
    # (2^929) reach the largest models it accepts.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    small = st.integers(-4, 4).map(lambda k: k / 2)

    @hypothesis.settings(derandomize=True, max_examples=150, deadline=None,
                         database=None)
    @hypothesis.given(
        data=st.integers(2, 5).flatmap(lambda n: st.tuples(
            st.lists(st.floats(-1e307, 1e307) | small, min_size=n,
                     max_size=n, unique=True),
            st.lists(st.floats(2e-300, 1e308)
                     | st.sampled_from([2e-300, 1e-8, 1.0, 5e307,
                                        _BELOW / 2, _BELOW / 5]),
                     min_size=n, max_size=n),
            st.lists(small, min_size=n, max_size=n))),
        z=st.complex_numbers(max_magnitude=1.7e308, allow_nan=False,
                             allow_infinity=False)
        | st.complex_numbers(max_magnitude=4.0),
        h=st.sampled_from([0.0, 5e-324, 1e-8, 1.3, 1e8, 1e300]))
    def check(data, z, h):
        lam, w, coords = data
        try:
            m = new_model(sorted(lam), w)
            nodes = perturbed_spectrum(m, Coupling.finite(h))
        except SpectralError:
            return
        phi = StateVector(np.array(coords) + 1j)
        calls = [lambda: weyl(m, z), lambda: weyl_h(m, h, z),
                 lambda: xi(m, z), lambda: xi_norm_sq(m, z.real),
                 lambda: transform(m, phi, z),
                 lambda: node_weights(m, h, nodes),
                 lambda: inner_h(m, h, phi, phi),
                 lambda: to_partial_fractions(normalize(m), phi),
                 lambda: evaluate_rep(to_partial_fractions(normalize(m), phi),
                                      z),
                 lambda: apply_perturbed(m, h, phi)]
        calls += [lambda x=x: weyl_h(m, h, x) for x in nodes]
        try:
            calls += [lambda x=x: omega_state(m, x)
                      for x in perturbed_spectrum(m, Coupling.infinite())]
        except SpectralError:
            pass
        try:
            s = sample(m, phi, h)
            calls += [lambda: reconstruct(s, z), lambda: reconstruct(s, [z]),
                      lambda: kramer_reconstruct(m, s, z)]
        except SpectralError:
            pass
        for call in calls:
            try:
                call()
            except SpectralError:
                pass

    check()
