import numpy as np
import pytest

from specsample import (
    Coupling,
    DimensionMismatch,
    JacobiParams,
    MeromorphicRep,
    NonPositiveWeight,
    SampleSet,
    SpectralModel,
    StateVector,
    UnsortedEigenvalues,
    ValidationError,
    apply_perturbed,
    mu_inner,
    new_model,
    node_weights,
    normalize,
    weyl_h,
)


def test_new_model_basic(m2):
    assert m2.dim == 2
    assert m2.mu_norm_sq == 1.0
    np.testing.assert_array_equal(m2.eigenvalues, [0.0, 2.0])


def test_new_model_sum_of_weights():
    m = new_model([1, 3, 5], [1, 1, 0.5])
    assert m.mu_norm_sq == 2.5


def test_new_model_rejects_unsorted():
    with pytest.raises(UnsortedEigenvalues):
        new_model([2, 0], [0.5, 0.5])


def test_new_model_rejects_duplicates():
    with pytest.raises(UnsortedEigenvalues):
        new_model([1, 1], [0.5, 0.5])


def test_new_model_rejects_bad_weights():
    with pytest.raises(NonPositiveWeight):
        new_model([0, 1], [0.5, 0.0])
    with pytest.raises(NonPositiveWeight):
        new_model([0, 1], [0.5, -1.0])
    with pytest.raises(NonPositiveWeight):
        new_model([0, 1], [0.5, 1e-310])
    with pytest.raises(ValidationError, match="weights sum"):
        new_model([0, 1], [1e308, 1e308])


def test_new_model_rejects_a_spread_past_the_doubles():
    # Its scale, and with it every node tolerance and pole radius, would be
    # inf.
    with pytest.raises(ValidationError, match="spread past the largest"):
        new_model([-1e308, 1e308], [1.0, 1.0])
    assert new_model([-8e307, 8e307], [1.0, 1.0]).scale == 1.6e308


def test_new_model_rejects_mismatch_and_small():
    with pytest.raises(DimensionMismatch):
        new_model([0, 1, 2], [0.5, 0.5])
    with pytest.raises(ValidationError):
        new_model([0.0], [1.0])
    # A state of another dimension broadcast against the weights: mu_inner
    # returned 3+0j here.
    with pytest.raises(DimensionMismatch):
        mu_inner(new_model([0, 1, 2], [1.0] * 3), StateVector([1.0]))


def test_round_trip_preserves_fields():
    lam = [0.1, 0.7, 2.3]
    w = [0.25, 0.5, 0.125]
    m = new_model(lam, w)
    assert m.eigenvalues.tolist() == lam
    assert m.weights.tolist() == w


def test_normalize(m2):
    assert normalize(m2).weights.tolist() == [0.5, 0.5]
    m = normalize(new_model([1, 3, 5], [1, 1, 0.5]))
    np.testing.assert_allclose(m.weights, [0.4, 0.4, 0.2])
    assert m.mu_norm_sq == 1.0
    m = normalize(new_model([0, 1], [2, 2]))
    np.testing.assert_allclose(m.weights, [0.5, 0.5])


def test_normalize_idempotent():
    m = new_model([0, 1, 4], [0.3, 0.9, 1.7])
    once = normalize(m)
    twice = normalize(once)
    np.testing.assert_array_equal(once.weights, twice.weights)
    np.testing.assert_array_equal(once.eigenvalues, twice.eigenvalues)


def test_model_immutable(m2):
    with pytest.raises(ValueError):
        m2.eigenvalues[0] = 5.0


def test_sqrt_weights_are_held_once_per_model():
    m = new_model([0.0, 1.0, 2.5], [2e-300, 0.3, 7.0])
    root = m.sqrt_weights
    assert root is m.sqrt_weights
    assert not root.flags.writeable
    assert root.tobytes() == np.sqrt(m.weights).tobytes()
    with pytest.raises(ValueError):
        root[0] = 1.0
    assert "sqrt_weights" not in repr(m)


def test_coupling():
    assert Coupling.finite(1.5).value == 1.5
    assert Coupling.infinite().is_infinite
    assert not Coupling.finite(0.0).is_infinite
    with pytest.raises(ValidationError):
        Coupling.finite(float("inf"))


def test_state_vector_validation():
    phi = StateVector([1.0, 1j])
    assert phi.dim == 2
    with pytest.raises(ValidationError):
        StateVector([1.0, float("nan")])


def test_sample_set_validation():
    SampleSet(h=1.0, nodes=[0.0, 1.0], node_weights=[0.5, 0.5],
              values=[1.0, 2.0])
    with pytest.raises(UnsortedEigenvalues):
        SampleSet(h=1.0, nodes=[1.0, 0.0], node_weights=[0.5, 0.5],
                  values=[1.0, 2.0])
    with pytest.raises(NonPositiveWeight):
        SampleSet(h=1.0, nodes=[0.0, 1.0], node_weights=[0.5, 0.0],
                  values=[1.0, 2.0])
    with pytest.raises(ValidationError):
        SampleSet(h=float("inf"), nodes=[0.0, 1.0],
                  node_weights=[0.5, 0.5], values=[1.0, 2.0])
    with pytest.raises(ValidationError):
        SampleSet(h=1.0, nodes=[], node_weights=[], values=[])


def test_meromorphic_rep_validation():
    MeromorphicRep(constant=1.0, poles=[], coefficients=[])
    with pytest.raises(DimensionMismatch):
        MeromorphicRep(constant=1.0, poles=[1.0], coefficients=[])
    with pytest.raises(UnsortedEigenvalues):
        MeromorphicRep(constant=1.0, poles=[2.0, 1.0],
                       coefficients=[1.0, 1.0])


def test_sample_and_partial_fraction_data_must_be_finite():
    # np.diff(x) <= 0 is false for NaN, so order alone lets NaN through.
    nan, inf = float("nan"), float("inf")
    for nodes, values in (([nan, 2.0], [1.0, nan]), ([0.0, inf], [1.0, 2.0]),
                          ([0.0, 2.0], [1.0, nan]), ([nan], [1.0])):
        with pytest.raises(ValidationError, match="must be finite"):
            SampleSet(h=1.0, nodes=nodes, node_weights=[0.5] * len(nodes),
                      values=values)
    for poles, coeffs in (([nan, 1.0], [1.0, 1.0]), ([0.0, 1.0], [nan, 1.0]),
                          ([0.0, inf], [1.0, 1.0])):
        with pytest.raises(ValidationError, match="must be finite"):
            MeromorphicRep(constant=0.0, poles=poles, coefficients=coeffs)


def test_data_types_hold_read_only_copies():
    # Each type stores its own frozen copy: the caller's arrays stay
    # writable, and writing to them leaves the stored data unchanged.
    lam, w = np.array([0.0, 1.0]), np.array([0.5, 0.5])
    c = np.zeros(2, complex)
    held = [
        (SpectralModel(lam, w), ("eigenvalues", "weights")),
        (new_model(lam, w), ("eigenvalues", "weights")),
        (StateVector(c), ("coords",)),
        (SampleSet(h=1.0, nodes=lam, node_weights=w, values=c),
         ("nodes", "node_weights", "values")),
        (MeromorphicRep(constant=0.0, poles=lam, coefficients=c),
         ("poles", "coefficients")),
        (JacobiParams(lam, w), ("q", "b")),
    ]
    for a in (lam, w, c):
        a[0] = 7.0
    for obj, names in held:
        for name in names:
            stored = getattr(obj, name)
            assert not stored.flags.writeable
            assert stored[0] != 7.0


# Each data type, and Coupling.finite, with one field replaced by a value:
# (type, field, whether the field is a scalar, builder).
FIELDS = [
    (SpectralModel, "eigenvalues", False,
     lambda v: new_model(v, [0.5, 0.5])),
    (SpectralModel, "weights", False, lambda v: new_model([0.0, 1.0], v)),
    (StateVector, "coords", False, StateVector),
    (SampleSet, "h", True, lambda v: SampleSet(
        h=v, nodes=[0.0, 1.0], node_weights=[0.5, 0.5], values=[1.0, 2.0])),
    (SampleSet, "nodes", False, lambda v: SampleSet(
        h=1.0, nodes=v, node_weights=[0.5, 0.5], values=[1.0, 2.0])),
    (SampleSet, "node_weights", False, lambda v: SampleSet(
        h=1.0, nodes=[0.0, 1.0], node_weights=v, values=[1.0, 2.0])),
    (SampleSet, "values", False, lambda v: SampleSet(
        h=1.0, nodes=[0.0, 1.0], node_weights=[0.5, 0.5], values=v)),
    (MeromorphicRep, "constant", True, lambda v: MeromorphicRep(
        constant=v, poles=[0.0, 1.0], coefficients=[1.0, 2.0])),
    (MeromorphicRep, "poles", False, lambda v: MeromorphicRep(
        constant=1.0, poles=v, coefficients=[1.0, 2.0])),
    (MeromorphicRep, "coefficients", False, lambda v: MeromorphicRep(
        constant=1.0, poles=[0.0, 1.0], coefficients=v)),
    (JacobiParams, "q", False, lambda v: JacobiParams(v, [1.0, 1.0])),
    (JacobiParams, "b", False, lambda v: JacobiParams([0.0, 1.0], v)),
    (Coupling, "coupling", True, Coupling.finite),
    (weyl_h, "h", True, lambda v: weyl_h(new_model([0.0, 1.0], [0.5, 0.5]),
                                         v, 1j)),
    (apply_perturbed, "h", True, lambda v: apply_perturbed(
        new_model([0.0, 1.0], [0.5, 0.5]), v, StateVector([1.0, 2.0]))),
    (node_weights, "h", True, lambda v: node_weights(
        new_model([0.0, 1.0], [0.5, 0.5]), v, [0.5, 1.5])),
]
# A string that float() or complex() would parse is not a number either.
BAD = {"string": "x", "number-string": "1", "ragged": [1.0, [2.0, 3.0]],
       "nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"),
       "10**400": 10 ** 400}


@pytest.mark.parametrize("bad", sorted(BAD))
@pytest.mark.parametrize("kind,name,scalar,build", FIELDS,
                         ids=[f"{f[0].__name__}-{f[1]}" for f in FIELDS])
def test_malformed_input_is_a_validation_error_naming_the_field(
        kind, name, scalar, build, bad):
    # A ValidationError (or subclass), never numpy's or float()'s
    # ValueError, TypeError or OverflowError.
    value = BAD[bad]
    if not scalar and bad != "ragged":
        value = [value, 1.0]
    with pytest.raises(ValidationError, match=rf"^{name} must be"):
        build(value)


@pytest.mark.parametrize("build", [
    lambda: new_model([0.0, 1.0], [True, True]),
    lambda: StateVector([True, False]),
    lambda: Coupling.finite(True),
    lambda: SampleSet(h=True, nodes=[0.0, 1.0], node_weights=[0.5, 0.5],
                      values=[1.0, 2.0]),
    lambda: MeromorphicRep(constant=b"1", poles=[0.0], coefficients=[1.0]),
], ids=["weights", "coords", "coupling", "h", "bytes-constant"])
def test_booleans_and_bytes_are_not_numbers(build):
    with pytest.raises(ValidationError, match="must be"):
        build()
