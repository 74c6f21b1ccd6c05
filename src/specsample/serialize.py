"""JSON encodings of models, states, samples, representations, and grids.

Complex scalars are encoded everywhere as two-element arrays [re, im].
"""
from __future__ import annotations

import json
import operator

import numpy as np

from .errors import ValidationError
from .jacobi import JacobiParams, truncate
from .model import MeromorphicRep, SampleSet, SpectralModel, StateVector, new_model
from .oscillator import oscillator_model


def _complex_from(pair) -> complex:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ValidationError(f"expected [re, im], got {pair!r}")
    return complex(float(pair[0]), float(pair[1]))


def _complex_to(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _field(data: dict, key: str, convert):
    """convert(data[key]), with a missing or unconvertible field reported."""
    if key not in data:
        raise ValidationError(f"missing field {key!r}")
    try:
        return convert(data[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"bad field {key!r}: {exc}") from exc


def _floats(value) -> np.ndarray:
    return np.array(value, dtype=float)


def _complexes(value) -> list[complex]:
    return [_complex_from(p) for p in value]


def model_from_dict(data: dict) -> SpectralModel:
    kind = data.get("kind", "explicit")
    if kind == "explicit":
        return new_model(_field(data, "eigenvalues", _floats),
                         _field(data, "weights", _floats))
    if kind == "jacobi":
        params = JacobiParams(_field(data, "q", _floats),
                              _field(data, "b", _floats))
        return truncate(params, _field(data, "truncation", operator.index))
    if kind == "oscillator":
        return oscillator_model(_field(data, "levels", operator.index),
                                bool(data.get("normalized", False)))
    raise ValidationError(f"unknown model kind {kind!r}")


def model_to_dict(model: SpectralModel) -> dict:
    return {
        "kind": "explicit",
        "eigenvalues": model.eigenvalues.tolist(),
        "weights": model.weights.tolist(),
    }


def state_from_dict(data: dict) -> StateVector:
    return StateVector(_field(data, "coords", _complexes))


def state_to_dict(phi: StateVector) -> dict:
    return {"coords": [_complex_to(c) for c in phi.coords]}


def samples_from_dict(data: dict) -> SampleSet:
    return SampleSet(
        h=_field(data, "h", float),
        nodes=_field(data, "nodes", _floats),
        node_weights=_field(data, "weights", _floats),
        values=_field(data, "values", _complexes),
    )


def samples_to_dict(samples: SampleSet) -> dict:
    return {
        "h": samples.h,
        "nodes": samples.nodes.tolist(),
        "weights": samples.node_weights.tolist(),
        "values": [_complex_to(v) for v in samples.values],
    }


def rep_from_dict(data: dict) -> MeromorphicRep:
    return MeromorphicRep(
        constant=_field(data, "c", _complex_from),
        poles=_field(data, "poles", _floats),
        coefficients=_field(data, "coeffs", _complexes),
    )


def rep_to_dict(rep: MeromorphicRep) -> dict:
    return {
        "c": _complex_to(rep.constant),
        "poles": rep.poles.tolist(),
        "coeffs": [_complex_to(c) for c in rep.coefficients],
    }


def grid_from_dict(data: dict) -> list[complex]:
    return _field(data, "points", _complexes)


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    return data


def fmt(x: float) -> str:
    """Decimal rendering with 17 significant digits, locale-free."""
    return format(float(x), ".17g")
