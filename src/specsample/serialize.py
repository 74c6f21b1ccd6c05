"""JSON encodings of models, states, samples, and grids.

Complex scalars are encoded everywhere as two-element arrays [re, im].
"""
from __future__ import annotations

import json

from .errors import ValidationError
from .model import SampleSet, SpectralModel, StateVector, new_model


def _complex_from(pair) -> complex:
    """[re, im] of two JSON numbers; a part that is not finite is left to
    the consumer."""
    if isinstance(pair, (list, tuple)) and len(pair) == 2:
        re, im = pair
        if type(re) in (int, float) and type(im) in (int, float):
            return complex(re, im)
    raise ValidationError(f"expected [re, im] of numbers, got {pair!r}")


def _complex_to(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _field(data: dict, key: str, convert=lambda value: value):
    """convert(data[key]), with a missing or unconvertible field reported."""
    if key not in data:
        raise ValidationError(f"missing field {key!r}")
    try:
        return convert(data[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"bad field {key!r}: {exc}") from exc


def _complexes(value) -> list[complex]:
    return [_complex_from(p) for p in value]


def model_from_dict(data: dict) -> SpectralModel:
    kind = data.get("kind", "explicit")
    if kind == "explicit":
        return new_model(_field(data, "eigenvalues"), _field(data, "weights"))
    if kind == "jacobi":
        from .jacobi import JacobiParams, truncate

        params = JacobiParams(_field(data, "q"), _field(data, "b"))
        return truncate(params, _field(data, "truncation"))
    if kind == "oscillator":
        from .oscillator import oscillator_model

        normalized = data.get("normalized", False)
        if not isinstance(normalized, bool):
            raise ValidationError("bad field 'normalized': not a boolean")
        return oscillator_model(_field(data, "levels"),
                                normalized)
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
        h=_field(data, "h"),
        nodes=_field(data, "nodes"),
        node_weights=_field(data, "weights"),
        values=_field(data, "values", _complexes),
    )


def samples_to_dict(samples: SampleSet) -> dict:
    return {
        "h": samples.h,
        "nodes": samples.nodes.tolist(),
        "weights": samples.node_weights.tolist(),
        "values": [_complex_to(v) for v in samples.values],
    }


def grid_from_dict(data: dict) -> list[complex]:
    return _field(data, "points", _complexes)


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    return data


def fmt(x: float) -> str:
    """Decimal rendering with 17 significant digits, locale-free."""
    return format(float(x), ".17g")
