import ast
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import specsample
from specsample import (
    NumericalError,
    PoleProximity,
    StateVector,
    new_model,
    reconstruct,
    sample,
)
from specsample.cli import main
from specsample.serialize import samples_from_dict, samples_to_dict

from conftest import layout_model, random_state

M2 = {"kind": "explicit", "eigenvalues": [0.0, 2.0], "weights": [0.5, 0.5]}
MU = {"coords": [[0.7071067811865476, 0.0], [0.7071067811865476, 0.0]]}
E1 = {"coords": [[1.0, 0.0], [0.0, 0.0]]}


def _explicit(m):
    return {"kind": "explicit", "eigenvalues": m.eigenvalues.tolist(),
            "weights": m.weights.tolist()}


@pytest.fixture
def files(tmp_path):
    def write(name, payload):
        p = tmp_path / name
        p.write_text(json.dumps(payload))
        return str(p)

    return write


def test_spectrum_h1(files, capsys):
    assert main(["spectrum", "--model", files("m.json", M2),
                 "--coupling", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["nodes"] == pytest.approx([0.381966, 2.618034], abs=1e-6)
    assert out["weights"] == pytest.approx([0.276393, 0.723607], abs=1e-6)


def test_spectrum_h0(files, capsys):
    assert main(["spectrum", "--model", files("m.json", M2),
                 "--coupling", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["nodes"] == [0.0, 2.0]
    assert out["weights"] == [0.5, 0.5]


def test_spectrum_infinite(files, capsys):
    assert main(["spectrum", "--model", files("m.json", M2),
                 "--coupling", "inf"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["nodes"] == pytest.approx([1.0], abs=1e-9)
    assert "weights" not in out


@pytest.mark.parametrize("n, magnitude", [(100, "10^-314.7"),
                                          (120, "10^-396.3")],
                         ids=["100", "120"])
def test_spectrum_jacobi_weight_overflow_is_a_numerical_failure(files, capsys,
                                                                 n, magnitude):
    # q_k = k - 1, b_k = 1: the smallest weight falls below the model floor.
    jac = {"kind": "jacobi", "q": list(range(n)), "b": [1.0] * (n - 1),
           "truncation": n}
    assert main(["spectrum", "--model", files("j.json", jac),
                 "--coupling", "inf"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:")
    assert "floor 1e-300" in err and magnitude in err


def test_spectrum_bad_model(files, capsys):
    bad = {"kind": "explicit", "eigenvalues": [2.0, 0.0],
           "weights": [0.5, 0.5]}
    assert main(["spectrum", "--model", files("m.json", bad),
                 "--coupling", "1"]) == 2


@pytest.mark.parametrize("model", [
    {"kind": "explicit", "eigenvalues": [0.0, 2.0]},
    {"kind": "explicit", "eigenvalues": ["a", 2.0], "weights": [0.5, 0.5]},
    {"kind": "jacobi", "q": [1, 2, 3], "b": [1, 1], "truncation": "x"},
    {"kind": "oscillator", "levels": 2.5},
    {"kind": "explicit", "eigenvalues": [0.0, 1.0], "weights": [1e308, 1e308]},
], ids=["missing-weights", "non-numeric-eigenvalues", "truncation-x",
        "non-integer-levels", "weights-overflow"])
def test_spectrum_malformed_model(files, capsys, model):
    assert main(["spectrum", "--model", files("m.json", model),
                 "--coupling", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_spectrum_bad_coupling(files):
    assert main(["spectrum", "--model", files("m.json", M2),
                 "--coupling", "nope"]) == 2


def test_sample_mu(files, capsys):
    assert main(["sample", "--model", files("m.json", M2),
                 "--state", files("s.json", MU), "--coupling", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["h"] == 1.0
    for re, im in out["values"]:
        assert re == pytest.approx(1.0, abs=1e-9)
        assert im == pytest.approx(0.0, abs=1e-12)


def test_sample_e1_h0(files, capsys):
    assert main(["sample", "--model", files("m.json", M2),
                 "--state", files("s.json", E1), "--coupling", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["values"][0][0] == pytest.approx(1.414214, abs=1e-6)
    assert out["values"][1][0] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("coupling", ["1", "1e-8"])
def test_sample_beside_a_weight_at_the_floor(files, capsys, coupling):
    # The root beside the weight of 1e-299 at 0 keeps a positive mass.
    model = {"kind": "explicit", "eigenvalues": [0.0, 1.0, 2.0],
             "weights": [1e-299, 1.0, 1.0]}
    state = {"coords": [[1.0, 0.0], [0.0, 1.0], [2.0, 0.0]]}
    assert main(["sample", "--model", files("m.json", model),
                 "--state", files("s.json", state),
                 "--coupling", coupling]) == 0
    out = json.loads(capsys.readouterr().out)
    assert all(m > 0.0 for m in out["weights"])


def test_sample_with_an_underflowed_node_mass_is_a_numerical_failure(
        files, capsys):
    m = layout_model(26, "clusters", True, 116987)
    model = {"kind": "explicit", "eigenvalues": m.eigenvalues.tolist(),
             "weights": m.weights.tolist()}
    state = {"coords": [[1.0, 0.0]] * 26}
    assert main(["sample", "--model", files("m.json", model), "--state",
                 files("phi.json", state), "--coupling", "1e8"]) == 3
    assert "has no positive mass" in capsys.readouterr().err


def test_spectrum_with_an_underflowed_node_mass_is_a_numerical_failure(
        files, capsys):
    model = _explicit(layout_model(26, "clusters", True, 116987))
    assert main(["spectrum", "--model", files("m.json", model),
                 "--coupling", "1e8"]) == 3
    assert "has no positive mass" in capsys.readouterr().err


def test_spectrum_with_a_node_2_to_511_from_its_origin_is_a_numerical_failure(
        files, capsys):
    model = {"kind": "explicit", "eigenvalues": [0.0, 1.0, 2.0],
             "weights": [0.5, 0.25, 0.25]}
    assert main(["spectrum", "--model", files("m.json", model),
                 "--coupling", "1e155"]) == 3
    assert "at or past 2^511" in capsys.readouterr().err


# Eigenvalues 0 and 1e-310 around a node at 5e-324: the terms of F there
# are -inf and +inf.
TINY_GAP = {"kind": "explicit", "eigenvalues": [0.0, 1e-310, 1.0],
            "weights": [1.0, 1.0, 1.0]}


@pytest.mark.parametrize("coupling", ["1.3", "-1.3", "1e8"])
def test_spectrum_on_poles_closer_than_the_overflow_is_a_numerical_failure(
        files, capsys, coupling):
    # w/(lam_j - x)^2 overflows for the other pole of the pair, so the mass
    # at the root is lost: R', the sum of F' over the other poles, is inf.
    assert main(["spectrum", "--model", files("m.json", TINY_GAP),
                 "--coupling", coupling]) == 3
    assert "F' over the other poles overflows" in capsys.readouterr().err


def test_verify_with_a_pole_on_an_eigenvalue_is_a_numerical_failure(
        files, capsys):
    model = _explicit(layout_model(20, "pole-at-0", True, 5))
    assert main(["verify", "--model", files("m.json", model)]) == 3
    assert "on an eigenvalue" in capsys.readouterr().err


# Extreme model files for the exit-code sweep: the reproducers of past
# faults (poles closer than the overflow, node masses that underflow,
# nodes within the overflow of a pole, zeros of F on an eigenvalue).
SWEEP_MODELS = {
    "tiny-gap": TINY_GAP,
    "weight-1e-40": {"kind": "explicit", "eigenvalues": [0.0, 1.0, 2.0],
                     "weights": [1.0, 1e-40, 1.0]},
    "weight-1e-299": {"kind": "explicit", "eigenvalues": [0.0, 1.0, 2.0],
                      "weights": [1e-299, 1.0, 1.0]},
    "pole-at-0": _explicit(layout_model(20, "pole-at-0", False, 5)),
    "pole-at-0-tiny": _explicit(layout_model(20, "pole-at-0", True, 5)),
    "clusters-tiny": _explicit(layout_model(26, "clusters", True, 116987)),
}


@pytest.mark.parametrize("name", sorted(SWEEP_MODELS))
def test_extreme_models_exit_within_the_contract(files, name):
    # Every command on every coupling ends in a documented exit code, and
    # main raises nothing.
    model = SWEEP_MODELS[name]
    mfile = files("m.json", model)
    state = files("s.json", {"coords": [[1.0, 0.5]] * len(
        model["eigenvalues"])})
    runs = [["verify", "--model", mfile]]
    for coupling in ("1.3", "-1.3", "0", "1e8", "5e-324", "inf"):
        runs += [["spectrum", "--model", mfile, "--coupling", coupling],
                 ["sample", "--model", mfile, "--state", state,
                  "--coupling", coupling]]
    for argv in runs:
        assert main(argv) in {0, 1, 2, 3, 4}, argv


@pytest.mark.parametrize("model, coords", [
    ({"kind": "explicit", "eigenvalues": [0.0, 1.0], "weights": [1e308, 1.0]},
     [[1e308, 0.0], [0.0, 0.0]]),
    ({"kind": "jacobi", "q": [0.0, 1.0], "b": [1e308], "truncation": 2},
     [[1.0, 0.0], [0.0, 1.0]]),
    ({"kind": "oscillator", "levels": 10 ** 400}, [[1.0, 0.0]] * 2),
], ids=["numerators-past-the-doubles", "jacobi-b-squared-overflows",
        "oscillator-levels-10**400"])
def test_files_past_the_doubles_fail_without_a_warning(files, capsys, model,
                                                       coords):
    # Each warned (the suite makes a RuntimeWarning an error) or, for the
    # oscillator, allocated levels until memory ran out.
    mfile = files("m.json", model)
    state = files("s.json", {"coords": coords})
    assert main(["spectrum", "--model", mfile, "--coupling", "1.3"]) in {2, 3}
    assert main(["sample", "--model", mfile, "--state", state,
                 "--coupling", "1.3"]) in {2, 3}


def test_sample_infinite_rejected(files):
    assert main(["sample", "--model", files("m.json", M2),
                 "--state", files("s.json", MU), "--coupling", "inf"]) == 4


def test_sample_dimension_mismatch(files):
    short = {"coords": [[1.0, 0.0]]}
    assert main(["sample", "--model", files("m.json", M2),
                 "--state", files("s.json", short), "--coupling", "1"]) == 2


def test_reconstruct_round_trip(files, capsys):
    model = files("m.json", M2)
    assert main(["sample", "--model", model,
                 "--state", files("s.json", E1), "--coupling", "1"]) == 0
    samples = capsys.readouterr().out
    sfile = files("samples.json", json.loads(samples))
    grid = files("grid.json", {"points": [[0.0, 1.0]]})
    assert main(["reconstruct", "--samples", sfile, "--grid", grid,
                 "--model", model]) == 0
    row = capsys.readouterr().out.strip().split(",")
    assert len(row) == 6
    assert float(row[2]) == pytest.approx(1.060660, abs=1e-6)
    assert float(row[3]) == pytest.approx(0.353553, abs=1e-6)
    assert float(row[4]) == pytest.approx(1.060660, abs=1e-6)


def test_reconstruct_grid_at_node(files, capsys):
    model = files("m.json", M2)
    assert main(["sample", "--model", model,
                 "--state", files("s.json", MU), "--coupling", "1"]) == 0
    samples = json.loads(capsys.readouterr().out)
    sfile = files("samples.json", samples)
    grid = files("grid.json", {"points": [[samples["nodes"][0], 0.0]]})
    assert main(["reconstruct", "--samples", sfile, "--grid", grid]) == 3


@pytest.mark.parametrize("point", [[1e300, 0.0], [0.0, -1e300]])
def test_reconstruct_where_g_h_overflows_is_a_numerical_failure(files, capsys,
                                                                 point):
    # Tiny masses make F_h = sum m_j/(x_j - z) so small at |z| = 1e300 that
    # G_h = 1/F_h is past the largest double.
    m = layout_model(40, "random", True, 3)
    phi = random_state(np.random.default_rng(3), 40)
    sfile = files("samples.json", samples_to_dict(sample(m, phi, 1.3)))
    grid = files("grid.json", {"points": [point]})
    assert main(["reconstruct", "--samples", sfile, "--grid", grid]) == 3
    assert "G_h = 1/F_h overflows" in capsys.readouterr().err


@pytest.mark.parametrize("samples,grid", [
    (None, '{"points": [[1e999, 0]]}'),
    (None, '{"points": [[0.5, 1e999]]}'),
    (None, '{"points": [[NaN, 0]]}'),
    ('{"h": 1, "nodes": [], "weights": [], "values": []}',
     '{"points": [[0, 1]]}'),
    ('{"h": 1.0, "nodes": [NaN, 2.0], "weights": [0.5, 0.5], '
     '"values": [[1, 0], [NaN, 0]]}', '{"points": [[0, 1]]}'),
], ids=["infinite-point", "infinite-imaginary-part", "nan-point",
        "empty-samples", "nan-samples"])
def test_reconstruct_malformed_input(tmp_path, files, capsys, samples, grid):
    if samples is None:
        assert main(["sample", "--model", files("m.json", M2),
                     "--state", files("s.json", MU), "--coupling", "1"]) == 0
        samples = capsys.readouterr().out
    (tmp_path / "samples.json").write_text(samples)
    (tmp_path / "grid.json").write_text(grid)
    assert main(["reconstruct", "--samples", str(tmp_path / "samples.json"),
                 "--grid", str(tmp_path / "grid.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


SAMPLES = {"h": 1.0, "nodes": [0.381966011250105, 2.618033988749895],
           "weights": [0.276393202250021, 0.723606797749979],
           "values": [[1.0, 0.0], [1.0, 0.0]]}


@pytest.mark.parametrize("field,key,value", [
    ("model", "eigenvalues", ["0", "2"]),
    ("state", "coords", [["0.7", "0"], [0.7, 0.0]]),
    ("samples", "nodes", ["0.381966011250105", 2.618033988749895]),
    ("grid", "points", [["0.5", "1"]]),
    ("samples", "h", "1"),
], ids=["model", "state", "samples", "grid", "coupling"])
def test_strings_in_a_file_are_not_numbers(files, capsys, field, key, value):
    # float() parses each of these strings: the files used to be read.
    payload = {"model": dict(M2), "state": dict(MU), "samples": dict(SAMPLES),
               "grid": {"points": [[0.5, 1.0]]}}
    payload[field][key] = value
    paths = {k: files(f"{k}.json", v) for k, v in payload.items()}
    assert main(["sample", "--model", paths["model"], "--state",
                 paths["state"], "--coupling", "1"]) == (
        2 if field in ("model", "state") else 0)
    assert main(["reconstruct", "--samples", paths["samples"], "--grid",
                 paths["grid"], "--model", paths["model"]]) == (
        2 if field != "state" else 0)
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("n", [10, 100])
def test_reconstruct_with_the_model_checks_the_sample_masses(files, capsys, n):
    # The barycentric quotient cannot see masses all off by one factor; the
    # Kramer cross-check compares them with the model's.
    m = layout_model(n, "random", False, 1)
    model = files("m.json", _explicit(m))
    state = files("s.json", {"coords": [[1.0, 0.5]] * n})
    assert main(["sample", "--model", model, "--state", state,
                 "--coupling", "1.3"]) == 0
    samples = json.loads(capsys.readouterr().out)
    grid = files("g.json", {"points": [[0.5, 1.0], [3.0, -0.2]]})
    args = ["reconstruct", "--grid", grid, "--samples"]
    assert main(args + [files("x.json", samples), "--model", model]) == 0
    samples["weights"] = [2.0 * w for w in samples["weights"]]
    doubled = files("x2.json", samples)
    assert main(args + [doubled]) == 0
    capsys.readouterr()
    assert main(args + [doubled, "--model", model]) == 3
    assert "has mass" in capsys.readouterr().err


def test_verify_m2(files, capsys):
    assert main(["verify", "--model", files("m.json", M2),
                 "--seed", "42"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("pass") >= 7


def test_verify_jacobi(files, capsys):
    jac = {"kind": "jacobi", "q": [1, 2, 3, 4], "b": [1, 1, 1],
           "truncation": 4}
    assert main(["verify", "--model", files("m.json", jac),
                 "--seed", "7"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_verify_bad_jacobi(files):
    jac = {"kind": "jacobi", "q": [1, 2], "b": [0], "truncation": 2}
    assert main(["verify", "--model", files("m.json", jac),
                 "--seed", "0"]) == 2


def test_verify_oscillator_model(files, capsys):
    osc = {"kind": "oscillator", "levels": 8, "normalized": False}
    assert main(["verify", "--model", files("m.json", osc),
                 "--seed", "3"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_determinism(files, capsys):
    model = files("m.json", M2)
    assert main(["verify", "--model", model, "--seed", "11"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--model", model, "--seed", "11"]) == 0
    assert capsys.readouterr().out == first
    assert main(["demo"]) == 0
    demo1 = capsys.readouterr().out
    assert main(["demo"]) == 0
    assert capsys.readouterr().out == demo1


def test_demo_takes_no_seed(capsys):
    # demo draws nothing at random, so a seed is a usage error.
    with pytest.raises(SystemExit) as exc:
        main(["demo", "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


def test_demo_output_shape(capsys):
    assert main(["demo"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "study,n,discrepancy"
    jac = [l for l in lines if l.startswith("jacobi,")]
    osc = [l for l in lines if l.startswith("oscillator,")]
    assert len(jac) == 4
    assert len(osc) == 15
    discrepancies = [float(l.split(",")[2]) for l in jac]
    assert discrepancies == sorted(discrepancies, reverse=True)
    assert discrepancies[-1] <= 1e-8
    assert all(float(l.split(",")[2]) <= 1e-6 for l in osc)


def test_missing_file():
    assert main(["spectrum", "--model", "/nonexistent.json",
                 "--coupling", "1"]) == 2


@pytest.mark.parametrize("payload", [b"\xff\xfe{",
                                     b"[" * 100_000 + b"]" * 100_000],
                         ids=["not-utf-8", "nested-1e5-deep"])
def test_unreadable_json_is_malformed_input(tmp_path, capsys, payload):
    # A UnicodeDecodeError and a RecursionError in the decoder, which used
    # to end in a traceback.
    path = tmp_path / "m.json"
    path.write_bytes(payload)
    assert main(["spectrum", "--model", str(path), "--coupling", "1"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_verify_negative_seed_is_malformed_input(files, capsys):
    assert main(["verify", "--model", files("m.json", M2),
                 "--seed", "-1"]) == 2
    assert "bad seed -1" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["false", 1])
def test_oscillator_normalized_must_be_a_json_boolean(files, capsys, flag):
    # bool("false") is True: the string used to give the normalized model.
    osc = {"kind": "oscillator", "levels": 4, "normalized": flag}
    assert main(["spectrum", "--model", files("o.json", osc),
                 "--coupling", "1.3"]) == 2
    assert "bad field 'normalized'" in capsys.readouterr().err


@pytest.mark.parametrize("flag, total", [(False, 1.0 + 1.0 + 0.5 + 1 / 6),
                                         (True, 1.0)])
def test_oscillator_normalized_flag_sets_the_total_weight(files, capsys,
                                                          flag, total):
    osc = {"kind": "oscillator", "levels": 4, "normalized": flag}
    assert main(["spectrum", "--model", files("o.json", osc),
                 "--coupling", "1.3"]) == 0
    weights = json.loads(capsys.readouterr().out)["weights"]
    assert sum(weights) == pytest.approx(total, rel=1e-12)


def _out_of_memory(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize("command, callee", [
    ("spectrum", "perturbed_spectrum"), ("sample", "sample"),
    ("reconstruct", "reconstruct"), ("verify", "run_verification")])
def test_running_out_of_memory_is_a_numerical_failure(files, capsys,
                                                      monkeypatch, command,
                                                      callee):
    # No array is allocated: the callee raises as an allocation would.
    from specsample import cli, verify
    from specsample.serialize import model_from_dict, state_from_dict

    samples = sample(model_from_dict(M2), state_from_dict(MU), 1.0)
    # cmd_verify imports run_verification when it runs.
    owner = verify if callee == "run_verification" else cli
    monkeypatch.setattr(owner, callee, _out_of_memory)
    model = files("m.json", M2)
    args = {
        "spectrum": ["--model", model, "--coupling", "inf"],
        "sample": ["--model", model, "--state", files("phi.json", MU),
                   "--coupling", "1"],
        "reconstruct": ["--samples", files("s.json", samples_to_dict(samples)),
                        "--grid", files("g.json", {"points": [[0.5, 1.0]]})],
        "verify": ["--model", model],
    }[command]
    assert main([command, *args]) == 3
    captured = capsys.readouterr()
    assert captured.err == "numerical failure: out of memory\n"
    assert captured.out == ""


def test_reconstruct_names_the_first_failing_grid_point(files, capsys):
    # The grid is one reconstruct call; the point it fails at is named as
    # when each point was a call of its own.
    samples = sample(new_model([0.0, 2.0], [0.5, 0.5]),
                     StateVector([1.0, 0.5j]), 1.0)
    node = float(samples.nodes[1])
    with pytest.raises(PoleProximity) as e:
        reconstruct(samples, node)
    grid = files("grid.json", {"points": [[0.5, 1.0], [node, 0.0],
                                          [0.5, 0.0]]})
    assert main(["reconstruct", "--samples",
                 files("s.json", samples_to_dict(samples)),
                 "--grid", grid]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"grid point 1: {e.value}\n"
    assert captured.out == ""


def test_reconstruct_names_a_grid_point_whose_value_overflows(files, capsys):
    # 1e-7 from the zero of F_h at 0.5 the quotient N_h/F_h is about 5e309,
    # a NumericalError.
    samples = {"h": 1.3, "nodes": [0.0, 1.0], "weights": [1e-300] * 2,
               "values": [[1e303, 0.0], [-1e303, 0.0]]}
    with pytest.raises(NumericalError, match="^N_h/F_h overflows") as e:
        reconstruct(samples_from_dict(samples), 0.5 + 1e-7)
    assert main(["reconstruct", "--samples", files("s.json", samples),
                 "--grid", files("g.json", {"points": [[100.0, 1.0],
                                                       [0.5 + 1e-7, 0.0]]})
                 ]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"grid point 1: {e.value}\n"
    assert captured.out == ""


def test_files_past_the_door_exit_2(files, capsys):
    # A model or sample file whose weights may sum to 2^929 is malformed
    # input.
    half = 2.0 ** 928
    model = files("m.json", {"kind": "explicit", "eigenvalues": [0.0, 1.0],
                             "weights": [half, half]})
    assert main(["spectrum", "--model", model, "--coupling", "1.3"]) == 2
    assert "normalize" in capsys.readouterr().err
    samples = files("s.json", {"h": 1.3, "nodes": [0.0, 1.0],
                               "weights": [half, half],
                               "values": [[0.5, 0.0], [0.0, 0.5]]})
    grid = files("g.json", {"points": [[0.5, 1.0]]})
    assert main(["reconstruct", "--samples", samples, "--grid", grid]) == 2
    assert "normalize" in capsys.readouterr().err


def test_a_sample_set_past_the_door_from_accepted_files_exits_3(files,
                                                                capsys):
    # A coordinate of 1e135 on a weight of 1e-299 gives a value near
    # 1e135 / sqrt(1e-299) at the node beside it, which puts the set's
    # numerators at 2.55e285, past 2^929; the model and the state are
    # accepted.
    model = files("u.json", {"kind": "explicit",
                             "eigenvalues": [0.0, 1.0, 2.0],
                             "weights": [1.0, 1e-299, 1.0]})
    state = files("p.json", {"coords": [[1.0, 0.0], [1e135, 0.0],
                                        [1.0, 0.0]]})
    assert main(["sample", "--model", model, "--state", state,
                 "--coupling", "1.3"]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("numerical failure: the node weights and "
                                   "numerators may sum to 2.55095e+285")
    assert captured.out == ""


def test_a_state_file_past_the_door_exits_2(files, capsys):
    # A state whose norm may reach 2^464 is malformed input, whatever model
    # it meets.
    unit = files("u.json", {"kind": "explicit", "eigenvalues": [0.0, 1.0, 2.0],
                            "weights": [1.0] * 3})
    heavy = files("p.json", {"coords": [[1e300, 0.0], [1.0, 0.0],
                                        [1.0, 0.0]]})
    assert main(["sample", "--model", unit, "--state", heavy,
                 "--coupling", "1.3"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: the coords may have a norm of "
                                   "2.44949e+300, at or past 2^464")
    assert "normalize" in captured.err
    assert captured.out == ""


def test_the_cli_imports_only_the_layers_it_uses():
    # jacobi, oscillator and verify load on first use; the package's
    # public names are those it had when it imported them eagerly.
    code = (
        "import sys, specsample.cli, specsample\n"
        "lazy = ('jacobi', 'oscillator', 'verify')\n"
        "print([m for m in lazy if 'specsample.' + m in sys.modules])\n"
        "print(sorted(specsample.__all__))\n"
        "print(specsample.truncate is specsample.jacobi.truncate)\n")
    src = os.path.dirname(os.path.dirname(specsample.__file__))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    loaded, names, same = out.splitlines()
    assert loaded == "[]"
    assert ast.literal_eval(names) == sorted(PUBLIC_NAMES)
    assert same == "True"


def test_verify_loads_no_numpy_ma(files):
    # numpy.ma costs a verify process about 1.3 MB of RSS and 8-17 ms of
    # import; np.isin and np.unique load it.
    model = files("m.json", _explicit(layout_model(50, "random", False, 2)))
    code = ("import sys\n"
            "from specsample.cli import main\n"
            f"assert main(['verify', '--model', {model!r}]) == 0\n"
            "print('numpy.ma' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(specsample.__file__))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.splitlines()[-1] == "False"


# specsample.__all__: every public name and submodule of the package.
PUBLIC_NAMES = """
Coupling DimensionMismatch InconsistentNodes InsufficientCoefficients
JacobiParams MeromorphicRep NonPositiveWeight NormalizationRequired NotAZero
NumericalError PoleMismatch PoleProximity PolynomialEval QZero
QuadratureNonConvergence RealPoint SampleSet SpectralError SpectralModel
StateVector UnsortedEigenvalues ValidationError XiVector ZeroOfF
apply_perturbed blaschke_swap compression_spectrum conjugate_state errors
evaluate_rep from_partial_fractions herglotz hermite_overlap inner_h jacobi
jm_reconstruct kramer_reconstruct model mu_inner mu_pointwise mu_state
new_model node_weights normalize omega_state osc_F_integral osc_F_series
osc_F_tail_bound oscillator oscillator_model perturbation perturbed_model
perturbed_spectrum polys reconstruct run_verification sample sampling
sturm_count to_partial_fractions transform truncate verify weyl weyl_approx
weyl_h xi xi_norm_sq
""".split()


def test_malformed_and_extreme_files_exit_within_the_contract(tmp_path,
                                                               capsys):
    # Well-formed model, state, samples and grid files with at most one
    # fault or extreme value each: an entry that is a string, a ragged
    # list, a NaN or Infinity token, 10**400, +-1e308 or subnormal, a
    # duplicate, a missing field or one entry short.  Every command runs in-process: main returns
    # a documented exit code, and nothing escapes it, a RuntimeWarning
    # included (the suite makes it an error).
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    num = st.floats(-10.0, 10.0)
    mass = st.floats(1e-3, 10.0)
    pair = st.tuples(num, num).map(list)
    extreme = st.sampled_from([1e308, -1e308, 1e300, 1e-310, 5e-324, 2e-300,
                               1e8, 0.0])
    bad = st.sampled_from(["x", None, [1.0, [2.0]], {"a": 1}, 10 ** 400,
                           math.nan, math.inf, -math.inf])

    def mutate(draw, obj):
        # At most one fault in obj.
        key = draw(st.sampled_from(sorted(obj)))
        how = draw(st.sampled_from(["none", "none", "drop", "field", "entry",
                                    "extreme", "extreme", "ends", "duplicate",
                                    "short"]))
        value = obj[key]
        if how == "drop":
            del obj[key]
        elif how == "field":
            obj[key] = draw(bad | st.lists(num | extreme | bad, max_size=4))
        elif isinstance(value, list) and len(value) > 1:
            i = draw(st.integers(0, len(value) - 1))
            odd = draw(extreme)
            if how == "entry":
                value[i] = draw(bad)
            elif how == "extreme":
                value[i] = [odd, value[i][1]] if key in {
                    "coords", "values", "points"} else odd
            elif how == "ends" and key not in {"coords", "values", "points"}:
                value[0], value[-1] = -abs(odd), abs(odd)
            elif how == "duplicate":
                value[i] = value[i - 1]
            elif how == "short":
                del value[i]

    def path(name, payload):
        p = tmp_path / name
        p.write_text(json.dumps(payload))
        return str(p)

    @hypothesis.settings(derandomize=True, max_examples=150, deadline=None,
                         database=None, suppress_health_check=list(
                             hypothesis.HealthCheck))
    @hypothesis.given(st.data())
    def check(data):
        draw = data.draw
        n = draw(st.integers(2, 40))

        def vec(entry, size=n):
            return draw(st.lists(entry, min_size=size, max_size=size))

        def ordered():
            return sorted(draw(st.lists(num, min_size=n, max_size=n,
                                        unique=True)))

        kind = draw(st.sampled_from(["explicit", "jacobi", "oscillator"]))
        if kind == "explicit":
            model = {"kind": kind, "eigenvalues": ordered(),
                     "weights": vec(mass)}
        elif kind == "jacobi":
            model = {"kind": kind, "q": vec(num), "b": vec(mass, n - 1),
                     "truncation": n}
        else:
            model = {"kind": kind, "levels": n,
                     "normalized": draw(st.booleans())}
        files = {"model": model, "state": {"coords": vec(pair)},
                 "grid": {"points": draw(st.lists(pair, max_size=4))}}
        for name in files:
            mutate(draw, files[name])
        model, state, grid = (path(f"{k}.json", files[k])
                              for k in ("model", "state", "grid"))
        coupling = "--coupling=" + draw(st.sampled_from([
            "1.3", "-0.7", "0", "1e-8", "1e8", "5e-324", "1e300", "inf",
            "nan", "-inf", "1e400", "x"]))
        codes = [main(["spectrum", "--model", model, coupling])]
        capsys.readouterr()
        codes.append(main(["sample", "--model", model, "--state", state,
                           coupling]))
        if codes[-1] == 0 and draw(st.booleans()):
            # The samples just written, their masses sometimes doubled.
            files["samples"] = json.loads(capsys.readouterr().out)
            scale = draw(st.sampled_from([1.0, 2.0]))
            files["samples"]["weights"] = [
                scale * m for m in files["samples"]["weights"]]
        else:
            files["samples"] = {"h": draw(num), "nodes": ordered(),
                                "weights": vec(mass), "values": vec(pair)}
        mutate(draw, files["samples"])
        samples = path("samples.json", files["samples"])
        codes += [main(["reconstruct", "--samples", samples, "--grid", grid]),
                  main(["reconstruct", "--samples", samples, "--grid", grid,
                        "--model", model])]
        if draw(st.booleans()):
            codes.append(main(["verify", "--model", model]))
        assert set(codes) <= {0, 1, 2, 3, 4}, codes

    check()
