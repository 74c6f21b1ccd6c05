import json

import pytest

from specsample.cli import main

M2 = {"kind": "explicit", "eigenvalues": [0.0, 2.0], "weights": [0.5, 0.5]}
MU = {"coords": [[0.7071067811865476, 0.0], [0.7071067811865476, 0.0]]}
E1 = {"coords": [[1.0, 0.0], [0.0, 0.0]]}


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
], ids=["missing-weights", "non-numeric-eigenvalues", "truncation-x",
        "non-integer-levels"])
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
    assert main(["demo", "--seed", "1"]) == 0
    demo1 = capsys.readouterr().out
    assert main(["demo", "--seed", "1"]) == 0
    assert capsys.readouterr().out == demo1


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
