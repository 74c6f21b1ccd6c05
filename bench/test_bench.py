"""Tests of the benchmark's own machinery: oracle, spans, failure counting
and input determinism.  Run with: python3 -m pytest bench/test_bench.py"""
import hashlib
import json
import math
import os
import subprocess
import sys
import types

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
for path in (BENCH, SRC):
    if path not in sys.path:
        sys.path.insert(0, path)

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

mpmath = pytest.importorskip("mpmath")
import oracle  # noqa: E402

TINY = mpmath.mpf(10) ** -35


# -- oracle against closed forms ----------------------------------------------


@pytest.mark.parametrize("h", [1.0, -0.7, 1e-8, 1e8])
def test_two_level_secular_roots_and_weights(h):
    # F(x) = (x - 1)/(x (2 - x)); 1 + hF = 0 gives x^2 - (2 + h) x + h = 0.
    ex = oracle.ExactModel([0.0, 2.0], [0.5, 0.5])
    hm = mpmath.mpf(h)
    big = ((2 + hm) + mpmath.sqrt(4 + hm * hm)) / 2
    want = sorted([big, hm / big])      # the roots' product is h
    for (lo, hi), x in zip(ex.brackets(h), want):
        X, Fp = ex.root(h, float(x), lo, hi)
        got = oracle._mpf(X, ex.S)
        assert abs(got - x) <= TINY * max(1, abs(x))
        Fp_want = 0.5 / x ** 2 + 0.5 / (2 - x) ** 2
        # F' near a pole amplifies the root's 1e-40 resolution.
        assert abs(Fp - Fp_want) <= 1e-30 * Fp_want
    errs = oracle.check_spectrum([0.0, 2.0], [0.5, 0.5], h,
                                 [float(x) for x in want],
                                 [float(1 / (hm * hm * (0.5 / x ** 2 + 0.5 / (2 - x) ** 2)))
                                  for x in want])
    assert all(err <= 1e-15 for _, err, _ in errs)


def test_two_level_zero_of_F_and_point_values():
    ex = oracle.ExactModel([0.0, 2.0], [0.5, 0.5])
    (lo, hi), = ex.brackets(None)
    X, _ = ex.root(None, 0.9, lo, hi)
    assert abs(oracle._mpf(X, ex.S) - 1) <= TINY
    point = oracle.PointOracle([0.0, 2.0], [0.5, 0.5], [1.0, 0.0])
    z = mpmath.mpc(0.25, 0.5)
    F, Fp, T = point.at(complex(z))
    assert abs(F - (0.5 / -z + 0.5 / (2 - z))) <= TINY
    assert abs(Fp - (0.5 / z ** 2 + 0.5 / (2 - z) ** 2)) <= TINY
    # phi = e_1: the state sum is sqrt(0.5)/(0 - z).
    assert abs(T - mpmath.sqrt(0.5) / -z) <= TINY


def test_free_jacobi_closed_forms_match_the_general_oracle():
    n = 10
    lam, w = oracle.free_jacobi(n)
    roots, weights = oracle.jacobi_truncation([0.0] * (n + 1), [1.0] * (n + 1),
                                              n, [float(x) for x in lam])
    for a, b in zip(lam + w, roots + weights):
        assert abs(a - b) <= TINY
    z = complex(0.3, 0.7)
    P, Q, _, _ = oracle._polys([0.0] * (n + 1), [1.0] * (n + 1), z, n)
    assert abs(oracle.free_weyl(n, z) - (-Q / P)) <= TINY
    zeros = oracle.free_jacobi_zeros(n)
    assert [abs(x) < 2 for x in zeros] == [True] * (n - 1)
    assert oracle.check_free_truncation(n, [float(x) for x in lam],
                                        [float(x) for x in w])[0][1] <= 1e-16


def test_digits_are_capped_and_floored():
    assert oracle.digits(0.0) == 16.0
    assert oracle.digits(1e-20) == 16.0
    assert oracle.digits(1e-11) == pytest.approx(11.0)
    assert oracle.digits(10.0) == 0.0


# -- spans -----------------------------------------------------------------


def _span(name, start, end, parent, failed=False):
    return [name, start, end, parent, failed, 0]


def test_self_time_of_nested_spans():
    spans = [
        _span("bench.op", 0.0, 10.0, -1),
        _span("sampling.sample", 1.0, 6.0, 0),
        _span("perturbation.perturbed_spectrum", 2.0, 5.0, 1, failed=True),
        _span("model.new_model", 3.0, 4.0, 2),
        _span("herglotz.weyl_h", 7.0, 9.0, 0),
        # Overlaps its sibling and runs past its parent: covered time is
        # the union of the children's intervals, clipped to the parent.
        _span("herglotz.xi", 8.0, 11.0, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([10 - 5 - 3, 2, 2, 1, 2, 3])
    agg = tracing.aggregate(spans)
    assert agg["perturbation.perturbed_spectrum"]["fail"] == 1
    assert agg["sampling.sample"]["self_s"] == pytest.approx(2.0)
    total = sum(row["self_s"] for name, row in agg.items() if name != "herglotz.xi")
    assert total == pytest.approx(10.0 - 1.0)


def test_install_wraps_reimported_names_and_restores():
    import specsample
    from specsample import perturbation, sampling, verify

    original = perturbation.perturbed_spectrum
    checks = verify.ALL_CHECKS
    rec = tracing.Recorder()
    restore = tracing.install(rec)
    try:
        assert sampling.perturbed_spectrum is perturbation.perturbed_spectrum
        assert sampling.perturbed_spectrum is not original
        assert all(c is not o for c, o in zip(verify.ALL_CHECKS, checks))
        m = specsample.new_model([0.0, 2.0], [0.5, 0.5])
        specsample.sample(m, specsample.StateVector([1.0, 0.0]), 1.0)
    finally:
        restore()
    assert perturbation.perturbed_spectrum is original
    assert verify.ALL_CHECKS is checks
    names = [s[tracing.NAME] for s in rec.spans]
    assert "sampling.sample" in names
    assert "perturbation.perturbed_spectrum" in names
    roots = [s for s in rec.spans if s[tracing.NAME] == "perturbation.perturbed_spectrum"]
    assert roots[0][tracing.COUNT] == 2


# -- failure counting ---------------------------------------------------------


def test_raising_op_and_nonzero_exit_count_as_failures(tmp_path):
    ctx = worker.Context(str(tmp_path))

    def cli_missing_model():
        out = str(tmp_path / "out.txt")
        code = ctx.run_cli("spectrum", ["spectrum", "--model",
                                        str(tmp_path / "missing.json"),
                                        "--coupling", "1"], out)
        return workloads.CliResult(code, out, str(tmp_path / "spectrum.err"))

    def raising():
        raise OverflowError("bare")

    ops = [
        workloads.Op("fine", "g", lambda: 1.0),
        workloads.Op("raises", "g", raising),
        workloads.Op("exit-2", "g", cli_missing_model,
                     ok=lambda out: out.code == 0,
                     encode=lambda out: out.stdout),
    ]
    args = types.SimpleNamespace(workload="test", seed=0, seconds=0.0, trace=0,
                                 out=str(tmp_path / "result.json"))
    result = worker.measure(args, ctx, ops)
    assert result["attempted"] == 3
    assert result["failed"] == 2
    assert result["fail_frac"] == pytest.approx(2 / 3)
    assert result["failures"]["raises"] == "OverflowError"
    assert result["failures"]["exit-2"].startswith("NonzeroExit (exit 2: error:")
    assert result["correct"] is False


def test_latency_is_divided_by_the_reference_around_each_execution():
    ref = worker.Reference()
    # Bursts ending at t = 1, 2, 3 found the loop taking 1, 2 and 4 ms.
    ref.times.extend([1.0, 2.0, 3.0])
    ref.levels.extend([1e-3, 2e-3, 4e-3])
    assert ref.level(1.5, 1.6) == pytest.approx(1.5e-3)
    assert ref.level(2.0, 2.5) == pytest.approx(3e-3)   # 2.0 counts as before
    assert ref.level(3.5, 3.6) == pytest.approx(4e-3)   # no burst after it
    assert ref.level(0.1, 0.2) == pytest.approx(1e-3)   # no burst before it
    loop = worker.Loop(2)
    loop.start[0].extend([1.2, 2.2, 2.4])
    loop.latency[0].extend([0.3, 0.6, 0.3])
    loop.start[1].append(3.2)
    loop.latency[1].append(0.2)
    # Op 0: 0.3/1.5e-3, 0.6/3e-3 and 0.3/3e-3 reference loops; median 200.
    assert worker.op_refs(loop, ref) == pytest.approx([200.0, 50.0])


def test_failures_rank_slower_than_every_success():
    # A fast failure (op 1) ranks after every success.
    ranked = worker.rank([0.5, 0.001, 0.6], failed_ops={1})
    assert ranked == [0.5, 0.6, math.inf]
    assert worker.percentile(ranked, 50.0, longest=0.6) == (0.6, False)
    assert worker.percentile(ranked, 99.0, longest=0.6) == (0.6, True)


# -- input determinism -----------------------------------------------------------


def _digest(seed):
    return {w: hashlib.sha256(workloads.input_bytes(workloads.make_inputs(w, seed))).hexdigest()
            for w in workloads.WORKLOADS}


def test_same_seed_gives_byte_identical_inputs():
    here = _digest(7)
    assert here == _digest(7)
    assert all(here[w] != d for w, d in _digest(8).items())
    code = ("import sys, json, hashlib; sys.path.insert(0, %r); import workloads;"
            "print(json.dumps({w: hashlib.sha256(workloads.input_bytes("
            "workloads.make_inputs(w, 7))).hexdigest() for w in workloads.WORKLOADS}))"
            % BENCH)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert json.loads(out) == here
