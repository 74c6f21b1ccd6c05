"""The benchmark's workloads: inputs made from the seed, and the op lists.

make_inputs() uses numpy only, so the same seed gives byte-identical inputs
in any process.  build_ops() turns the inputs into ops on the library; for
evaluate and structured it also builds the sample sets the ops need, which
counts as set-up.

Each op is one closed-loop call (or one short sequence of calls) whose
output the oracle checks afterwards.  The oracle module is passed in at
check time so that it is imported only after the timed region.
"""
from __future__ import annotations

import json
import math
import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

WORKLOADS = ("solve", "evaluate", "structured", "cli")

# Shared random-model recipe (the ROADMAP baseline): eigenvalues
# U(-10, 10), weights U(0.1, 1), states with N(0, 1) real and imaginary parts.
H = 1.3


@dataclass
class Op:
    name: str
    group: str
    run: Callable[[], Any]
    # check(output, oracle) -> [(quantity, error, bound), ...]
    check: Callable[[Any, Any], list] | None = None
    # ok(output) -> bool, for outputs that can fail without raising.
    ok: Callable[[Any], bool] = field(default=lambda out: True)
    encode: Callable[[Any], bytes] = field(default=lambda out: repr(out).encode())
    # A named reproducer of a known defect: run once per run, outside the
    # timed op list, and reported by its outcome.
    known_defect: bool = False


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([zlib.crc32(workload.encode()), seed])


def _random_model(rng, n, lo=-10.0, hi=10.0):
    return np.sort(rng.uniform(lo, hi, n)), rng.uniform(0.1, 1.0, n)


def _random_state(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def _grid(rng, lam, count):
    """Points off the axis: Re z across the spectrum and half its width
    beyond, |Im z| log-uniform from 1e-3 up to the model scale."""
    scale = max(1.0, lam[-1] - lam[0])
    re = rng.uniform(lam[0] - 0.5 * scale, lam[-1] + 0.5 * scale, count)
    im = 10.0 ** rng.uniform(-3.0, math.log10(scale), count)
    sign = np.where(rng.random(count) < 0.5, -1.0, 1.0)
    return re + 1j * sign * im


# -- inputs ---------------------------------------------------------------


def _solve_inputs(rng):
    cases = []

    def add(name, lam, w, coords, hs, defects=()):
        for h in hs:
            cases.append({"name": f"{name}:h={'inf' if h is None else repr(h)}",
                          "group": f"{'spectrum' if h is None else 'sample'}:{name}",
                          "lam": np.asarray(lam, float), "w": np.asarray(w, float),
                          "coords": np.asarray(coords, complex), "h": h,
                          "known_defect": h in defects})

    for n, hs in ((50, (1.3, -0.7, 1e-8, 1e8, None)),
                  (200, (1.3, -0.7, None))):
        lam, w = _random_model(rng, n)
        # At |h| = 1e-8 weights, and at |h| = 1e8 sampled values, lose six
        # or more digits on some seeds.
        add(f"N{n}", lam, w, _random_state(rng, n), hs, defects=(1e-8, 1e8))
    # Three more small models, so that op_p50_ms is the median of many
    # small ops run at different times rather than of one op.
    for k in range(2, 5):
        lam, w = _random_model(rng, 50)
        add(f"N50-{k}", lam, w, _random_state(rng, 50), (1.3, -0.7, None))
    n = 50
    # Hard regimes: five clusters of ten eigenvalues each 1e-6 wide; weights
    # log-uniform down to 1e-299; a spread of 1e12; an offset of 1e8.  At
    # finite coupling each is a known defect (BracketFailure, or weights
    # wrong in the sixth digit or worse); their zeros of F are timed.
    lam = np.sort(np.concatenate([4.0 * k + rng.uniform(0, 1e-6, 10)
                                  for k in range(5)]))
    add("clustered", lam, rng.uniform(0.1, 1.0, n), _random_state(rng, n),
        (1.3, None), defects=(1.3,))
    lam = np.sort(rng.uniform(-10, 10, n))
    add("tiny-weights", lam, 10.0 ** rng.uniform(-299, 0, n),
        _random_state(rng, n), (1.3, None), defects=(1.3, None))
    lam = np.sort(np.concatenate([rng.uniform(0, 1, n // 2),
                                  rng.uniform(2, 1e12, n - n // 2)]))
    add("spread-1e12", lam, rng.uniform(0.1, 1.0, n), _random_state(rng, n),
        (1.3, None), defects=(1.3,))
    lam, w = _random_model(rng, n)
    add("offset-1e8", lam + 1e8, w, _random_state(rng, n), (1.3, -1e-8, None),
        defects=(1.3, -1e-8))
    # The ROADMAP's BracketFailure reproducers.
    add("small-weight", [0, 1, 2, 3], [1, 1e-20, 1, 1],
        _random_state(rng, 4), (1.0,), defects=(1.0,))
    add("far-pole", [0, 1, 1e12], [1, 1, 1], _random_state(rng, 3),
        (-1e-8,), defects=(-1e-8,))
    return {"cases": cases}


def _evaluate_inputs(rng):
    models = []
    # Most points on the small model, so the median op lies inside its group.
    for n, count in ((50, 1400), (400, 600)):
        lam, w = _random_model(rng, n)
        models.append({"n": n, "lam": lam, "w": w,
                       "coords": _random_state(rng, n),
                       "grid": _grid(rng, lam, count)})
    return {"h": H, "models": models}


def _structured_inputs(rng):
    jm_n = 32
    return {
        "truncate_n": [50, 200],
        "weyl_rows": [{"n": n, "z": (rng.uniform(-3, 3, 12)
                                     + 1j * 10.0 ** rng.uniform(-1, 0.5, 12))}
                      for n in (50, 200)],
        "jm": {"n": jm_n, "h": 1.5, "degrees": [8, 16, 24, 32],
               "coords": _random_state(rng, jm_n),
               "z": rng.uniform(-2.5, 2.5, 4) + 1j * rng.uniform(0.5, 2.0, 4)},
        # Jacobi q_k = k-1, b_k = 1: the known overflow reproducers.
        "overflow_n": [100, 120],
        # 24 points put the median op inside the oscillator group.
        "osc_z": rng.uniform(0, 8, 24) + 1j * rng.uniform(0.5, 2.0, 24),
        "hermite_k": list(range(21)),
    }


def _cli_inputs(rng):
    n = 100
    lam, w = _random_model(rng, n)
    # A gentle model for the timed verify: gaps of at least 0.2 (scaled to
    # a spread of 10) and normalized weights, as in the test suite.
    m = 50
    gentle = np.concatenate([[0.0], np.cumsum(0.2 + rng.random(m - 1))])
    gentle = gentle / gentle[-1] * 10.0 + rng.uniform(-1, 1)
    gentle_w = 0.2 + rng.random(m)
    return {"lam": lam, "w": w, "coords": _random_state(rng, n), "h": H,
            "grid": _grid(rng, lam, 2000), "kramer_grid": _grid(rng, lam, 50),
            "gentle_lam": gentle, "gentle_w": gentle_w / gentle_w.sum(),
            "jacobi_n": 100, "osc_levels": 16, "osc_levels_defect": 30,
            "overflow_n": [100, 120]}


_INPUTS = {"solve": _solve_inputs, "evaluate": _evaluate_inputs,
           "structured": _structured_inputs, "cli": _cli_inputs}


def make_inputs(workload: str, seed: int) -> dict:
    return _INPUTS[workload](_rng(workload, seed))


def input_bytes(obj) -> bytes:
    """Canonical bytes of an input tree, for the determinism check."""
    if isinstance(obj, dict):
        return b"{" + b",".join(k.encode() + b":" + input_bytes(obj[k])
                                for k in sorted(obj)) + b"}"
    if isinstance(obj, (list, tuple)):
        return b"[" + b",".join(input_bytes(v) for v in obj) + b"]"
    if isinstance(obj, np.ndarray):
        return obj.dtype.str.encode() + repr(obj.shape).encode() + obj.tobytes()
    return repr(obj).encode()


# -- output encodings -------------------------------------------------------


def _encode_arrays(*arrays) -> bytes:
    return b"|".join(np.ascontiguousarray(a).tobytes() for a in arrays)


def _encode_samples(s) -> bytes:
    return _encode_arrays(s.nodes, s.node_weights, s.values)


def _encode_complex(values) -> bytes:
    flat = []
    for v in values:
        v = complex(v)
        flat += [v.real, v.imag]
    return struct.pack(f"{len(flat)}d", *flat)


# -- library ops ------------------------------------------------------------


def _solve_ops(inp, ctx):
    import specsample as ss

    ops = []
    for case in inp["cases"]:
        lam, w, coords, h = case["lam"], case["w"], case["coords"], case["h"]
        model = ss.new_model(lam, w)
        if h is None:
            run = (lambda m=model: ss.perturbed_spectrum(m, ss.Coupling.infinite()))

            def check(out, oracle, lam=lam, w=w):
                return oracle.check_spectrum(lam, w, None, out)

            encode = _encode_arrays
        else:
            phi = ss.StateVector(coords)
            run = (lambda m=model, p=phi, h=h: ss.sample(m, p, h))

            def check(out, oracle, lam=lam, w=w, h=h, coords=coords):
                return oracle.check_spectrum(lam, w, h, out.nodes,
                                             out.node_weights, out.values,
                                             coords)

            encode = _encode_samples
        ops.append(Op(case["name"], case["group"], run, check, encode=encode,
                      known_defect=case["known_defect"]))
    return ops


def _evaluate_ops(inp, ctx):
    import specsample as ss

    h = inp["h"]
    ops = []
    for spec in inp["models"]:
        model = ss.new_model(spec["lam"], spec["w"])
        phi = ss.StateVector(spec["coords"])
        samples = ss.sample(model, phi, h)
        point = ctx.point_oracle(spec["lam"], spec["w"], spec["coords"])
        for i, z in enumerate(spec["grid"]):
            z = complex(z)

            def run(m=model, p=phi, s=samples, z=z):
                return (ss.reconstruct(s, z), ss.transform(m, p, z),
                        ss.weyl_h(m, h, z))

            def check(out, oracle, z=z, point=point):
                return point(oracle).check_eval(h, z, out[0], out[1], out[2])

            ops.append(Op(f"N{spec['n']}:z{i}", f"point:N{spec['n']}", run,
                          check, encode=lambda out: _encode_complex(
                              (out[0], out[1]) + tuple(out[2]))))
    return ops


def _structured_ops(inp, ctx):
    import specsample as ss

    def free(n):
        return ss.JacobiParams(np.zeros(n + 1), np.ones(n + 1))

    ops = []
    for n in inp["truncate_n"]:
        params = free(n)
        ops.append(Op(
            f"truncate:free:n{n}", f"truncate:n{n}",
            lambda p=params, n=n: ss.truncate(p, n),
            lambda out, oracle, n=n: oracle.check_free_truncation(
                n, out.eigenvalues, out.weights),
            encode=lambda out: _encode_arrays(out.eigenvalues, out.weights)))
    for row in inp["weyl_rows"]:
        n, zs = row["n"], [complex(z) for z in row["z"]]
        params = free(n)
        ops.append(Op(
            f"weyl_approx:n{n}", f"weyl_approx:n{n}",
            lambda p=params, n=n, zs=zs: [ss.weyl_approx(p, z, n) for z in zs],
            lambda out, oracle, n=n, zs=zs: oracle.check_against(
                "value", out, [oracle.free_weyl(n, z) for z in zs]),
            encode=_encode_complex))

    jm = inp["jm"]
    n0 = jm["n"]
    params = free(n0)
    model = ss.truncate(params, n0)
    samples = ss.sample(model, ss.StateVector(jm["coords"]), jm["h"])
    point = ctx.point_oracle(model.eigenvalues, model.weights, jm["coords"])
    q, b = [0.0] * (n0 + 1), [1.0] * (n0 + 1)
    for i, z in enumerate(jm["z"]):
        z = complex(z)

        def run(z=z):
            # A convergence row: the Lagrange reference, then the
            # interpolation at growing degree.
            return [ss.reconstruct(samples, z)] + [
                ss.jm_reconstruct(params, n, samples, z) for n in jm["degrees"]]

        def check(out, oracle, z=z):
            errs = point(oracle).check_values([z], out[:1])
            for n, got in zip(jm["degrees"], out[1:]):
                want = oracle.jm_formula(q, b, n, samples.h, samples.nodes,
                                         samples.values, z)
                errs.append(("value", oracle.rel_err(got, want),
                             oracle.BOUNDS["relative"]))
            return errs

        ops.append(Op(f"jm_reconstruct:z{i}", "jm_reconstruct", run, check,
                      encode=_encode_complex))

    for n in inp["overflow_n"]:
        qk = np.arange(n + 1, dtype=float)
        params_k = ss.JacobiParams(qk, np.ones(n + 1))

        def check(out, oracle, qk=qk, n=n):
            lam, w = oracle.jacobi_truncation(qk, np.ones(n + 1), n,
                                              out.eigenvalues)
            scale = max(1.0, float(lam[-1] - lam[0]))
            return (oracle.check_against("node", out.eigenvalues, lam,
                                         scale=scale)
                    + oracle.check_against("weight", out.weights, w))

        ops.append(Op(f"truncate:q=k-1:n{n}", f"truncate:q=k-1:n{n}",
                      lambda p=params_k, n=n: ss.truncate(p, n), check,
                      encode=lambda out: _encode_arrays(out.eigenvalues,
                                                        out.weights),
                      known_defect=True))

    for i, z in enumerate(inp["osc_z"]):
        z = complex(z)

        def check(out, oracle, z=z):
            return [("value", oracle.rel_err(out[0], oracle.oscillator_series(z, 40)),
                     oracle.BOUNDS["relative"]),
                    ("value", oracle.rel_err(out[1], oracle.oscillator_series(z)),
                     oracle.BOUNDS["relative"])]

        ops.append(Op(f"oscillator:z{i}", "oscillator",
                      lambda z=z: (ss.osc_F_series(z, 40),
                                   ss.osc_F_integral(z, 1024)),
                      check, encode=_encode_complex))
    for k in inp["hermite_k"]:
        ops.append(Op(
            f"hermite_overlap:k{k}", "hermite_overlap",
            lambda k=k: ss.hermite_overlap(k, 128),
            lambda out, oracle, k=k: [("value", oracle.rel_err(
                out, oracle.hermite_overlap(k)), oracle.BOUNDS["relative"])],
            encode=lambda out: struct.pack("d", out)))
    # Fill the quadrature-rule caches, as any caller's first call does.
    ss.osc_F_integral(complex(inp["osc_z"][0]), 1024)
    ss.hermite_overlap(0, 128)
    return ops


# -- command-line ops ---------------------------------------------------------


@dataclass
class CliResult:
    """Exit code and captured stdout of one command; stdout is read on first
    use, after the timed call."""

    code: int
    path: str
    err_path: str
    _stdout: bytes | None = None

    @property
    def stdout(self) -> bytes:
        if self._stdout is None:
            with open(self.path, "rb") as fh:
                self._stdout = fh.read()
        return self._stdout

    def failure(self) -> str:
        """The exit code and the last line the command wrote to stderr, or
        else its FAIL lines (verify reports failed checks on stdout)."""
        with open(self.err_path, "rb") as fh:
            lines = fh.read().decode(errors="replace").strip().splitlines()
        detail = lines[-1] if lines else "; ".join(
            ln for ln in self.stdout.decode(errors="replace").splitlines()
            if ln.startswith("FAIL"))
        return f"exit {self.code}" + (f": {detail[:200]}" if detail else "")


def _cli_ops(inp, ctx):
    from specsample.serialize import model_to_dict, state_to_dict
    from specsample import StateVector, new_model

    work = ctx.work_dir
    model = new_model(inp["lam"], inp["w"])
    files = {
        "model": model_to_dict(model),
        "gentle": model_to_dict(new_model(inp["gentle_lam"], inp["gentle_w"])),
        "state": state_to_dict(StateVector(inp["coords"])),
        "grid": {"points": [[z.real, z.imag] for z in inp["grid"]]},
        "kramer_grid": {"points": [[z.real, z.imag] for z in inp["kramer_grid"]]},
        "jacobi": {"kind": "jacobi", "q": [0.0] * (inp["jacobi_n"] + 1),
                   "b": [1.0] * (inp["jacobi_n"] + 1),
                   "truncation": inp["jacobi_n"]},
        "oscillator": {"kind": "oscillator", "levels": inp["osc_levels"]},
        "oscillator_defect": {"kind": "oscillator",
                              "levels": inp["osc_levels_defect"]},
    }
    for n in inp["overflow_n"]:
        files[f"jacobi_k{n}"] = {"kind": "jacobi", "q": list(range(n + 1)),
                                 "b": [1.0] * (n + 1), "truncation": n}
    path = {}
    for key, data in files.items():
        path[key] = os.path.join(work, f"{key}.json")
        with open(path[key], "w", encoding="utf-8") as fh:
            json.dump(data, fh)
    path["samples"] = os.path.join(work, "samples.json")
    lam, w, coords, h = inp["lam"], inp["w"], inp["coords"], inp["h"]
    point = ctx.point_oracle(lam, w, coords)

    def command(name, args, stdout_path=None):
        out_path = stdout_path or os.path.join(work, f"{name}.out")

        def run():
            return CliResult(ctx.run_cli(name, args, out_path), out_path,
                             os.path.join(work, f"{name}.err"))
        return run

    def parse_rows(out, columns):
        rows = [r.split(",") for r in out.stdout.decode().splitlines()]
        return [[float(v) for v in r] for r in rows if len(r) == columns]

    def check_sample(out, oracle):
        s = json.loads(out.stdout)
        return oracle.check_spectrum(lam, w, h, s["nodes"], s["weights"],
                                     [complex(*v) for v in s["values"]], coords)

    def check_grid(grid, columns):
        def check(out, oracle):
            rows = parse_rows(out, columns)
            if len(rows) != len(grid):
                return [("value", math.inf, oracle.BOUNDS["relative"])]
            pts = point(oracle)
            errs = []
            for z, r in zip(grid, rows):
                if (r[0], r[1]) != (z.real, z.imag):    # echoed to 17 digits
                    return [("value", math.inf, oracle.BOUNDS["relative"])]
                F, _, T = pts.at(complex(z))
                want = T / F
                errs.append(("value", oracle.rel_err(complex(r[2], r[3]), want),
                             oracle.BOUNDS["relative"]))
                if columns == 6:
                    errs.append(("value", oracle.rel_err(complex(r[4], r[5]), want),
                                 oracle.BOUNDS["relative"]))
            return errs
        return check

    def check_verify(out, oracle):
        lines = out.stdout.decode().splitlines()
        bad = [ln for ln in lines if not ln.startswith("pass ")]
        return [("verify", math.inf if bad or not lines else 0.0, 0.0)]

    def check_jacobi(out, oracle):
        n = inp["jacobi_n"]
        return oracle.check_against("node", json.loads(out.stdout)["nodes"],
                                    oracle.free_jacobi_zeros(n),
                                    scale=4.0 * math.cos(math.pi / (n + 1)))

    def check_osc(levels):
        def check(out, oracle):
            got = json.loads(out.stdout)["nodes"]
            if len(got) != levels - 1:
                return [("node", math.inf, oracle.BOUNDS["node"])]
            return oracle.check_against("node", got,
                                        oracle.oscillator_zeros(levels, got),
                                        scale=2.0 * (levels - 1))
        return check

    def check_jacobi_k(n):
        # Zeros of F of a Jacobi truncation are the eigenvalues of the
        # matrix without its first row and column.
        def check(out, oracle):
            got = json.loads(out.stdout)["nodes"]
            if len(got) != n - 1:
                return [("node", math.inf, oracle.BOUNDS["node"])]
            lam, _ = oracle.jacobi_truncation(list(range(1, n + 1)), [1.0] * n,
                                              n - 1, got)
            return oracle.check_against("node", got, lam,
                                        scale=float(lam[-1] - lam[0]))
        return check

    ok = (lambda out: out.code == 0)
    enc = (lambda out: out.code.to_bytes(4, "little", signed=True) + out.stdout)
    return [
        Op("sample", "cli:sample",
           command("sample", ["sample", "--model", path["model"], "--state",
                              path["state"], "--coupling", repr(h)],
                   path["samples"]), check_sample, ok, enc),
        Op("reconstruct", "cli:reconstruct",
           command("reconstruct", ["reconstruct", "--samples", path["samples"],
                                   "--grid", path["grid"]]),
           check_grid(inp["grid"], 4), ok, enc),
        Op("reconstruct-kramer", "cli:reconstruct-kramer",
           command("reconstruct-kramer",
                   ["reconstruct", "--samples", path["samples"], "--grid",
                    path["kramer_grid"], "--model", path["model"]]),
           check_grid(inp["kramer_grid"], 6), ok, enc),
        Op("verify", "cli:verify",
           command("verify", ["verify", "--model", path["gentle"], "--seed", "0"]),
           check_verify, ok, enc),
        # verify on a plain random N=100 model exits 1 (ROADMAP defect).
        Op("verify-random-N100", "cli:verify",
           command("verify-random-N100",
                   ["verify", "--model", path["model"], "--seed", "0"]),
           check_verify, ok, enc, known_defect=True),
        Op("spectrum-jacobi", "cli:spectrum",
           command("spectrum-jacobi", ["spectrum", "--model", path["jacobi"],
                                       "--coupling", "inf"]),
           check_jacobi, ok, enc),
        Op("spectrum-oscillator", "cli:spectrum",
           command("spectrum-oscillator", ["spectrum", "--model",
                                           path["oscillator"], "--coupling", "inf"]),
           check_osc(inp["osc_levels"]), ok, enc),
        # From 20 levels on, weights 1/n! below ~1e-17 make the zeros of F
        # raise BracketFailure (exit 3).
        Op("spectrum-oscillator-30", "cli:spectrum",
           command("spectrum-oscillator-30",
                   ["spectrum", "--model", path["oscillator_defect"],
                    "--coupling", "inf"]),
           check_osc(inp["osc_levels_defect"]), ok, enc, known_defect=True),
    ] + [
        # Jacobi q_k = k-1, b_k = 1: truncate overflows (ROADMAP defect).
        Op(f"spectrum-jacobi-q=k-1-n{n}", "cli:spectrum",
           command(f"spectrum-jacobi-k{n}",
                   ["spectrum", "--model", path[f"jacobi_k{n}"], "--coupling", "inf"]),
           check_jacobi_k(n), ok, enc, known_defect=True)
        for n in inp["overflow_n"]
    ]


_OPS = {"solve": _solve_ops, "evaluate": _evaluate_ops,
        "structured": _structured_ops, "cli": _cli_ops}


def build_ops(workload: str, inputs: dict, ctx) -> list[Op]:
    return _OPS[workload](inputs, ctx)
