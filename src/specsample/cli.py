"""Command-line front end.

Commands: spectrum, sample, reconstruct, verify, demo; each imports only
the layers it uses.  Exit codes:
0 success, 1 failed verification, 2 malformed input, 3 numerical failure
(also running out of memory), 4 sampling requested at infinite coupling.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import NumericalError, SpectralError, ValidationError
from .model import Coupling, StateVector
from .perturbation import node_weights, perturbed_spectrum
from .sampling import kramer_reconstruct, reconstruct, sample
from .serialize import (
    fmt,
    grid_from_dict,
    load_json,
    model_from_dict,
    samples_from_dict,
    samples_to_dict,
    state_from_dict,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_INFINITE_SAMPLING = 4


def _parse_coupling(text: str) -> Coupling:
    if text.strip().lower() == "inf":
        return Coupling.infinite()
    try:
        return Coupling.finite(float(text))
    except ValueError as exc:
        raise ValidationError(f"coupling must be a number: {exc}") from None


def cmd_spectrum(args) -> int:
    model = model_from_dict(load_json(args.model))
    coupling = _parse_coupling(args.coupling)
    nodes = perturbed_spectrum(model, coupling)
    out = {"nodes": nodes.tolist()}
    if not coupling.is_infinite:
        out["weights"] = node_weights(model, coupling.value, nodes).tolist()
    sys.stdout.write(json.dumps(out) + "\n")
    return EXIT_OK


def cmd_sample(args) -> int:
    model = model_from_dict(load_json(args.model))
    phi = state_from_dict(load_json(args.state))
    coupling = _parse_coupling(args.coupling)
    if coupling.is_infinite:
        print("sampling on the infinite-coupling spectrum is rejected: "
              "the sampled functions have their poles there", file=sys.stderr)
        return EXIT_INFINITE_SAMPLING
    samples = sample(model, phi, coupling.value)
    sys.stdout.write(json.dumps(samples_to_dict(samples)) + "\n")
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    samples = samples_from_dict(load_json(args.samples))
    points = grid_from_dict(load_json(args.grid))
    model = model_from_dict(load_json(args.model)) if args.model else None
    try:
        values = reconstruct(samples, points).tolist()
    except NumericalError as exc:
        # The grid raised what its first failing point raises: find it.
        for idx, z in enumerate(points):
            try:
                reconstruct(samples, z)
            except NumericalError:
                break
        print(f"grid point {idx}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    # The Kramer cross-check weighs the nodes once for the whole grid.
    cross = (kramer_reconstruct(model, samples, points).tolist()
             if model is not None and points else [])
    disagreement = 0.0
    rows = []
    for idx, (z, value) in enumerate(zip(points, values)):
        row = [fmt(z.real), fmt(z.imag), fmt(value.real), fmt(value.imag)]
        if cross:
            disagreement = max(disagreement, abs(cross[idx] - value))
            row += [fmt(cross[idx].real), fmt(cross[idx].imag)]
        rows.append(",".join(row))
    sys.stdout.write("\n".join(rows) + "\n")
    if model is not None and disagreement > 1e-8:
        print(f"kramer cross-check disagreement {disagreement:.3e}",
              file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.seed < 0:
        raise ValidationError(f"bad seed {args.seed}: expected one >= 0")
    from .verify import run_verification

    model = model_from_dict(load_json(args.model))
    results = run_verification(model, args.seed)
    ok = True
    for res in results:
        status = "pass" if res.passed else "FAIL"
        print(f"{status} {res.name}: {res.detail}")
        ok = ok and res.passed
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_demo(args) -> int:
    from .jacobi import JacobiParams, jm_reconstruct, truncate
    from .oscillator import osc_F_integral, osc_F_series

    # Jacobi convergence study: interpolation at growing polynomial degree
    # against the exact Lagrange reconstruction.
    n_max = 10
    params = JacobiParams(np.arange(1.0, n_max + 3.0), np.ones(n_max + 2))
    model = truncate(params, n_max)
    phi = StateVector(model.sqrt_weights / (1.0 + model.eigenvalues ** 2))
    samples = sample(model, phi, 1.5)
    grid = [2j, 5 + 2j, 8 - 2j]
    print("study,n,discrepancy")
    for n in (4, 6, 8, 10):
        errs = [
            abs(jm_reconstruct(params, n, samples, z) - reconstruct(samples, z))
            for z in grid
        ]
        print(f"jacobi,{n},{fmt(float(np.sqrt(np.mean(np.square(errs)))))}")
    # Oscillator: series versus quadrature representation of the Borel
    # transform on a small complex grid.
    for re in (0.0, 2.0, 4.0, 6.0, 8.0):
        for im in (0.5, 1.25, 2.0):
            z = complex(re, im)
            diff = abs(osc_F_series(z, 40) - osc_F_integral(z, 1024))
            print(f"oscillator,{fmt(re)}+{fmt(im)}i,{fmt(diff)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specsample",
        description="Finite rank-one perturbation models: spectra, sampling, "
                    "and reconstruction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="perturbed spectrum and weights")
    p.add_argument("--model", required=True)
    p.add_argument("--coupling", required=True,
                   help="decimal coupling or 'inf'")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("sample", help="sample a state's image function")
    p.add_argument("--model", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--coupling", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("reconstruct", help="evaluate the Lagrange "
                                           "reconstruction on a grid")
    p.add_argument("--samples", required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--model", help="enable the Kramer cross-check")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("verify", help="run the invariant suite on a model")
    p.add_argument("--model", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("demo", help="convergence studies, CSV output")
    p.set_defaults(func=cmd_demo)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError:
        # The dense N x N arrays left: the eigvalsh inputs of truncate and
        # compression_spectrum, and jacobi._twisted.
        print("numerical failure: out of memory", file=sys.stderr)
        return EXIT_NUMERICAL
    except SpectralError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
