"""Byte-identity sweep of the public evaluators.

Hashes each public evaluator's output, or the class and message of the
error it raises, with RuntimeWarning as an error, over one fixed set of
inputs:

- random models (tests/conftest.py) at N in {10, 50, 200, 400, 1000};
- every conftest.LAYOUTS model, and "clusters-offset-1e8", at N = 40, with
  and without tiny weights;
- models whose total weight is 2^928 or just below 2^929, and sample sets
  whose node weights and numerators may sum to just below 2^929;
- the couplings h in {1.3, -0.7, 1e-8, 1e8};
- a random state, the state of ones, a state whose norm bound is 2^463,
  next to the state's door (2^464), and the states of coordinates
  1e300 (1 + i) and 1e308, which the door refuses: each state is built as
  a case of its own, and evaluated where it is accepted;
- points off the axis, on it, 0.9, 1.1 and 3 radii from poles, nodes and
  zeros of F, from 1e153 to 1e300, and +-(1e308 + 1e308j);
- node_weights on the solver's nodes at each h, and omega_state at each
  zero of F;
- malformed arguments of node_weights, sturm_count, mu_pointwise and
  omega_state (strings, booleans, 2-d nodes, NaN and inf), a numpy
  boolean and a numpy complex value for each real argument (h, t, x and
  pole), and xi_norm_sq at a non-real point, each recorded as its
  refusal;
- sample and node_weights at h = 1.3, and to_partial_fractions, at
  N = 5000, whose rows the row sums certify by a second extraction where
  the first fails.

It prints one line per case, its id and a digest.  A RuntimeWarning is
numpy reporting an overflow or a NaN outside the np.errstate block meant
to hold it: where a case's outcome is one, the sweep lists those cases on
stderr and exits 1.  Run it on two source trees and count the cases that
differ:

    PYTHONPATH=base/src python tools/bitsweep.py > base.txt
    PYTHONPATH=src python tools/bitsweep.py > head.txt
    python tools/bitsweep.py --diff base.txt head.txt

A case that only one side has (a sample set or partial-fraction form
that one side refuses, and the evaluations on it) counts as differing.
"""
from __future__ import annotations

import hashlib
import math
import sys
import warnings
from pathlib import Path

import numpy as np

H = (1.3, -0.7, 1e-8, 1e8)
SIZES = (10, 50, 200, 400, 1000)
DOOR = np.nextafter(2.0 ** 929, 0.0)


def _digest(value) -> str:
    """A digest of an output's bytes, or of an error's class and message."""
    if isinstance(value, BaseException):
        data = f"{type(value).__name__}: {value}".encode()
    else:
        data = b"".join(np.asarray(part, dtype=complex).tobytes()
                        for part in value)
    return hashlib.sha256(data).hexdigest()[:16]


class Sweep:
    def __init__(self):
        self.cases: list[tuple[str, str]] = []
        self.seen: dict[str, int] = {}
        self.warned: list[str] = []

    def run(self, evaluator: str, where: str, evaluate):
        """Records evaluate()'s digest as the case "evaluator where" (and
        "#k" for its k-th repeat: points can round to the same double);
        returns its output, or None where it raised."""
        case = f"{evaluator} {where}"
        k = self.seen[case] = self.seen.get(case, 0) + 1
        if k > 1:
            case += f"#{k}"
        try:
            out = evaluate()
        except Exception as exc:  # RuntimeWarning too
            if isinstance(exc, RuntimeWarning):
                self.warned.append(case)
            self.cases.append((case, _digest(exc)))
            return None
        self.cases.append((case, _digest(_parts(out))))
        return out


def _parts(out):
    """The arrays and numbers an evaluator returned, in a fixed order."""
    import specsample as ss

    if isinstance(out, ss.SampleSet):
        return (out.h, out.nodes, out.node_weights, out.values)
    if isinstance(out, ss.MeromorphicRep):
        return (out.constant, out.poles, out.coefficients)
    if isinstance(out, ss.XiVector):
        return (out.at, out.coords)
    if isinstance(out, ss.StateVector):
        return (out.coords,)
    if isinstance(out, ss.SpectralModel):
        return (out.eigenvalues, out.weights)
    return out if isinstance(out, tuple) else (out,)


def _near(poles, r, count=4):
    """Points 0.9, 1.1 and 3 radii from up to count of the poles."""
    poles = np.asarray(poles)[::max(1, len(poles) // count)]
    return [complex(x + k * r * d) for x in poles for k in (0.9, 1.1, 3.0)
            for d in (1.0, 1j)]


def _zeros(m):
    """The zeros of F, or none where the solve raises."""
    import specsample as ss

    try:
        return ss.perturbed_spectrum(m, ss.Coupling.infinite())
    except ss.SpectralError:
        return np.empty(0)


def _points(m, seed):
    lam, scale = m.eigenvalues, m.scale
    rng = np.random.default_rng(seed)
    x = rng.uniform(lam[0] - scale, lam[-1] + scale, 6)
    y = 10.0 ** rng.uniform(-12, 0, 6) * scale * rng.choice([-1, 1], 6)
    r = 1e-8 * scale
    return ([complex(a, b) for a, b in zip(x, y)] + [complex(a) for a in x[:3]]
            + _near(lam, r) + _near(_zeros(m), r)
            + [1e153, -1e154j, 1.3e154 + 1e154j, 1e200, -1e300, 1e300j,
               1e308 + 1e308j, -1e308 - 1e308j])


def _states(n):
    """A function that builds each state of dimension n, called in this
    order."""
    import specsample as ss
    from conftest import random_state

    rng = np.random.default_rng(n)
    # Parts of 2^463 / sqrt(2n): the norm bound sqrt(2n) max|part| is 2^463.
    edge = 2.0 ** 463 / math.sqrt(2 * n)
    return {"random": lambda: random_state(rng, n),
            "ones": lambda: ss.StateVector(np.ones(n)),
            "1e300(1+i)": lambda: ss.StateVector(np.full(n, 1e300 * (1 + 1j))),
            "1e308": lambda: ss.StateVector(np.full(n, 1e308)),
            "edge": lambda: ss.StateVector(np.full(n, edge * (1 + 1j)))}


def _models():
    import specsample as ss
    from conftest import LAYOUTS, layout_model, random_model

    for n in SIZES:
        yield f"random-{n}", random_model(np.random.default_rng(n), n)
    for layout in LAYOUTS + ["clusters-offset-1e8"]:
        for tiny in (False, True):
            yield (f"{layout}-{'tiny' if tiny else 'weights'}",
                   layout_model(40, layout, tiny, 3))
    for name, total in (("2^928", 2.0 ** 928), ("below-2^929", DOOR)):
        yield f"total-{name}", ss.new_model([0.0, 1.0, 2.0],
                                            [total / 2, total / 4, total / 4])
    m = random_model(np.random.default_rng(20), 20)
    yield "random-20-times-2^928", ss.new_model(m.eigenvalues,
                                                m.weights * 2.0 ** 928)


def _sets(sweep, name, s, points):
    """Each reconstruct on the sample set s, and on s with its values
    scaled so that its node weights and numerators may sum to just below
    2^929."""
    import specsample as ss

    bound = s.size * float(s.node_weights.max())
    top = float(np.abs(s.values.view(float)).max())
    # A few ulps below, so that the rounding of the scaled values keeps it.
    scale = DOOR * (1.0 - 2.0 ** -40) / (bound * 1.5 * top) if top else 1.0
    heavy = sweep.run("SampleSet", f"{name}/below-door", lambda: ss.SampleSet(
        h=s.h, nodes=s.nodes, node_weights=s.node_weights,
        values=s.values * scale))
    for label, t in (("", s), ("/below-door", heavy)):
        if t is None:
            continue
        grid = points + _near(t.nodes, 1e-8 * max(1.0, t.nodes[-1]
                                                  - t.nodes[0]))
        for z in grid:
            sweep.run("reconstruct", f"{name}{label}/{z!r}",
                      lambda: ss.reconstruct(t, z))
        sweep.run("reconstruct", f"{name}{label}/grid",
                  lambda: ss.reconstruct(t, grid))


def _malformed(sweep):
    """Each malformed argument's refusal, on the random model of N = 10."""
    import specsample as ss
    from conftest import random_model

    m = random_model(np.random.default_rng(10), 10)
    nodes = ss.perturbed_spectrum(m, ss.Coupling.finite(1.3))
    jac = ss.JacobiParams(np.arange(1.0, 13.0), np.ones(12))
    for label, value in (("strings", ["a"] * 10), ("2-d", [nodes]),
                         ("bools", [True] * 10),
                         ("nan", np.r_[math.nan, nodes[1:]])):
        sweep.run("node_weights", f"malformed/{label}",
                  lambda: ss.node_weights(m, 1.3, value))
    for value in ("0.5", True, math.nan):
        sweep.run("sturm_count", f"malformed/{value!r}",
                  lambda: ss.sturm_count(jac, 3, value))
        sweep.run("omega_state", f"malformed/{value!r}",
                  lambda: ss.omega_state(m, value))
    for value in ("1.0", math.inf, math.nan):
        sweep.run("mu_pointwise", f"malformed/{value!r}",
                  lambda: ss.mu_pointwise(value))
    # A numpy boolean or complex value for a real argument, which float()
    # would read as 1.0 or without its imaginary part.
    phi = ss.StateVector(np.ones(10, dtype=complex))
    real = {"sample": lambda v: ss.sample(m, phi, v),
            "weyl_h": lambda v: ss.weyl_h(m, v, 0.5j),
            "node_weights": lambda v: ss.node_weights(m, v, nodes),
            "perturbed_model": lambda v: ss.perturbed_model(m, v),
            "inner_h": lambda v: ss.inner_h(m, v, phi, phi),
            "apply_perturbed": lambda v: ss.apply_perturbed(m, v, phi),
            "sturm_count": lambda v: ss.sturm_count(jac, 3, v),
            "xi_norm_sq": lambda v: ss.xi_norm_sq(m, v),
            "omega_state": lambda v: ss.omega_state(m, v)}
    for value in (np.True_, np.complex128(1.3 + 0.5j)):
        for name, call in real.items():
            sweep.run(name, f"malformed/{value!r}", lambda: call(value))
    sweep.run("xi_norm_sq", "malformed/(0.5+0.7j)",
              lambda: ss.xi_norm_sq(m, 0.5 + 0.7j))


def _long_rows(sweep):
    """sample and node_weights at h = 1.3, and to_partial_fractions, on
    the seed-0 model of N = 5000 with eigenvalues U(-10, 10) and weights
    U(0.1, 1): rows long enough that the row sums certify many of them by
    a second extraction."""
    import specsample as ss
    from conftest import random_state

    rng = np.random.default_rng(0)
    m = ss.new_model(np.sort(rng.uniform(-10, 10, 5000)),
                     rng.uniform(0.1, 1, 5000))
    phi = random_state(rng, 5000)
    nodes = ss.perturbed_spectrum(m, ss.Coupling.finite(1.3))
    sweep.run("node_weights", "long-5000/1.3",
              lambda: ss.node_weights(m, 1.3, nodes))
    sweep.run("sample", "long-5000/1.3", lambda: ss.sample(m, phi, 1.3))
    sweep.run("to_partial_fractions", "long-5000",
              lambda: ss.to_partial_fractions(ss.normalize(m), phi))


def sweep_all() -> Sweep:
    import specsample as ss

    sweep = Sweep()
    run = sweep.run
    _malformed(sweep)
    _long_rows(sweep)
    for name, m in _models():
        states = {}
        for label, build in _states(m.dim).items():
            phi = run("StateVector", f"{name}/{label}", build)
            if phi is not None:
                states[label] = phi
        points = _points(m, m.dim)
        for z in points:
            at = f"{name}/{z!r}"
            run("weyl", at, lambda: ss.weyl(m, z))
            run("xi", at, lambda: ss.xi(m, z))
            if not z.imag:
                run("xi_norm_sq", at, lambda: ss.xi_norm_sq(m, z.real))
            for h in H:
                run("weyl_h", f"{at}/{h}", lambda: ss.weyl_h(m, h, z))
            for label, phi in states.items():
                run("transform", f"{at}/{label}",
                    lambda: ss.transform(m, phi, z))
        for pole in _zeros(m).tolist():
            run("omega_state", f"{name}/{pole!r}",
                lambda: ss.omega_state(m, pole))
        unit = ss.normalize(m)
        for label, phi in states.items():
            run("mu_inner", f"{name}/{label}", lambda: ss.mu_inner(m, phi))
            rep = run("to_partial_fractions", f"{name}/{label}",
                      lambda: ss.to_partial_fractions(unit, phi))
            if rep is not None:
                for z in points:
                    run("evaluate_rep", f"{name}/{label}/{z!r}",
                        lambda: ss.evaluate_rep(rep, z))
        for h in H:
            run("node_weights", f"{name}/{h}", lambda: ss.node_weights(
                m, h, ss.perturbed_spectrum(m, ss.Coupling.finite(h))))
            for label, phi in states.items():
                at = f"{name}/{h}/{label}"
                run("inner_h", at,
                    lambda: ss.inner_h(m, h, phi, states["random"]))
                s = run("sample", at, lambda: ss.sample(m, phi, h))
                if s is None:
                    continue
                _sets(sweep, at, s, points)
                few = points[::6]
                for z in few:
                    run("kramer_reconstruct", f"{at}/{z!r}",
                        lambda: ss.kramer_reconstruct(m, s, z))
                run("kramer_reconstruct", f"{at}/grid",
                    lambda: ss.kramer_reconstruct(m, s, few))
    return sweep


def _read(path: str) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        return dict(line.rstrip("\n").split("\t") for line in fh if line.strip())


def diff(base: str, head: str) -> str:
    """A summary of the cases whose digests differ, or that one side
    lacks, with a count per evaluator."""
    a, b = _read(base), _read(head)
    keys = sorted(a.keys() | b.keys())
    differ = [k for k in keys if a.get(k) != b.get(k)]
    by = {}
    for k in differ:
        evaluator = k.split(" ", 1)[0]
        by[evaluator] = by.get(evaluator, 0) + 1
    lines = [f"{len(differ)} of {len(keys)} cases differ"
             f" ({sum(k not in a or k not in b for k in differ)} on one side"
             " only)"]
    lines += [f"- {name}: {count}" for name, count in sorted(by.items())]
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if argv[:1] == ["--diff"] and len(argv) == 3:
        print(diff(argv[1], argv[2]))
        return 0
    if argv:
        print(__doc__, file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sweep = sweep_all()
    sys.stdout.write("".join(f"{case}\t{digest}\n"
                             for case, digest in sweep.cases))
    if sweep.warned:
        print(f"{len(sweep.warned)} cases raise a RuntimeWarning:",
              *sweep.warned, sep="\n", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
