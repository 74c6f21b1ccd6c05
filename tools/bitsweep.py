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
- a random state and the heavy states of coordinates 1, 1e300 (1 + i) and
  1e308;
- points off the axis, on it, 0.9, 1.1 and 3 radii from poles, nodes and
  zeros of F, and from 1e153 to 1e300.

It prints one line per case, its id and a digest.  Run it on two source
trees and count the cases that differ:

    PYTHONPATH=base/src python tools/bitsweep.py > base.txt
    PYTHONPATH=src python tools/bitsweep.py > head.txt
    python tools/bitsweep.py --diff base.txt head.txt

A case that only one side has (a sample set or partial-fraction form
that one side refuses, and the evaluations on it) counts as differing.
"""
from __future__ import annotations

import hashlib
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
    return out if isinstance(out, tuple) else (out,)


def _near(poles, r, count=4):
    """Points 0.9, 1.1 and 3 radii from up to count of the poles."""
    poles = np.asarray(poles)[::max(1, len(poles) // count)]
    return [complex(x + k * r * d) for x in poles for k in (0.9, 1.1, 3.0)
            for d in (1.0, 1j)]


def _points(m, seed):
    import specsample as ss

    lam, scale = m.eigenvalues, m.scale
    rng = np.random.default_rng(seed)
    x = rng.uniform(lam[0] - scale, lam[-1] + scale, 6)
    y = 10.0 ** rng.uniform(-12, 0, 6) * scale * rng.choice([-1, 1], 6)
    try:
        zeros = ss.perturbed_spectrum(m, ss.Coupling.infinite())
    except ss.SpectralError:
        zeros = []
    r = 1e-8 * scale
    return ([complex(a, b) for a, b in zip(x, y)] + [complex(a) for a in x[:3]]
            + _near(lam, r) + _near(zeros, r)
            + [1e153, -1e154j, 1.3e154 + 1e154j, 1e200, -1e300, 1e300j])


def _states(rng, n):
    import specsample as ss
    from conftest import random_state

    return {"random": random_state(rng, n),
            "ones": ss.StateVector(np.ones(n)),
            "1e300(1+i)": ss.StateVector(np.full(n, 1e300 * (1 + 1j))),
            "1e308": ss.StateVector(np.full(n, 1e308))}


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


def sweep_all() -> list[tuple[str, str]]:
    import specsample as ss

    sweep = Sweep()
    run = sweep.run
    for name, m in _models():
        states = _states(np.random.default_rng(m.dim), m.dim)
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
    return sweep.cases


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
        cases = sweep_all()
    sys.stdout.write("".join(f"{case}\t{digest}\n" for case, digest in cases))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
