"""Spans around the library's layer boundaries, recorded from outside.

The traced run wraps every public function (and the constructor of every
public class) of each layer module, rebinding the names wherever another
specsample module imported them.  Each call records one span
(name, start, end, parent, failed, count) in memory.  Per-layer metrics are
derived from the spans afterwards: a span's self time is its duration minus
the part of its interval that its child spans cover.

Standard library only, so importing it does not pull numpy into a traced
child before the timed import of specsample.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

LAYERS = ("model", "herglotz", "perturbation", "sampling", "jacobi",
          "oscillator", "serialize", "verify", "cli")

# Span fields.
NAME, START, END, PARENT, FAILED, COUNT = range(6)


def _len(args, kwargs, out):
    return out.size if hasattr(out, "size") else len(out)


def _model_dim(args, kwargs, out):
    return args[0].dim


def _samples_size(args, kwargs, out):
    return args[0].size


def _file_bytes(args, kwargs, out):
    return os.path.getsize(args[0])


def _check_failed(args, kwargs, out):
    return 0 if out.passed else 1


# Work counted at a span, by function: roots found, nodes weighed, the model
# dimension of a point evaluation (its Cauchy terms), nodes sampled, bytes
# read.  verify's check_* spans count a failed check.
COUNTERS = {
    "perturbation.perturbed_spectrum": _len,
    "perturbation.node_weights": _len,
    "sampling.reconstruct": _samples_size,
    "sampling.transform": _model_dim,
    "sampling.kramer_reconstruct": _model_dim,
    "sampling.sample": _len,
    "serialize.load_json": _file_bytes,
}


class Recorder:
    """Spans kept in memory, nested by a stack of open span indices."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, False, 0])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, failed: bool = False) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[FAILED] = failed
        self._stack.pop()

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        if name.startswith("verify.check_"):
            counter = _check_failed

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.close(idx, failed=True)
                raise
            self.close(idx)
            if counter is not None:
                self.spans[idx][COUNT] = counter(args, kwargs, out)
            return out

        return traced

    def adopt(self, spans, parent: int) -> None:
        """Append spans recorded elsewhere (a traced child process) under
        the span `parent`.  perf_counter is system-wide on Linux, so the
        child's times are on this process's clock."""
        base = len(self.spans)
        for s in spans:
            p = parent if s[PARENT] < 0 else s[PARENT] + base
            self.spans.append([s[NAME], s[START], s[END], p, s[FAILED],
                               s[COUNT]])


def install(rec: Recorder):
    """Wrap the public layer functions; returns an undo callable."""
    originals = {}
    undo = []
    for layer in LAYERS:
        mod = importlib.import_module(f"specsample.{layer}")
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                originals[obj] = rec.wrap(f"{layer}.{attr}", obj)
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                init = obj.__dict__.get("__init__")
                if init is not None:
                    obj.__init__ = rec.wrap(f"{layer}.{attr}", init)
                    undo.append((obj, "__init__", init))
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "specsample" or name.startswith("specsample.")):
            continue
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, tuple) and any(_hashable_in(o, originals) for o in obj):
                setattr(mod, attr, tuple(originals.get(o, o) if _hashable_in(o, originals) else o
                                         for o in obj))
                undo.append((mod, attr, obj))
            elif _hashable_in(obj, originals):
                setattr(mod, attr, originals[obj])
                undo.append((mod, attr, obj))

    def restore():
        for target, attr, obj in reversed(undo):
            setattr(target, attr, obj)

    return restore


def _hashable_in(obj, table) -> bool:
    try:
        return obj in table
    except TypeError:
        return False


# -- derived metrics --------------------------------------------------------


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals,
    clipped to the span."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s[START]
        for c in sorted(children[i], key=lambda k: spans[k][START]):
            lo = max(spans[c][START], reach)
            hi = min(spans[c][END], s[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s[END] - s[START] - covered)
    return out


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def aggregate(spans):
    """Totals per span name: calls, inclusive and self seconds, failures at
    the layer boundary (the caller is in another layer), and counted work."""
    selfs = self_times(spans)
    table = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "ok_incl_s": 0.0,
                                 "self_s": 0.0, "fail": 0, "count": 0})
    for i, s in enumerate(spans):
        row = table[s[NAME]]
        dur = s[END] - s[START]
        row["calls"] += 1
        row["incl_s"] += dur
        row["self_s"] += selfs[i]
        row["count"] += s[COUNT]
        if not s[FAILED]:
            row["ok_incl_s"] += dur
        parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else ""
        if s[FAILED] and _layer(parent) != _layer(s[NAME]):
            row["fail"] += 1
    return dict(table)


def _ratio(num: float, den: float, unit: float) -> float:
    return num / den * unit if den else 0.0


def layer_metrics(spans, passes: int, traced_wall_s: float,
                  untraced_wall_s: float) -> dict:
    """The per-layer metrics, each per pass of the workload's op list."""
    agg = aggregate(spans)

    def fn(name, key):
        return agg.get(name, {}).get(key, 0)

    def layer_sum(layer, key):
        return sum(row[key] for name, row in agg.items()
                   if _layer(name) == layer and name != "cli.import")

    per_pass = 1.0 / passes
    m = {}
    for layer in ("perturbation", "sampling", "herglotz", "jacobi",
                  "oscillator", "serialize", "model"):
        m[f"{layer}.calls"] = layer_sum(layer, "calls") * per_pass
        m[f"{layer}.self_s"] = layer_sum(layer, "self_s") * per_pass
    for layer in ("perturbation", "sampling", "jacobi"):
        m[f"{layer}.fail"] = layer_sum(layer, "fail") * per_pass

    roots = fn("perturbation.perturbed_spectrum", "count")
    m["perturbation.roots"] = roots * per_pass
    m["perturbation.perturbed_spectrum.us_per_root"] = _ratio(
        fn("perturbation.perturbed_spectrum", "ok_incl_s"), roots, 1e6)
    m["perturbation.node_weights.us_per_node"] = _ratio(
        fn("perturbation.node_weights", "ok_incl_s"),
        fn("perturbation.node_weights", "count"), 1e6)

    point_fns = ("sampling.reconstruct", "sampling.transform",
                 "sampling.kramer_reconstruct")
    # sample() evaluates the image function once per node, and a finitely
    # coupled model has as many nodes as its dimension.
    sampled = [s[COUNT] for s in spans if s[NAME] == "sampling.sample"]
    m["sampling.points"] = (sum(fn(f, "calls") for f in point_fns)
                            + sum(sampled)) * per_pass
    m["sampling.cauchy_terms"] = (sum(fn(f, "count") for f in point_fns)
                                  + sum(n * n for n in sampled)) * per_pass
    m["sampling.reconstruct.us_per_pt"] = _ratio(
        fn("sampling.reconstruct", "incl_s"), fn("sampling.reconstruct", "calls"), 1e6)
    m["sampling.transform.us_per_pt"] = _ratio(
        fn("sampling.transform", "incl_s"), fn("sampling.transform", "calls"), 1e6)
    m["sampling.kramer_reconstruct.ms_per_pt"] = _ratio(
        fn("sampling.kramer_reconstruct", "incl_s"),
        fn("sampling.kramer_reconstruct", "calls"), 1e3)
    m["sampling.sample.s_per_call"] = _ratio(
        fn("sampling.sample", "incl_s"), fn("sampling.sample", "calls"), 1.0)
    m["herglotz.weyl_h.us_per_call"] = _ratio(
        fn("herglotz.weyl_h", "incl_s"), fn("herglotz.weyl_h", "calls"), 1e6)

    m["jacobi.truncate.s_per_call"] = _ratio(
        fn("jacobi.truncate", "incl_s"), fn("jacobi.truncate", "calls"), 1.0)
    m["jacobi.polys.calls"] = fn("jacobi.polys", "calls") * per_pass

    m["serialize.bytes"] = fn("serialize.load_json", "count") * per_pass
    m["cli.import_s"] = _ratio(fn("cli.import", "incl_s"), fn("cli.import", "calls"), 1.0)
    m["cli.self_s"] = layer_sum("cli", "self_s") * per_pass
    for cmd in ("spectrum", "sample", "reconstruct", "verify"):
        m[f"cli.{cmd}.s"] = _ratio(fn(f"cli.cmd_{cmd}", "incl_s"),
                                   fn(f"cli.cmd_{cmd}", "calls"), 1.0)
    m["verify.self_s"] = layer_sum("verify", "self_s") * per_pass
    checks = [n for n in agg if n.startswith("verify.check_")]
    m["verify.checks"] = sum(agg[n]["calls"] for n in checks) * per_pass
    m["verify.checks_failed"] = sum(agg[n]["count"] for n in checks) * per_pass

    m["bench.self_s"] = layer_sum("bench", "self_s") * per_pass
    m["trace.self_sum_s"] = sum(row["self_s"] for row in agg.values()) * per_pass
    m["trace.wall_s"] = traced_wall_s
    m["trace.overhead_frac"] = traced_wall_s / untraced_wall_s - 1.0
    return m


def by_group(spans) -> dict:
    """Inclusive seconds and calls per (op group, span name), for the
    per-size breakdown in the trace report.  The op group is the name of
    the root span (the benchmark op) above each span."""
    root = []
    for s in spans:
        root.append(s[NAME] if s[PARENT] < 0 else root[s[PARENT]])
    out = defaultdict(lambda: {"calls": 0, "incl_s": 0.0})
    for s, r in zip(spans, root):
        if s[PARENT] < 0:
            continue
        row = out[f"{r}|{s[NAME]}"]
        row["calls"] += 1
        row["incl_s"] += s[END] - s[START]
    return dict(out)
