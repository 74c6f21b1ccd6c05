"""One benchmark process: set up a workload, run its ops, check the outputs.

run.py starts this process with --role main to measure, and with
--role setup to time set-up alone.  Either way it prints READY on stdout
once the inputs are built, so the parent can time interpreter start,
`import specsample` and input building from outside.

The main role then runs the op list in a closed loop (one caller, one op
at a time) for the given seconds, always finishing the pass it is in, with
bursts of a fixed reference loop between ops that read the host's speed.
With --trace 1 it alternates untraced passes with passes in which every
layer is wrapped in spans.  Only after timing does it read peak RSS,
import the oracle and check the first output of every op; every later
execution of an op must return the same bytes.
"""
from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
from array import array

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
CLI_CHILD = os.path.join(BENCH, "cli_child.py")

# Stop at the end of a pass once this many op executions (or spans) are
# stored, so a much faster library cannot exhaust memory.
MAX_EXECUTIONS = 2_000_000
MAX_SPANS = 200_000
CLI_TIMEOUT_S = 120
# A burst of reference loops runs between ops whenever REF_EVERY_S have gone
# by since the last burst: at least REF_BURST loops, and after a long op
# enough loops to take REF_SHARE of the op's time.
REF_EVERY_S = 0.02
REF_BURST = 5
REF_SHARE = 0.1
# op_tail_ref: the highest of these percentiles with >= 10 ops beyond it.
TAIL_PERCENTILES = (99.9, 99.0, 90.0)
TAIL_BEYOND = 10
# Quantities that carry an accuracy (others are pass/fail status checks).
ACCURACY_QUANTITIES = ("node", "weight", "value")


def pin_to_one_cpu() -> None:
    """Run this process, and the processes it starts, on one CPU, so the
    reference loop reads the speed of the CPU the measured work runs on:
    the host's other tenants slow each CPU by their own amount."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _wait(proc, timeout: float) -> int:
    """Wait for a child to exit.  Popen.wait with a timeout polls with
    sleeps of up to 50 ms, which would round every command's latency up to
    that step; a pidfd wakes the caller as soon as the child exits."""
    if not hasattr(os, "pidfd_open"):
        return proc.wait(timeout=timeout)
    fd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([fd], [], [], timeout)
    finally:
        os.close(fd)
    if not ready:
        raise subprocess.TimeoutExpired(proc.args, timeout)
    return proc.wait()


class Context:
    """What ops need from the process that runs them."""

    def __init__(self, work_dir: str):
        self.work_dir = work_dir
        self.recorder = None
        self._cli_runs = 0

    def run_cli(self, name: str, args: list[str], out_path: str) -> int:
        """Run one command in a fresh interpreter; returns its exit code."""
        env = dict(os.environ, PYTHONPATH=SRC)
        self._cli_runs += 1
        spans_path = None
        if self.recorder is None:
            cmd = [sys.executable, "-m", "specsample.cli", *args]
        else:
            spans_path = os.path.join(self.work_dir, f"spans-{self._cli_runs}.json")
            cmd = [sys.executable, CLI_CHILD, spans_path, *args]
        err_path = os.path.join(self.work_dir, f"{name}.err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env,
                                    cwd=ROOT)
            try:
                code = _wait(proc, CLI_TIMEOUT_S)
            except BaseException:  # timeout, or this process was stopped
                proc.kill()
                proc.wait()
                raise
        if spans_path is not None and os.path.exists(spans_path):
            with open(spans_path, encoding="utf-8") as fh:
                self.recorder.adopt(json.load(fh), self.recorder._stack[-1])
        return code

    @staticmethod
    def point_oracle(lam, w, coords):
        """A lazily built PointOracle for one model and state."""
        cache = []

        def get(oracle):
            if not cache:
                cache.append(oracle.PointOracle(lam, w, coords))
            return cache[0]
        return get


class Reference:
    """The machine's current speed, read from a fixed reference loop.

    On a shared host the same code runs up to 1.6x slower for seconds to
    minutes while other tenants are busy, and a run of a few dozen seconds
    can fall wholly into such a phase.  The reference loop is a fixed mix
    of interpreted arithmetic and small numpy calls, like the library's own
    inner loops.  It runs in bursts between ops, and an op's latency is
    divided by the loop's latency in the bursts just before and after it,
    which takes out most of the host's drift and none of the program's
    cost."""

    def __init__(self):
        import numpy as np
        self._np = np
        self._x = np.linspace(-1.0, 1.0, 64)
        self.times = array("d")     # end of each burst
        self.levels = array("d")    # the loop's median latency in the burst
        self.burst()                # warm-up
        del self.times[:], self.levels[:]

    def _loop(self) -> float:
        s = 0.0
        for i in range(2000):
            s += i * 0.5
        np, x = self._np, self._x
        for i in range(30):
            s += float(np.sum(1.0 / (x - 0.03 * i + 1j)).real)
        return s

    def burst(self, seconds: float = 0.0) -> None:
        """Run at least REF_BURST loops, and about `seconds` worth."""
        lat = []
        n = REF_BURST
        if self.levels:
            n = max(n, round(seconds / self.levels[-1]))
        for _ in range(n):
            t0 = time.perf_counter()
            self._loop()
            lat.append(time.perf_counter() - t0)
        self.times.append(time.perf_counter())
        self.levels.append(statistics.median(lat))

    def run_for(self, seconds: float) -> list[float]:
        """Latencies of the loop run back to back for about `seconds`."""
        lat = []
        t_end = time.perf_counter() + seconds
        while True:
            t0 = time.perf_counter()
            self._loop()
            t1 = time.perf_counter()
            lat.append(t1 - t0)
            if t1 >= t_end:
                return lat

    def due(self) -> bool:
        return time.perf_counter() - self.times[-1] >= REF_EVERY_S

    def level(self, start: float, end: float) -> float:
        """The loop's latency around [start, end]: the mean of the last
        burst before start and the first burst after end."""
        i = bisect.bisect_right(self.times, start) - 1
        j = bisect.bisect_left(self.times, end)
        return statistics.fmean(self.levels[k] for k in {i, j}
                                if 0 <= k < len(self.levels))


class Loop:
    """Results of running the op list in passes."""

    def __init__(self, n_ops: int):
        self.start = [array("d") for _ in range(n_ops)]
        self.latency = [array("d") for _ in range(n_ops)]
        self.bad = [array("b") for _ in range(n_ops)]
        self.errors = [None] * n_ops
        self.passes = 0

    def executions(self) -> int:
        return sum(len(a) for a in self.latency)

    def extend(self, other: "Loop") -> None:
        for mine, theirs in zip(self.start + self.latency + self.bad,
                                other.start + other.latency + other.bad):
            mine.extend(theirs)
        self.errors = [a or b for a, b in zip(self.errors, other.errors)]
        self.passes += other.passes


def run_loop(ops, seconds: float, first, first_bytes, rec=None, ref=None) -> Loop:
    """Run the op list in passes for `seconds`.  Every op runs at least
    once.  After the first pass an untraced loop stops before an op that its
    last latency says would end past the time.  A traced loop repeats whole
    passes and stops at the end of one, since its per-layer figures are per
    pass.  With a Reference, its bursts run between ops and after the last
    one."""
    if ref is None:
        return _run_loop(ops, seconds, first, first_bytes, rec, None)
    ref.burst()
    try:
        return _run_loop(ops, seconds, first, first_bytes, rec, ref)
    finally:
        ref.burst()


def _run_loop(ops, seconds, first, first_bytes, rec, ref) -> Loop:
    loop = Loop(len(ops))
    t_end = time.perf_counter() + seconds

    def done():
        return (time.perf_counter() >= t_end or loop.executions() >= MAX_EXECUTIONS
                or (rec is not None and len(rec.spans) >= MAX_SPANS))

    while True:
        for i, op in enumerate(ops):
            if rec is None and loop.passes and (
                    done() or time.perf_counter() + loop.latency[i][-1] > t_end):
                return loop
            root = rec.open(f"bench.{op.group}") if rec is not None else None
            exc = None
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as e:  # any exception is a failed op
                out, exc = None, e
            t1 = time.perf_counter()
            if rec is not None:
                rec.close(root, failed=exc is not None)
            bad = exc is not None
            if exc is not None:
                loop.errors[i] = type(exc).__name__
            else:
                bad = not op.ok(out)
                data = op.encode(out)
                if first_bytes[i] is None:
                    first[i], first_bytes[i] = out, data
                elif data != first_bytes[i]:
                    loop.errors[i] = "NondeterministicOutput"
                    bad = True
            loop.start[i].append(t0)
            loop.latency[i].append(t1 - t0)
            loop.bad[i].append(bad)
            if ref is not None and ref.due():
                ref.burst(REF_SHARE * (t1 - t0))
        loop.passes += 1
        if done():
            return loop


def op_means(loop: Loop) -> list[float]:
    """Each op's mean latency over the run's executions (per-pass figures
    of a traced run, whose self times add up per pass)."""
    return [statistics.fmean(a) for a in loop.latency]


def op_medians(loop: Loop) -> list[float]:
    """Each op's median latency in seconds, as the clock read it."""
    return [statistics.median(a) for a in loop.latency]


def op_refs(loop: Loop, ref: Reference) -> list[float]:
    """Each op's latency in reference loops: the median over its executions
    of its latency over the reference loop's latency around it."""
    return [statistics.median(t / ref.level(s, s + t) for s, t in zip(ss, lat))
            for ss, lat in zip(loop.start, loop.latency)]


def rank(means, failed_ops) -> list[float]:
    """Op latencies in increasing order, failed ops after every success."""
    return sorted(math.inf if i in failed_ops else m for i, m in enumerate(means))


def percentile(ranked, pct: float, longest: float):
    """Nearest-rank percentile; a failed op there reads as the longest
    op latency of the run."""
    k = max(1, math.ceil(pct / 100.0 * len(ranked)))
    v = ranked[k - 1]
    return (longest if math.isinf(v) else v), math.isinf(v)


def tail(ranked, longest: float):
    for pct in TAIL_PERCENTILES:
        beyond = len(ranked) - math.ceil(pct / 100.0 * len(ranked))
        if beyond >= TAIL_BEYOND:
            v, failed = percentile(ranked, pct, longest)
            return {"pct": pct, "ref": v, "beyond": beyond,
                    "ops": len(ranked), "on_failure": failed}
    return None


def check_outputs(ops, first, failed_bad):
    """Oracle pass over the first output of every op that did not fail.

    Returns (per-op check rows, ops that missed a bound, accuracy digits
    or None when the oracle is unavailable, notice)."""
    try:
        import oracle
    except ImportError as exc:
        return {}, set(), None, f"oracle unavailable ({exc}); accuracy not measured"
    rows, missed, digits = {}, set(), []
    for i, op in enumerate(ops):
        if first[i] is None or op.check is None or i in failed_bad:
            continue
        try:
            errs = op.check(first[i], oracle)
        except Exception as exc:  # unreadable output or a reference failure
            rows[op.name] = {"error": f"{type(exc).__name__}: {exc}"}
            missed.add(i)
            continue
        worst = {}
        for quantity, err, bound in errs:
            w = worst.setdefault(quantity, [0.0, bound])
            w[0] = max(w[0], err)
            if err > bound:
                missed.add(i)
            if quantity in ACCURACY_QUANTITIES:
                digits.append(oracle.digits(err))
        rows[op.name] = {q: {"max_err": e, "bound": b} for q, (e, b) in worst.items()}
    return rows, missed, (min(digits) if digits else 0.0), None


def outcomes(ops, first, loops, rows, missed) -> dict:
    """Why each failing op failed: the exception's name, NonzeroExit (with
    the exit code and the command's last stderr line), NondeterministicOutput,
    MissedOracleBound or OracleCheckError."""
    out = {}
    for i, op in enumerate(ops):
        if i in missed:
            out[op.name] = ("OracleCheckError" if "error" in rows.get(op.name, {})
                            else "MissedOracleBound")
            continue
        reason = next((lp.errors[i] for lp in loops if lp.errors[i]), None)
        if reason is None and any(any(lp.bad[i]) for lp in loops):
            reason = "NonzeroExit"
            if hasattr(first[i], "failure"):
                reason += f" ({first[i].failure()})"
        if reason is not None:
            out[op.name] = reason
    return out


def run_probes(probes):
    """Run each known-defect reproducer once and check what it returns."""
    first, first_bytes = [None] * len(probes), [None] * len(probes)
    loop = run_loop(probes, 0.0, first, first_bytes)
    always_bad = {i for i in range(len(probes)) if loop.bad[i][0]}
    rows, missed, _, _ = check_outputs(probes, first, always_bad)
    reasons = outcomes(probes, first, [loop], rows, missed)
    return {op.name: {"outcome": reasons.get(op.name, "ok"),
                      "ms": loop.latency[i][0] * 1e3,
                      "checks": rows.get(op.name)}
            for i, op in enumerate(probes)}


def measure(args, ctx, ops) -> dict:
    first, first_bytes = [None] * len(ops), [None] * len(ops)
    result = {}
    ref = Reference()
    if not args.trace:
        loops = [run_loop(ops, args.seconds, first, first_bytes, ref=ref)]
    else:
        import tracing
        rec = tracing.Recorder()
        loops = [Loop(len(ops)), Loop(len(ops))]
        t_end = time.perf_counter() + args.seconds
        # Alternate untraced and traced passes, so that both see the same
        # machine speed and their ratio is the tracing overhead.
        while True:
            loops[0].extend(run_loop(ops, 0.0, first, first_bytes, ref=ref))
            restore = tracing.install(rec)
            ctx.recorder = rec
            try:
                loops[1].extend(run_loop(ops, 0.0, first, first_bytes, rec))
            finally:
                ctx.recorder = None
                restore()
            if time.perf_counter() >= t_end or len(rec.spans) >= MAX_SPANS:
                break
        passes = loops[1].passes
        result["per_layer"] = tracing.layer_metrics(
            rec.spans, passes, math.fsum(op_means(loops[1])),
            math.fsum(op_means(loops[0])))
        result["by_group"] = {
            k: {"calls": v["calls"] / passes, "incl_s": v["incl_s"] / passes}
            for k, v in tracing.by_group(rec.spans).items()}
        spans_out = os.path.join(os.path.dirname(args.out),
                                 f"spans-{args.workload}-seed{args.seed}.json")
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump([s[:4] for s in rec.spans], fh)

    # Peak RSS over the timed ops, before any probe or oracle work.
    peak_kb = resource.getrusage(
        resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    ).ru_maxrss

    always_bad = {i for i in range(len(ops))
                  if all(b for lp in loops for b in lp.bad[i])}
    rows, missed, acc, notice = check_outputs(ops, first, always_bad)
    failed_ops = missed | {i for i in range(len(ops))
                           if any(any(lp.bad[i]) for lp in loops)}
    attempted = sum(lp.executions() for lp in loops)
    failed = sum(len(lp.bad[i]) if i in missed else sum(lp.bad[i])
                 for lp in loops for i in range(len(ops)))
    lat = op_refs(loops[0], ref)
    ranked = rank(lat, failed_ops)
    p50, p50_on_failure = percentile(ranked, 50.0, max(lat))
    raw = op_medians(loops[0])
    result.update({
        "ops": len(ops), "passes": [lp.passes for lp in loops],
        "attempted": attempted, "failed": failed,
        "correct": notice is None and failed == 0, "notice": notice,
        "wall_ref": math.fsum(lat),
        "op_p50_ref": p50, "op_p50_on_failure": p50_on_failure,
        "op_tail": tail(ranked, max(lat)),
        "ref_ms": statistics.median(ref.levels) * 1e3,
        "wall_s": math.fsum(raw),
        "ok_frac": 1.0 - failed / attempted,
        "fail_frac": failed / attempted,
        "acc_digits_min": acc,
        "peak_rss_mb": peak_kb / 1024.0,
        "failures": outcomes(ops, first, loops, rows, missed),
        "checks": rows,
        "op_ref": {op.name: v for op, v in zip(ops, lat)},
        "op_ms": {op.name: v * 1e3 for op, v in zip(ops, raw)},
        "op_runs": {op.name: len(a) for op, a in zip(ops, loops[0].latency)},
    })
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("main", "setup"), required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    # On SIGTERM unwind normally, so a running command child is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    pin_to_one_cpu()

    sys.path.insert(0, SRC)
    import specsample  # noqa: F401  (set-up includes the import)
    import workloads

    ctx = Context(args.work_dir)
    inputs = workloads.make_inputs(args.workload, args.seed)
    ops = workloads.build_ops(args.workload, inputs, ctx)
    print("READY", flush=True)
    if args.role == "setup":
        return 0

    timed = [op for op in ops if not op.known_defect]
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    result.update(measure(args, ctx, timed))
    result["known_defects"] = run_probes([op for op in ops if op.known_defect])
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
