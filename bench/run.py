"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from src/.  The
workloads are solve, evaluate, structured and cli (see bench/README.md).

The run starts SETUP_RUNS set-up workers one after another.  Each one
imports specsample and builds the workload's inputs; the time from its
start to its READY line is one set-up sample.  It is scaled by the mean
latency of the reference loop (worker.Reference) run for half a second
just before and just after it, and setup_s is the median of the scaled
samples.  A last worker then sets up again, measures for S seconds and
checks its outputs against the oracle.  A human-readable report goes to
stdout, followed by one JSON line: {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end metrics, with
--trace 1 the per-layer metrics.  Full results (and, when traced, the spans) are written under bench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

from worker import Reference, pin_to_one_cpu
from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
OUT_DIR = os.path.join(BENCH, "out")
WORK_ROOT = os.path.join(BENCH, ".work")

SETUP_RUNS = 3
# setup_s is in seconds of a host on which the reference loop takes this
# long: its time on an idle core of the 2.0 GHz Xeon the benchmark was
# written on.
REF_NOMINAL_S = 0.3e-3
# The reference loop runs this long before and after each set-up: the
# host's speed flips within fractions of a second, so a shorter reading
# catches one moment rather than the speed a set-up sees.
REF_AROUND_SETUP_S = 0.5
SETUP_TIMEOUT_S = 60
RUN_DEADLINE_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("wall_ref", "ref"),
    ("op_p50_ref", "ref"),
    ("ok_frac", "frac"),
    ("acc_digits_min", "digits"),
    ("peak_rss_mb", "MB"),
)


def per_layer_unit(name: str) -> str:
    if name.endswith((".us_per_root", ".us_per_node", ".us_per_pt", ".us_per_call")):
        return "us"
    if name.endswith(".ms_per_pt"):
        return "ms"
    if name.endswith(("_s", ".s", ".s_per_call")):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith(".bytes"):
        return "B"
    return "count"


class WorkerFailed(Exception):
    pass


def _start(args, role: str, work_dir: str, out_path: str):
    """Start a worker and wait for its READY line; returns the process and
    the seconds from its start to READY."""
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--role", role,
           "--work-dir", work_dir, "--out", out_path]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    ready, _, _ = select.select([proc.stdout], [], [], SETUP_TIMEOUT_S)
    line = proc.stdout.readline() if ready else b""
    t1 = time.perf_counter()
    if line.strip() != b"READY":
        proc.kill()
        proc.wait()
        raise WorkerFailed(f"{role} worker did not finish set-up "
                           f"(exit {proc.returncode})")
    return proc, t1 - t0


def _finish(proc, timeout: float) -> None:
    try:
        proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerFailed("worker exceeded the run deadline")
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited {proc.returncode}")


def run(args) -> dict:
    deadline = time.perf_counter() + RUN_DEADLINE_S
    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    out_path = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    setups, scaled = [], []
    ref = Reference()
    proc = None
    try:
        for _ in range(SETUP_RUNS):
            before = ref.run_for(REF_AROUND_SETUP_S)
            proc, t = _start(args, "setup", work_dir, out_path)
            _finish(proc, deadline - time.perf_counter())
            level = statistics.fmean(before + ref.run_for(REF_AROUND_SETUP_S))
            setups.append(t)
            scaled.append(t * REF_NOMINAL_S / level)
        proc, _ = _start(args, "main", work_dir, out_path)
        _finish(proc, deadline - time.perf_counter())
    finally:
        if proc is not None and proc.poll() is None:
            proc.terminate()
            proc.wait()
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(out_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup_s"] = statistics.median(scaled)
    result["setup_clock_s"] = setups
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return result


def report(result: dict) -> list[str]:
    """Human-readable lines: the seven end-to-end metrics, then failures."""
    lines = [f"workload {result['workload']}  seed {result['seed']}  "
             f"passes {result['passes']}  ops/pass {result['ops']}"]
    lines.append(f"  setup_s        {result['setup_s']:.4f} s  (median of "
                 f"{len(result['setup_clock_s'])}, at the reference loop's "
                 f"{REF_NOMINAL_S * 1e3:g} ms; clock: "
                 + ", ".join(f"{t:.4f}" for t in result["setup_clock_s"]) + " s)")
    lines.append(f"  wall_ref       {result['wall_ref']:.4f} ref  "
                 f"(clock: {result['wall_s']:.4f} s; the reference loop's "
                 f"median {result['ref_ms']:.4f} ms)")
    lines.append(f"  op_p50_ref     {result['op_p50_ref']:.4f} ref"
                 + ("  (lands on a failed op)" if result["op_p50_on_failure"] else ""))
    t = result["op_tail"]
    if t is None:
        lines.append(f"  op_tail_ref    none ({result['ops']} ops: "
                     "too few for a percentile with 10 beyond it)")
    else:
        lines.append(f"  op_tail_ref    {t['ref']:.4f} ref  (p{t['pct']:g}, "
                     f"{t['beyond']} of {t['ops']} ops beyond)"
                     + ("  (lands on a failed op)" if t["on_failure"] else ""))
    lines.append(f"  fail_frac      {result['fail_frac']:.6f}  "
                 f"({result['failed']} of {result['attempted']})")
    acc = result["acc_digits_min"]
    lines.append("  acc_digits_min " + ("absent: " + result["notice"] if acc is None
                                        else f"{acc:.4f} digits"))
    lines.append(f"  peak_rss_mb    {result['peak_rss_mb']:.2f} MB")
    for name, why in sorted(result["failures"].items()):
        lines.append(f"  FAILED {name}: {why}")
    for name, probe in sorted(result["known_defects"].items()):
        worst = ""
        if probe["outcome"] == "MissedOracleBound":
            q, row = max(((q, r) for q, r in probe["checks"].items()),
                         key=lambda item: item[1]["max_err"] / item[1]["bound"])
            worst = f", {q} error {row['max_err']:.2e} > {row['bound']:.0e}"
        lines.append(f"  known defect {name}: {probe['outcome']} "
                     f"({probe['ms']:.1f} ms{worst})")
    layers = result.get("per_layer")
    if layers:
        lines.append("  per layer, per pass of the op list (traced passes):")
        for name, value in layers.items():
            lines.append(f"    {name:46s} {value:.6g} {per_layer_unit(name)}")
        lines.append(f"  self times sum to {layers['trace.self_sum_s']:.4f} s per pass; "
                     f"traced wall_s {layers['trace.wall_s']:.4f} s, untraced "
                     f"{layers['trace.wall_s'] / (1 + layers['trace.overhead_frac']):.4f}"
                     " s (overhead "
                     f"{layers['trace.overhead_frac']:+.2%})")
    return lines


def final_line(result: dict, trace: int) -> dict:
    if trace:
        metrics = {k: {"value": v, "unit": per_layer_unit(k)}
                   for k, v in result["per_layer"].items()}
    else:
        metrics = {k: {"value": result[k], "unit": unit}
                   for k, unit in END_TO_END if result[k] is not None}
    return {"correct": bool(result["correct"]), "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # On SIGTERM unwind normally, so the running worker is stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    pin_to_one_cpu()
    if not os.path.isfile(os.path.join(ROOT, "src", "specsample", "__init__.py")):
        print(f"benchmark failed: no specsample package under {ROOT}/src",
              file=sys.stderr)
        return 1
    try:
        result = run(args)
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for line in report(result):
        print(line)
    if result["notice"]:
        print(f"notice: {result['notice']}", file=sys.stderr)
    print(json.dumps(final_line(result, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
