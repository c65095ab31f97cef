"""One timed pass over a list of ops, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD INPUTS OUT [--setup-only] [--trace]

INPUTS is a JSON list of [key, text] pairs. The worker imports polyadj,
loads the inputs, checks that no vertex cache is warm, and prints "ready";
run.py takes the time up to that line as set-up time. Unless --setup-only
is given, it then runs every op in order and writes to OUT, per op, its
time, the digest of its canonical output and the verdict of the
independent checks; with --trace also the span summary.

On a shared host the CPU speed can drift by a quarter within seconds. So
the worker also times reference_loop(), fixed standard-library work that
does not touch polyadj: before each op, and every SAMPLE_S seconds during
it from a timer signal, whose handler time is taken off the op's time. It
reports each op's time both as measured ("raw_ms") and scaled to the speed
at which that loop takes REF_MS ("ms"). The scale is the median loop time
taken during the op when there are at least 2 * REF_WINDOW + 1 of them (an
op of about a second or more); for a shorter op it is the median of the
loops before the op and its REF_WINDOW neighbours on each side. Sampling
during a 10 s op cut the run-to-run variation of its scaled time from 11%
to 2%, since loops at its edges do not see the drift inside it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import polyadj.polytope  # noqa: E402  (the package imports all its modules)

import tracing  # noqa: E402
import workloads  # noqa: E402

REF_MS = 4.0
REF_WINDOW = 2  # neighbours on each side whose loop times give a short op's scale
SAMPLE_S = 0.2  # interval of the loops timed during an op


def reference_loop() -> Fraction:
    """Fixed work in the style of the library: Fraction arithmetic and tuples."""
    acc = Fraction(0)
    rows = []
    for i in range(1, 400):
        x = Fraction(i, 7) * Fraction(3, i + 1) - Fraction(1, i % 5 + 1)
        acc += x
        rows.append((x, i))
    return acc


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=workloads.WORKLOADS)
    ap.add_argument("inputs")
    ap.add_argument("out")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    with open(args.inputs, encoding="utf-8") as fh:
        inputs = json.load(fh)
    # the library's global vertex cache (if it still has one) must start cold
    if getattr(polyadj.polytope, "_VERTEX_CACHE", None):
        print("vertex cache is warm before the first op", file=sys.stderr)
        return 1
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    op = workloads.OPS[args.workload]
    print("ready", flush=True)
    if args.setup_only:
        return 0

    rows = []
    ref_ns = []  # per op: the loop time before it, then those during it
    paused_ns = [0]

    def sample(signum, frame):
        start = time.perf_counter_ns()
        reference_loop()
        ns = time.perf_counter_ns() - start
        ref_ns[-1].append(ns)
        paused_ns[0] += ns

    signal.signal(signal.SIGALRM, sample)
    for op_id, (key, text) in enumerate(inputs):
        error = None
        start = time.perf_counter_ns()
        reference_loop()
        ref_ns.append([time.perf_counter_ns() - start])
        paused_ns[0] = 0
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        start = time.perf_counter_ns()
        try:
            result = tracer.run_op(op_id, op, text) if tracer else op(text)
        except Exception as exc:  # a failed op is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        signal.setitimer(signal.ITIMER_REAL, 0)
        ns = time.perf_counter_ns() - start
        row = {"key": key, "raw_ms": (ns - paused_ns[0]) / 1e6}
        if error is None:
            row["check"] = workloads.independent_check(args.workload, text, result)
            row["digest"] = workloads.digest(workloads.canonical(args.workload, result))
            if args.workload == "suite":
                row["cones"] = len(result.fan.maximal_cones)
        else:
            row["check"] = error
        rows.append(row)
    for i, row in enumerate(rows):
        scale_ns = ref_ns[i][1:]
        if len(scale_ns) < 2 * REF_WINDOW + 1:
            scale_ns = [loops[0] for loops in ref_ns[max(0, i - REF_WINDOW):i + REF_WINDOW + 1]]
        row["ms"] = row["raw_ms"] * REF_MS * 1e6 / statistics.median(scale_ns)

    out = {"rows": rows, "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        calls, self_ns, per_op = tracing.summarize(tracer.spans)
        out["calls"] = dict(calls)
        out["self_ms"] = {name: ns / 1e6 for name, ns in self_ns.items()}
        out["points"] = tracer.points
        for op_id, row in enumerate(rows):
            row["spans"] = dict(per_op.get(op_id, {}))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
