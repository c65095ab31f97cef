"""polyadj benchmark: times the ops of one workload and checks every output.

    python3 perfbench/run.py --workload {suite,adjoint,hull} [--seed N]
                             [--seconds S] [--trace {0,1}]

Run from the repository root; the library is imported from src/.

Inputs come from gen.py, in a process of their own. A timed run makes every
op of the seed's instance list (workloads.py), in order and once each, so
the ops it times depend on the seed alone and not on the speed of the host
or of the code. --seconds S scales the list down to its first
ceil(len * S / run_seconds) ops; the default S is BENCHMARK.json's
run_seconds, at which adjoint and hull runs take about that long and a
suite run, its whole list of 200 instances, about 50 s. The ops run in
fresh interpreters (worker.py), one per pass of CHUNK[workload] ops, so
every pass starts with nothing cached, as a run of ``polyadj analyze
file.poly`` does. Every op's output must pass the independent checks of
workloads.py and match its digest pinned in data/pinned.json; an
exception or a mismatch counts as a failed op.

Op times are scaled to a fixed reference CPU speed (worker.py says how),
since the host's speed drifts by a quarter within seconds; the unscaled
median goes to stderr.

--trace 0 prints the end-to-end metrics:
  setup_s       interpreter start, import and loading the inputs: median
                of SETUP_SAMPLES set-up-only starts and every pass's start
  ops_per_s     correct ops per second of op time: correct ops over the
                sum of all ops' times, so a slower tail lowers it in full
  op_ms_gmean   geometric mean of the per-op latency: the typical op. The
                median would sit in the gap between the suite's d=2 and
                d=3 ops (d=2 is exactly half of it) and jump across it
  op_ms_p80     80th percentile of the per-op latency; 40 suite ops, 12
                adjoint ops and 6 hull ops lie beyond it
  peak_rss_mb   peak resident memory of the lightest pass: what every pass
                holds (interpreter, library, caches), without the transient
                peak of an instance that only some passes contain
  ok_ops_ratio  correct ops / attempted ops (1 when nothing failed)
--trace 1 runs the first TRACE_OPS[workload] ops traced (tracing.py) and
prints the per-layer metrics: call counts, each span's self time as a
share of op.total_ms (the traced ops' time), LP calls by enclosing span,
lattice points returned, and the traced / untraced time of the first
OVERHEAD_OPS ops, which also run once untraced. Self time is a share and
not a time because a layer that a workload never calls would read 0 ms
on every run.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Without src/polyadj the run exits
with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

START = time.monotonic()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

CHUNK = {"suite": 20, "adjoint": 10, "hull": 7}          # ops per timed pass
TRACE_OPS = {"suite": 200, "adjoint": 20, "hull": 10}    # ops of the traced pass
OVERHEAD_OPS = {"suite": 40, "adjoint": 20, "hull": 10}  # of them, also run untraced
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170  # a run that has not ended by then gives up
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    RUN_SECONDS = json.load(_fh)["run_seconds"]

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_gmean": "ms",
    "op_ms_p80": "ms",
    "peak_rss_mb": "MB",
    "ok_ops_ratio": "ratio",
}
_CALLS = ("fan.canonicity_threshold", "polytope.lattice_points", "lp.solve", "lp.is_feasible",
          "polytope.from_vertices", "ratmath.integer_kernel_basis", "ratmath.saturate",
          "polytope.vertices")
_SELF = _CALLS + ("fan.normal_fan", "fan.gorenstein_index", "polytope.implicit_equalities",
                     "polytope.embed_system", "polytope.from_inequalities",
                     "adjunction.critical_shift", "adjunction.adjunction_data",
                     "adjunction.verify_lemmas", "spectrum.validate_config",
                     "spectrum.codegree_step", "polyfile.parse_document", tracing.ROOT)
PER_LAYER = {
    **{f"{name}.calls": "count" for name in _CALLS},
    **{f"lp.calls.{caller}": "count" for caller in tracing.LP_CALLERS + ("other",)},
    **{f"{name}.self_pct": "%" for name in _SELF},
    "polytope.lattice_points.points": "count",
    "op.total_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


class RunError(Exception):
    """The benchmark itself could not run; no result is printed."""


def time_left() -> float:
    return max(1.0, TIME_LIMIT_S - (time.monotonic() - START))


def write_json(path: str, data) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


def read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def generate(workload: str, seed: int, count: int, path: str) -> list:
    cmd = [sys.executable, os.path.join(HERE, "gen.py"), workload, str(seed), str(count), path]
    if subprocess.run(cmd, cwd=ROOT, timeout=time_left()).returncode != 0:
        raise RunError("input generation failed")
    return read_json(path)


def run_worker(workload: str, inputs: str, out: str, *flags: str):
    """One pass in a fresh interpreter; returns (set-up seconds, worker output)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, inputs, out, *flags]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - start
        code = proc.wait(timeout=time_left())
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise RunError(f"worker exited with status {code}")
    return setup, None if "--setup-only" in flags else read_json(out)


def verdicts(workload: str, rows) -> int:
    """Sets row["ok"] on every row and returns the number of failed ops.

    The reason for each failure goes to stderr.
    """
    pinned = read_json(os.path.join(HERE, "data", "pinned.json"))[workload]
    failed = 0
    for row in rows:
        problem = row["check"]
        want = pinned.get(row["key"])
        if problem is None and want is None:
            problem = "no pinned output"
        elif problem is None and want["digest"] != row["digest"]:
            problem = f"output differs from the pinned one {want}"
        row["ok"] = problem is None
        if problem is not None:
            failed += 1
            print(f"perfbench: {row['key']}: {problem}", file=sys.stderr)
    return failed


def timed_run(workload: str, pairs: list, work: str):
    size = CHUNK[workload]
    chunks = [write_json(os.path.join(work, f"chunk{i}.json"), pairs[i:i + size])
              for i in range(0, len(pairs), size)]
    setups = [run_worker(workload, chunks[0], "", "--setup-only")[0] for _ in range(SETUP_SAMPLES)]
    passes = []
    for i, chunk in enumerate(chunks):
        setup, result = run_worker(workload, chunk, os.path.join(work, f"pass{i}.out"))
        setups.append(setup)
        passes.append(result)
    rows = [row for result in passes for row in result["rows"]]
    failed = verdicts(workload, rows)
    ms = [row["ms"] for row in rows]
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": (len(rows) - failed) * 1000 / sum(ms),
        "op_ms_gmean": statistics.geometric_mean(ms),
        "op_ms_p80": statistics.quantiles(ms, n=100, method="inclusive")[79],
        "peak_rss_mb": min(result["maxrss_kb"] for result in passes) / 1024,
        "ok_ops_ratio": (len(rows) - failed) / len(rows),
    }
    raw_p50 = statistics.median(row["raw_ms"] for row in rows)
    print(f"perfbench: {workload}: {len(rows)} ops in {len(passes)} passes, "
          f"unscaled op_ms_p50 {raw_p50:.1f}", file=sys.stderr)
    return len(rows), failed, True, {k: (v, END_TO_END[k]) for k, v in metrics.items()}


def layer_metrics(traced: dict) -> dict:
    """Counts and self-time shares of PER_LAYER from a traced worker's output."""
    calls, self_ms = traced["calls"], traced["self_ms"]
    total_ms = sum(self_ms.values())  # self times partition the ops' time
    metrics = {"polytope.lattice_points.points": traced["points"]}
    for name in PER_LAYER:
        base, _, field = name.rpartition(".")
        if name.startswith("lp.calls."):
            metrics[name] = calls.get(name, 0)
        elif field == "calls":
            metrics[name] = calls.get(base, 0)
        elif field == "self_pct":
            metrics[name] = 100 * self_ms.get(base, 0.0) / total_ms
    return metrics


def traced_run(workload: str, pairs: list, work: str):
    prefix = write_json(os.path.join(work, "prefix.json"), pairs[:OVERHEAD_OPS[workload]])
    _, plain = run_worker(workload, prefix, os.path.join(work, "plain.out"))
    everything = write_json(os.path.join(work, "traced.json"), pairs)
    _, traced = run_worker(workload, everything, os.path.join(work, "traced.out"), "--trace")
    rows = traced["rows"]
    failed = verdicts(workload, rows + plain["rows"])
    # self-check of the span structure: one adjunction_data span per suite op
    # and one canonicity_threshold span per maximal cone
    sound = True
    for row in rows:
        spans = row["spans"]
        if workload == "suite" and "cones" in row and (
                spans.get("adjunction.adjunction_data") != 1
                or spans.get("fan.canonicity_threshold") != row["cones"]):
            sound = False
            print(f"perfbench: {row['key']}: spans {spans} do not match {row['cones']} "
                  "maximal cones and one adjunction_data", file=sys.stderr)
    metrics = layer_metrics(traced)
    metrics["op.total_ms"] = sum(row["ms"] for row in rows)
    metrics["trace.overhead_ratio"] = (sum(row["ms"] for row in rows[:len(plain["rows"])])
                                       / sum(row["ms"] for row in plain["rows"]))
    print(f"perfbench: {workload}: traced {len(rows)} ops", file=sys.stderr)
    attempted = len(rows) + len(plain["rows"])
    return attempted, failed, sound, {k: (v, PER_LAYER[k]) for k, v in metrics.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description="polyadj benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "polyadj", "__init__.py")):
        print("perfbench: src/polyadj not found; run from a full checkout", file=sys.stderr)
        return 2
    work = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        if args.trace:
            count = TRACE_OPS[args.workload]
        else:
            listed = len(workloads.instance_keys(args.workload, args.seed))
            count = math.ceil(listed * min(1.0, args.seconds / RUN_SECONDS))
        pairs = generate(args.workload, args.seed, count, os.path.join(work, "inputs.json"))
        if args.trace:
            attempted, failed, sound, metrics = traced_run(args.workload, pairs, work)
        else:
            attempted, failed, sound, metrics = timed_run(args.workload, pairs, work)
    except (RunError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0 and sound,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
