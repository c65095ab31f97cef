"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests

The traced counts of one small op per workload are pinned, so a later
change that cuts work shows as a count and not only as a noisy time.
"""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402

# Traced counts of one small op per workload, measured at the seed commit;
# count metrics missing here are 0.
PINNED_COUNTS = {
    "d2-s1000": {
        "fan.canonicity_threshold.calls": 6, "polytope.lattice_points.calls": 7,
        "polytope.lattice_points.points": 29, "lp.solve.calls": 15, "lp.is_feasible.calls": 3,
        "polytope.from_vertices.calls": 8, "ratmath.integer_kernel_basis.calls": 39,
        "ratmath.saturate.calls": 4, "polytope.vertices.calls": 6,
        "lp.calls.polytope.from_inequalities": 12, "lp.calls.polytope.implicit_equalities": 2,
        "lp.calls.adjunction.adjunction_data": 2, "lp.calls.adjunction.critical_shift": 1,
        "lp.calls.spectrum.validate_config": 1,
    },
    "a-s5001": {
        "lp.solve.calls": 27, "lp.is_feasible.calls": 3, "polytope.from_vertices.calls": 1,
        "ratmath.integer_kernel_basis.calls": 10, "ratmath.saturate.calls": 3,
        "polytope.vertices.calls": 1, "lp.calls.polytope.from_inequalities": 24,
        "lp.calls.polytope.implicit_equalities": 2, "lp.calls.adjunction.adjunction_data": 2,
        "lp.calls.adjunction.critical_shift": 1, "lp.calls.spectrum.validate_config": 1,
    },
    "h-s6001": {
        "polytope.lattice_points.calls": 1, "polytope.lattice_points.points": 703,
        "polytope.from_vertices.calls": 1, "ratmath.integer_kernel_basis.calls": 1540,
    },
}
WORKLOAD_OF = {"d2-s1000": "suite", "a-s5001": "adjoint", "h-s6001": "hull"}


def traced_counts(tmp_path, key: str) -> dict:
    """Calls and lattice points of one op traced in a fresh interpreter."""
    name = WORKLOAD_OF[key]
    inputs = tmp_path / f"{key}.json"
    inputs.write_text(json.dumps([[key, workloads.generate_text(key)]]))
    out = tmp_path / f"{key}.out"
    subprocess.run([sys.executable, os.path.join(BENCH, "worker.py"), name, str(inputs), str(out),
                    "--trace"], cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=120)
    result = json.loads(out.read_text())
    assert result["rows"][0]["check"] is None
    return {name: value for name, value in run.layer_metrics(result).items()
            if run.PER_LAYER[name] == "count" and value}


@pytest.mark.parametrize("key", sorted(PINNED_COUNTS))
def test_traced_counts_repeat_and_match_the_pinned_ones(tmp_path, key):
    first = traced_counts(tmp_path, key)
    second = traced_counts(tmp_path, key)
    assert first == second
    assert first == PINNED_COUNTS[key]


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS)


def test_seed_zero_reproduces_the_test_suite_instances():
    spec = importlib.util.spec_from_file_location("suite_conftest",
                                                  os.path.join(ROOT, "tests", "conftest.py"))
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    expected = {f"d{d}-s{seed}" for d, _, _, seed in conftest.suite_params()}
    assert set(workloads.instance_keys("suite", 0)) == expected
    assert workloads.instance_keys("suite", 0) != workloads.instance_keys("suite", 1)
    assert workloads.instance_keys("suite", 1) == workloads.instance_keys("suite", 1 + workloads.SEED_POOL)


def test_every_reachable_input_has_a_pinned_output():
    with open(os.path.join(BENCH, "data", "pinned.json"), encoding="utf-8") as fh:
        pinned = json.load(fh)
    for name in workloads.WORKLOADS:
        for seed in range(workloads.SEED_POOL):
            assert set(workloads.instance_keys(name, seed)) <= set(pinned[name]), (name, seed)


def test_run_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "hull", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_a_short_run_prints_every_metric():
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--workload", "adjoint",
                           "--seed", "3", "--seconds", "1", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
