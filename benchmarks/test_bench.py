"""Small-size smoke test of the benchmark harness itself.

Run from the repository root with ``python3 -m pytest benchmarks/test_bench.py``.
Every workload runs once at n=16: each end-to-end and per-layer metric must be
present with its unit, outputs must pass their checks, and the counts must
repeat exactly between runs and between the untraced and traced runs.
"""

import json
import shutil
import subprocess
import sys

import pytest

import bench
from workloads import WORKLOADS  # importable once bench has set the path

SMOKE_N = 16
COUNT_KEYS = ("newton_iters", "krylov_matvecs", "step_attempts")


def _run(name, trace, seed=3):
    result, failures, _ = bench.measure(name, seed, 0.0, trace, n=SMOKE_N, setups=1)
    assert failures == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_end_to_end_metrics_present_and_counts_repeat(name):
    first, second = _run(name, False), _run(name, False)
    for metrics in (first, second):
        assert {k: m["unit"] for k, m in metrics.items()} == {
            k: unit for k, (unit, _, _) in bench.END_TO_END.items()
        }
        assert all(m["value"] > 0 for m in metrics.values())
    assert [first[k]["value"] for k in COUNT_KEYS] == [second[k]["value"] for k in COUNT_KEYS]


def _bindings():
    from demlab.geometry import Grid

    found = {
        (name, attr): id(value)
        for name, module in list(sys.modules.items())
        if name.startswith("demlab")
        for attr, value in vars(module).items()
    }
    found["Grid", "laplacian"] = id(Grid.__dict__["laplacian"])
    return found


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reports_every_layer_metric_and_restores_bindings(name):
    before = _bindings()
    metrics = _run(name, True)
    assert {k: m["unit"] for k, m in metrics.items()} == {
        k: unit for k, (unit, _) in bench.PER_LAYER.items()
    }
    assert _bindings() == before


def test_every_traced_layer_is_reached_by_some_workload():
    reached = {layer for w in WORKLOADS.values() for layer in w.layers}
    layers_with_calls = {k[: -len(".calls")] for k in bench.PER_LAYER if k.endswith(".calls")}
    assert layers_with_calls <= reached


def test_benchmark_json_matches_harness():
    doc = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]} == (
        bench.END_TO_END
    )
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == bench.PER_LAYER


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(
        bench.BENCH_DIR, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__")
    )
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/bench.py", "--workload", "picard-t1-n64", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
