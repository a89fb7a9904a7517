"""Smoke test of the benchmark at a tiny size: result schema and correctness
gate only, never timings.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ["sweep_flagship", "sweep_short_keys", "interval_queries"]


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
               for m in e2e.values())
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"] + SPEC["workloads"]]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_passes_the_gate(workload: str, trace: int):
    done = run_bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], (int, float))

    record = json.loads(
        (HERE / "results" / f"{workload}_seed7_trace{trace}.json").read_text())
    env = record["environment"]
    assert {"nproc", "cpu_model", "python", "numpy", "scipy", "git_commit", "seed"} <= set(env)
    assert env["seed"] == 7 and record["why"] and record["predictions"]
    # The only failures allowed are the known key_rate rejection above 0.5.
    known = round(record["extras"]["known_defect_fraction"] * result["attempted"])
    assert result["failed"] == known
    if workload.startswith("sweep_"):
        assert result["failed"] == 0


def test_exits_nonzero_without_the_package(tmp_path: Path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    done = run_bench(tmp_path, WORKLOADS[0], 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
