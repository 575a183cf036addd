"""Smoke test of the suite benchmark on a two-benchmark subset.

Run from the repository root::

    python3 -m pytest perfbench -q

Every workload runs one pass per run, untraced under two seeds and
traced under one.  The test checks that each run is correct, that every
metric BENCHMARK.json names is emitted with its unit, and that two seeds
(two benchmark orders) give identical simulated results.
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
SUBSET = "art,gap"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(tmp_path: Path, workload: str, seed: int, trace: int) -> tuple:
    out = tmp_path / f"{workload}-{seed}-{trace}.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--benches", SUBSET, "--out", str(out)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), json.loads(out.read_text())


def units(metrics: list) -> dict:
    return {metric["name"]: metric["unit"] for metric in metrics}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(tmp_path: Path, workload: str) -> None:
    runs = {}
    for seed, trace in ((1, 0), (2, 0), (1, 1)):
        result, record = bench(tmp_path, workload, seed, trace)
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 2
        expected = units(SPEC["per_layer" if trace else "end_to_end"])
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        assert emitted == expected
        assert all(isinstance(m["value"], float) for m in result["metrics"].values())
        runs[seed, trace] = record
    # Another seed is another benchmark order: simulated results match.
    assert runs[1, 0]["sim"].keys() == {"art", "gap"}
    for bench_name, sim in runs[1, 0]["sim"].items():
        other = dict(runs[2, 0]["sim"][bench_name])
        if workload == "sweep":  # the seeded part of the grid differs
            other["drawn"] = sim["drawn"]
        assert other == sim
    assert runs[1, 0]["suite"] == runs[2, 0]["suite"]
    # The traced run reports per-benchmark rows for both benchmarks.
    assert {"art", "gap"} <= runs[1, 1]["bench_rows"].keys()


def test_refuses_to_run_without_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
