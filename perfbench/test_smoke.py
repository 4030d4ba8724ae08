"""Smoke test: every workload at its tiny size passes all of its output
checks and prints every metric BENCHMARK.json lists, so the benchmark
cannot silently rot as kgrag changes."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
               "--seconds", "0", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_workload_passes_checks_and_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] > 0
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run(tmp_path, "wide", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
