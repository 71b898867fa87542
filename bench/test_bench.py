"""Smoke test of the benchmark itself, at toy size.

    python3 -m pytest bench/test_bench.py

Runs every workload twice untraced and once traced from the checkout root.
Checks that each metric named in BENCHMARK.json appears with its unit, that
the correctness checks pass, and that the output digest repeats.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    lines = proc.stdout.strip().splitlines()
    digest = next(line for line in lines if line.startswith("digest "))
    return json.loads(lines[-1]), digest


def assert_metrics(result: dict, expected: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_at_toy_size(workload):
    first, digest = run(workload, 0)
    assert_metrics(first, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in first["metrics"].values())
    _, again = run(workload, 0)
    assert again == digest
    traced, traced_digest = run(workload, 1)
    assert_metrics(traced, SPEC["per_layer"])
    assert traced_digest == digest


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
