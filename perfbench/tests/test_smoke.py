"""Smoke test of the benchmark harness at tiny input sizes.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
import reference  # noqa: E402
from run import WORKLOAD_NAMES  # noqa: E402


def test_benchmark_lists_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOAD_NAMES)


def run_harness(root, *args):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=root, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_emitted_and_checks_run(workload, trace):
    proc = run_harness(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.2",
                       "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    *_, context_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0

    expected = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())

    checks = json.loads(context_line)["checks"]
    assert "refits" in checks and any(name.startswith("ranking.") for name in checks)
    assert all(c["passed"] for c in checks.values()), checks


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_harness(tmp_path, "--workload", WORKLOAD_NAMES[0], "--seed", "1", "--seconds", "1",
                       "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_ranking_check_catches_a_swap():
    values = {1: 0.5, 2: 2.0, 3: 2.0, 4: float("nan")}
    failed = {1: False, 2: False, 3: False, 4: False}
    assert reference.expected_ranking(values, failed) == [2, 3, 1, 4]
    assert reference.check_ranking([2, 3, 1, 4], values, failed, "wald")[0]
    assert not reference.check_ranking([3, 2, 1, 4], values, failed, "wald")[0]


def test_cris_pairs_match_a_brute_force_double_loop():
    rng = np.random.default_rng(5)
    n = 12
    time = rng.integers(1, 6, size=n).astype(float)  # ties on purpose
    status = rng.integers(0, 2, size=n)
    z = rng.normal(size=(n, 2))
    w = reference.censoring_km_weights(time, status, 0.05)
    for col in range(2):
        num = sum(w[i] * ((z[i, col] < z[k, col]) - 0.5)
                  for i in range(n) for k in range(n) if time[i] < time[k])
        total = sum(w[i] for i in range(n) for k in range(n) if time[i] < time[k])
        expected = min(2 * abs(num) / total, 1.0)
        assert reference.cris_by_pairs(time, z[:, [col]], w)[0] == pytest.approx(expected, abs=1e-12)
