"""Self-test of the benchmark at tiny size, a few seconds per workload.

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 7


def _run(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=170)


def _checked_run(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    record = json.loads((ROOT / ".bench_out" /
                         f"{workload}-tiny-seed{SEED}-trace{trace}.json").read_text())
    return proc.stdout, result, record


def _assert_metrics(stdout, metrics, declared):
    want = {m["name"]: m["unit"] for m in declared}
    assert {k: v["unit"] for k, v in metrics.items()} == want
    for name, unit in want.items():
        assert isinstance(metrics[name]["value"], (int, float))
        line = re.compile(rf"^{re.escape(name)} \S+ {re.escape(unit)}$", re.M)
        assert line.search(stdout), f"{name} not printed with its unit"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_print_with_units(workload):
    stdout, result, _ = _checked_run(workload, 0)
    _assert_metrics(stdout, result["metrics"], SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "error_rate 0 " in stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_fit_in_traced_wall(workload):
    stdout, result, record = _checked_run(workload, 1)
    _assert_metrics(stdout, result["metrics"], SPEC["per_layer"])
    traced_total = record["passes"][1]["traced_total_s"]
    assert 0 < record["passes"][1]["layer_self_total_s"] <= traced_total
    # the per-prime homology split overlaps the per-function homology spans
    self_s = [m["value"] for k, m in result["metrics"].items()
              if k.endswith(".self_s") and k not in ("homology.p2.self_s", "homology.p3.self_s")]
    assert all(v >= 0 for v in self_s)
    assert sum(self_s) <= traced_total


def test_fails_without_sources(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/, the benchmark
    exits nonzero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_has_ten_samples_beyond_it():
    sys.path.insert(0, str(HERE))
    from run import tail

    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    value, pct = tail(list(range(100)))
    assert value == 89 and pct == 90.0
