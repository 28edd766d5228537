"""Tests of the benchmark's own logic (no workload is run).

    python3 -m pytest perfbench/
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
from run import tail_percentile  # noqa: E402

BENCHMARK = json.loads(compare.BENCHMARK.read_text())


def result_set() -> dict:
    """A complete result set: every end-to-end metric on every workload."""
    return {
        "correct": True, "attempted": 30, "failed": 0,
        "workloads": {
            w["name"]: {
                m["name"]: {"value": 1.0 + i, "unit": m["unit"]}
                for i, m in enumerate(BENCHMARK["end_to_end"])
            }
            for w in BENCHMARK["workloads"]
        },
    }


def scaled(metric: str, factor: float) -> dict:
    new = copy.deepcopy(result_set())
    for metrics in new["workloads"].values():
        metrics[metric]["value"] *= factor
    return new


def test_identical_sets_pass():
    rows, failures = compare.compare([result_set()], [result_set()], BENCHMARK)
    assert failures == []
    assert len(rows) == len(BENCHMARK["workloads"]) * len(
        BENCHMARK["end_to_end"])


@pytest.mark.parametrize("metric,factor", [
    ("latency_p50_s", 1.3),
    ("mcups", 0.7),
])
def test_regression_is_flagged(metric, factor):
    _, failures = compare.compare([result_set()], [scaled(metric, factor)],
                                  BENCHMARK)
    assert len(failures) == len(BENCHMARK["workloads"])
    assert all(metric in f for f in failures)


def test_improvement_passes():
    _, failures = compare.compare([result_set()], [scaled("mcups", 1.3)],
                                  BENCHMARK)
    assert failures == []


@pytest.mark.parametrize("side", ["base", "new"])
def test_missing_pair_fails(side):
    partial = result_set()
    del partial["workloads"]["campaign_short"]["setup_s"]
    base, new = ((partial, result_set()) if side == "base"
                 else (result_set(), partial))
    _, failures = compare.compare([base], [new], BENCHMARK)
    assert failures == [f"campaign_short setup_s: missing from {side}"]


def test_missing_workload_fails():
    partial = result_set()
    del partial["workloads"]["cold_cli"]
    _, failures = compare.compare([result_set()], [partial], BENCHMARK)
    assert len(failures) == len(BENCHMARK["end_to_end"])


def test_wrong_outputs_fail():
    bad = result_set()
    bad["correct"] = False
    _, failures = compare.compare([result_set()], [bad], BENCHMARK)
    assert failures == ["new: a run reported wrong outputs"]


def test_cli_exit_status(tmp_path):
    base, new = tmp_path / "base.json", tmp_path / "new.json"
    base.write_text(json.dumps(result_set()))
    new.write_text(json.dumps([result_set(), scaled("latency_p50_s", 1.3)]))
    assert compare.main([str(base), str(base)]) == 0
    # Median of (x, 1.3x) is 1.15x: inside the 15% bound.
    assert compare.main([str(base), str(new)]) == 0
    new.write_text(json.dumps([scaled("latency_p50_s", 1.3)] * 2))
    assert compare.main([str(base), str(new)]) == 1


def test_tail_percentile():
    samples = [float(i) for i in range(1, 26)]
    assert tail_percentile(samples) == (15.0, 60.0, 10)
    assert tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert tail_percentile([float(i) for i in range(11)]) == (0.0, 100 / 11, 10)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(compare.BENCHMARK, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold_cli",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
