"""Smoke tests of the benchmark: every workload runs, checks its golden
digests and prints every named metric, in both modes.

Run from the repository root::

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import catalog

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(RUN), *args], capture_output=True,
                          text=True, timeout=300, cwd=str(cwd))


def test_benchmark_json_matches_catalog():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(catalog.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == list(catalog.WORKLOADS.values())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == [tuple(m) for m in catalog.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [m[:3] for m in catalog.PER_LAYER]


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(catalog.WORKLOADS))
def test_smoke_run_verifies_and_reports_every_metric(workload, trace):
    done = run("--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    names = catalog.PER_LAYER if trace == "1" else catalog.END_TO_END
    assert list(result["metrics"]) == [m[0] for m in names]
    for (name, unit, *_), metric in zip(names, result["metrics"].values()):
        assert metric["unit"] == unit
        assert isinstance(metric["value"], float)
        if trace == "0":
            assert metric["value"] > 0, name
    if trace == "1":
        sys.path.insert(0, str(ROOT / "src"))
        from repro.telemetry.codec import validate_trace_events

        trace_file = ROOT / ".perfbench-work" / f"trace-{workload}-seed7.json"
        assert validate_trace_events(json.loads(trace_file.read_text()))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "design-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=str(tmp_path),
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
