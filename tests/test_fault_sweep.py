"""The fault_sweep experiment: golden pin + invariants.

The committed golden (``tests/data/fault_sweep_golden.json``) pins the
seeded sweep's resilience counters exactly -- any drift in the fault
plans, the retry/backoff protocol, or the accounting shows up as a
diff here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import fault_sweep

DATA = Path(__file__).parent / "data"
ROOT = Path(__file__).resolve().parent.parent

#: Child-process check that the listed numpy dispatch targets really are
#: off before it prints the sweep, so the comparison cannot pass vacuously.
_BASELINE_SWEEP = """
import json, sys
from numpy._core._multiarray_umath import __cpu_features__
still_on = [name for name in sys.argv[1].split() if __cpu_features__[name]]
if still_on:
    sys.exit(f"dispatch targets still enabled: {still_on}")
from repro.experiments import fault_sweep
print(json.dumps(fault_sweep.run(), sort_keys=True))
"""


def test_matches_committed_golden():
    out = fault_sweep.run()
    golden = json.loads((DATA / "fault_sweep_golden.json").read_text())
    assert out["alpha"] == golden["alpha"]
    assert out["points"] == golden["points"]


def test_independent_of_cpu_dispatch():
    """The sweep does not depend on which SIMD kernels numpy picks.

    numpy's default sort dispatches by CPU and orders equal keys
    differently per kernel, so a plan built on it differs across hosts.
    Rerun the sweep with every dispatch target this host enables turned
    off.  ``NPY_DISABLE_CPU_FEATURES`` takes the grouped dispatch names
    (``X86_V3``, ``X86_V4``, ...); per-feature names such as ``AVX2`` are
    silently ignored, so the names come from ``__cpu_dispatch__``.
    """
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    enabled = [
        name for name in umath.__cpu_dispatch__
        if umath.__cpu_features__.get(name)
    ]
    if not enabled:
        pytest.skip("numpy dispatches no SIMD target on this host")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(enabled))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    child = subprocess.run(
        [sys.executable, "-c", _BASELINE_SWEEP, " ".join(enabled)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    in_process = json.loads(json.dumps(fault_sweep.run(), sort_keys=True))
    assert json.loads(child.stdout) == in_process


def test_every_point_is_byte_identical():
    out = fault_sweep.run()
    assert all(p["identical"] for p in out["points"].values())


def test_fault_free_points_report_zero_overhead():
    out = fault_sweep.run()
    for key, point in out["points"].items():
        if key.startswith("0:"):
            assert point["retries"] == 0
            assert point["overhead_b"] == 0.0


def test_overhead_grows_with_intensity():
    points = fault_sweep.run()["points"]
    for name in ("naive", "skew-aware"):
        retries = [points[f"{i:g}:{name}"]["retries"]
                   for i in fault_sweep.INTENSITIES]
        assert retries == sorted(retries)
        assert retries[-1] > 0


def test_intensity_scales_the_mix():
    spec = fault_sweep.fault_spec(0.5, seed=3)
    assert spec.drop_prob == fault_sweep.FULL_MIX["drop_prob"] * 0.5
    assert spec.seed == 3
    assert not fault_sweep.fault_spec(0.0, seed=3).active
