"""The fault_sweep experiment: golden pin + invariants.

The committed golden (``tests/data/fault_sweep_golden.json``) pins the
seeded sweep's resilience counters exactly -- any drift in the fault
plans, the retry/backoff protocol, or the accounting shows up as a
diff here.
"""

import json
from pathlib import Path

from repro.experiments import fault_sweep

DATA = Path(__file__).parent / "data"


def test_matches_committed_golden():
    out = fault_sweep.run()
    golden = json.loads((DATA / "fault_sweep_golden.json").read_text())
    assert out["alpha"] == golden["alpha"]
    assert out["points"] == golden["points"]


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
