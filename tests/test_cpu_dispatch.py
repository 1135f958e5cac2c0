"""Every committed golden is independent of numpy's CPU dispatch.

numpy's default sort dispatches by CPU and orders equal keys differently
per kernel, so a result that lets such an order leak out differs across
hosts.  Each golden producer reruns in a child process with every
dispatch target this host enables turned off, and must print its
committed golden file (``tests/data/*golden*``) byte for byte.
``NPY_DISABLE_CPU_FEATURES`` takes the grouped dispatch names
(``X86_V3``, ``X86_V4``, ...); per-feature names such as ``AVX2`` are
silently ignored, so the names come from ``__cpu_dispatch__``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"

#: Child-process prelude: the listed dispatch targets must really be off
#: before anything is produced, so the comparison cannot pass vacuously.
_PRELUDE = """
import json, sys
from pathlib import Path
from numpy._core._multiarray_umath import __cpu_features__
still_on = [name for name in sys.argv[1].split() if __cpu_features__[name]]
if still_on:
    sys.exit(f"dispatch targets still enabled: {still_on}")
DATA = Path(sys.argv[2])
"""

#: Golden file -> child code printing its text.
PRODUCERS = {
    "fault_sweep_golden.json": """
from repro.experiments import fault_sweep
out = fault_sweep.run()
golden = {"alpha": out["alpha"], "points": out["points"]}
print(json.dumps(golden, indent=2, sort_keys=True))
""",
    "sweep_smoke_golden.json": """
from repro.api import Sweep
print(Sweep.from_json((DATA / "sweep_smoke.json").read_text()).run().to_json())
""",
    "sweep_faults_golden.json": """
from repro.api.__main__ import main
main(["--system", "mondrian", "--system", "nmp-perm", "--workload", "join",
      "--workload", "groupby", "--workload", "skewed-partition-join",
      "--workload", "fk-join-aggregate", "--scale", "50", "--partitions", "8",
      "--faults", json.dumps({"seed": 7, "drop_prob": 0.3, "straggler_prob": 0.2,
                              "duplicate_prob": 0.1, "timeout_prob": 0.2}),
      "--json", "-"])
""",
    "suites_smoke_golden.json": """
from repro.suites import SuiteRun
grid = SuiteRun(suites=("dict-products", "skew-hotspot"), systems=("cpu", "mondrian"))
print(grid.run().to_json())
""",
    "suites_score_golden.json": """
from repro.suites import SuiteRun, score_records
from repro.suites.scoring import report_json
print(report_json(score_records(SuiteRun().run())))
""",
    "suites_functional_golden.json": """
from repro.suites import functional_digests
print(json.dumps(functional_digests(), indent=2, sort_keys=True))
""",
}


def test_every_golden_has_a_producer():
    assert sorted(path.name for path in DATA.glob("*golden*")) == sorted(PRODUCERS)


@pytest.mark.parametrize("golden", sorted(PRODUCERS))
def test_golden_independent_of_cpu_dispatch(golden):
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    enabled = [
        name for name in umath.__cpu_dispatch__
        if umath.__cpu_features__.get(name)
    ]
    if not enabled:
        pytest.skip("numpy dispatches no SIMD target on this host")
    # REPRO_STORE is cleared so an ambient warm store cannot serve the
    # child's results.
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(enabled), REPRO_STORE="")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    child = subprocess.run(
        [sys.executable, "-c", _PRELUDE + PRODUCERS[golden], " ".join(enabled),
         str(DATA)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout == (DATA / golden).read_text()
