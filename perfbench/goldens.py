"""Committed output digests for every benchmark workload, and their check.

Simulated statistics are deterministic, so the benchmark uses them only
as its correctness check: every output it produces must hash to the
digest committed under ``perfbench/goldens/``.  One digest covers the
tidy records of one evaluated point:

- ``design-sweep``: ``system|operator|seed|partitions`` -> the records
  of that scenario, as parsed back out of ``ResultSet.to_json()``;
- ``query-suites``: ``suite|system|seed`` -> the records of that suite
  point, plus ``output|suite|seed`` -> the final answer relation's
  digest (``SuiteOutcome.output_digest``, identical on every preset);
- ``service-mix``: ``system|operator|seed|partitions`` -> the records
  of that scenario as evaluated in-process, which every fleet reply
  must match.

Regenerate after an intended change to simulated output::

    python3 perfbench/goldens.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Tuple

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"


def records_digest(records: Iterable[Mapping[str, Any]]) -> str:
    """SHA-256 of the canonical JSON form of a list of records."""
    text = json.dumps(list(records), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def scenario_key(system: str, operator: str, seed: int, partitions: int) -> str:
    return f"{system}|{operator}|{int(seed)}|{int(partitions)}"


def group_records(
    records: Iterable[Mapping[str, Any]], fields: Tuple[str, ...]
) -> Dict[Tuple, List[Mapping[str, Any]]]:
    """Records split by the values of ``fields``, in first-seen order."""
    groups: Dict[Tuple, List[Mapping[str, Any]]] = {}
    for record in records:
        groups.setdefault(tuple(record[f] for f in fields), []).append(record)
    return groups


def load(workload: str) -> Dict[str, str]:
    path = GOLDEN_DIR / f"{workload}.json"
    return json.loads(path.read_text())["digests"]


def _write(workload: str, digests: Dict[str, str], description: str) -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    path = GOLDEN_DIR / f"{workload}.json"
    document = {"description": description, "digests": digests}
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {path}")


def regenerate() -> None:
    """Evaluate every pooled point in-process and rewrite the goldens."""
    import workloads
    from repro.api import Scenario, Sweep
    from repro.experiments import common
    from repro.suites.runner import SuiteRun

    digests: Dict[str, str] = {}
    systems = workloads.sweep_systems()
    for seed in workloads.SWEEP_SEEDS:
        common.clear_caches()
        sweep = Sweep(
            systems=systems,
            workloads=workloads.OPERATORS,
            seeds=(seed,),
            num_partitions=workloads.SWEEP_PARTITIONS,
        )
        records = json.loads(sweep.run(jobs=1).to_json())
        for (system, op, s, parts), chunk in group_records(
            records, workloads.SWEEP_FIELDS
        ).items():
            digests[scenario_key(system, op, s, parts)] = records_digest(chunk)
    _write("design-sweep", digests,
           "records digest per design-sweep scenario (system|operator|seed|partitions)")

    digests = {}
    for seed in workloads.SUITE_SEEDS:
        common.clear_caches()
        run = SuiteRun(seed=seed)
        records = json.loads(run.run(jobs=1).to_json())
        for (suite, system, s), chunk in group_records(
            records, workloads.SUITE_FIELDS
        ).items():
            digests[f"{suite}|{system}|{s}"] = records_digest(chunk)
        for outcome in run.outcomes():
            digests[f"output|{outcome.suite}|{seed}"] = outcome.output_digest
    _write("query-suites", digests,
           "records digest per suite point (suite|system|seed) and answer "
           "digest per suite (output|suite|seed)")

    digests = {}
    common.clear_caches()
    for point in workloads.service_points(workloads.SERVICE_READ_SEEDS) + \
            workloads.service_points(workloads.SERVICE_WRITE_SEEDS):
        records = Scenario.from_dict(point).records()
        digests[workloads.point_key(point)] = records_digest(records)
    _write("service-mix", digests,
           "in-process records digest per service-mix scenario "
           "(system|operator|seed|partitions)")


if __name__ == "__main__":
    import run

    run.bootstrap()
    regenerate()
    sys.exit(0)
