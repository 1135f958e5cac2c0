"""Sweeps: cartesian grids of scenarios, executed as one batch.

A :class:`Sweep` is the product of systems x workloads x scales x seeds
x partition counts.  ``run()`` evaluates every scenario -- sequentially
through the shared content-keyed caches, or across a process pool with
``jobs=N`` (each worker holds its own cache, mirroring
``run_all --jobs``) -- and concatenates the tidy records into one
:class:`~repro.api.results.ResultSet` in grid order, so equal sweeps
produce byte-identical exports regardless of worker count.

Sweeps serialize to/from JSON (``from_json`` / ``to_json``): systems may
be preset names or :class:`SystemSpec` dicts, which is what
``python -m repro.api --sweep SPEC.json`` and ``run_all --sweep`` load.

>>> from repro.api import Sweep
>>> sweep = Sweep(systems=("cpu", "mondrian"), workloads=("scan",),
...               scales=(50.0,), num_partitions=(8,))
>>> sweep.size
2
>>> [s.system_label for s in sweep.scenarios()]
['cpu', 'mondrian']
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Mapping, Sequence, Tuple, Union

from repro.api.results import ResultSet
from repro.api.scenario import Scenario
from repro.api.spec import SystemSpec
from repro.experiments import common
from repro.telemetry import span as _span


def _run_group_key(index: int, scenario: Scenario) -> Tuple:
    """Scenarios sharing this key share one functional run.

    Each query scenario is its own group, and so is every scenario while
    the memory caches are off: nothing would be shared, so grouping
    would only serialize work.
    """
    if scenario.is_query or not common.cache_enabled():
        return ("point", index)
    return common.operator_run_key(
        scenario.machine(), scenario.operator, scenario.model_scale,
        scenario.seed, scenario.num_partitions,
    )


def group_by_run(scenarios: Sequence[Scenario]) -> List[List[int]]:
    """Indices of ``scenarios`` grouped by shared functional run.

    Groups appear in order of their first member and list their members
    in input order, so every index occurs exactly once.
    """
    groups: Dict[Tuple, List[int]] = {}
    for index, scenario in enumerate(scenarios):
        groups.setdefault(_run_group_key(index, scenario), []).append(index)
    return list(groups.values())


def _group_records(group: Sequence[Scenario]) -> List[List[Dict[str, Any]]]:
    return [scenario.records() for scenario in group]


def _group_span(group: Sequence[Scenario]) -> Tuple[str, str, Dict[str, Any]]:
    return "pool_worker", "service", {
        "systems": [scenario.system_label for scenario in group],
        "operator": group[0].operator,
    }


def evaluate_scenarios(
    scenarios: Sequence[Scenario], jobs: int = 1
) -> List[List[Dict[str, Any]]]:
    """Each scenario's tidy records, in input order.

    ``jobs > 1`` fans the scenarios over a process pool
    (:func:`repro.experiments.common.fan_out`; each worker holds its own
    cache and reports its store traffic and spans back to this process).
    Scenarios that share a functional run travel as one task
    (:func:`group_by_run`), so the worker's ``operator-run`` memo
    executes that run once rather than once in every worker it lands in.
    """
    if jobs <= 1:
        # In input order: spans and store writes keep grid order, and
        # the in-process memo shares runs without any grouping.
        return [scenario.records() for scenario in scenarios]
    groups = group_by_run(scenarios)
    chunks = common.fan_out(
        _group_records,
        [[scenarios[i] for i in group] for group in groups],
        jobs,
        span=_group_span,
    )
    records: List[List[Dict[str, Any]]] = [[] for _ in scenarios]
    for group, chunk in zip(groups, chunks):
        for index, scenario_records in zip(group, chunk):
            records[index] = scenario_records
    return records


def _spec_from_entry(entry: Union[str, SystemSpec, Mapping[str, Any]]):
    """A sweep's system entry: preset name, spec, or spec dict."""
    if isinstance(entry, Mapping):
        return SystemSpec.from_dict(entry)
    return entry  # str stays str (shares the preset-addressed caches)


@dataclass(frozen=True)
class Sweep:
    """A cartesian grid of :class:`Scenario` points."""

    systems: Tuple[Union[str, SystemSpec], ...] = ("cpu", "mondrian")
    workloads: Tuple[str, ...] = ("join",)
    scales: Tuple[float, ...] = (common.MODEL_SCALE,)
    seeds: Tuple[int, ...] = (17,)
    num_partitions: Tuple[int, ...] = (common.NUM_PARTITIONS,)

    def __post_init__(self) -> None:
        for name in ("systems", "workloads", "scales", "seeds", "num_partitions"):
            value = getattr(self, name)
            if isinstance(value, (str, SystemSpec)) or not isinstance(
                value, Sequence
            ):
                value = (value,)
            if not value:
                raise ValueError(f"sweep axis {name!r} must not be empty")
            object.__setattr__(self, name, tuple(value))
        object.__setattr__(
            self, "systems", tuple(_spec_from_entry(s) for s in self.systems)
        )

    @property
    def size(self) -> int:
        return (
            len(self.systems)
            * len(self.workloads)
            * len(self.scales)
            * len(self.seeds)
            * len(self.num_partitions)
        )

    def scenarios(self) -> List[Scenario]:
        """The grid in deterministic (system-major) order."""
        return [
            Scenario(
                system=system,
                operator=workload,
                model_scale=scale,
                seed=seed,
                num_partitions=parts,
            )
            for system in self.systems
            for workload in self.workloads
            for scale in self.scales
            for seed in self.seeds
            for parts in self.num_partitions
        ]

    def run(self, jobs: int = 1) -> ResultSet:
        """Evaluate the whole grid into one :class:`ResultSet`.

        ``jobs > 1`` fans scenarios over a process pool; records come
        back in grid order either way, so the export bytes are identical
        to a sequential run.
        """
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        scenarios = self.scenarios()
        with _span(
            "sweep", category="api", points=len(scenarios), jobs=jobs
        ):
            chunks = evaluate_scenarios(scenarios, jobs)
            return ResultSet(r for chunk in chunks for r in chunk)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "systems": [
                s if isinstance(s, str) else s.to_dict() for s in self.systems
            ],
            "workloads": list(self.workloads),
            "scales": list(self.scales),
            "seeds": list(self.seeds),
            "num_partitions": list(self.num_partitions),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Sweep":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown sweep field(s) {unknown}; valid: {sorted(known)}"
            )
        # Values pass through raw: __post_init__ wraps scalars (a bare
        # "join" or 500) into one-element axes instead of, say, a string
        # being exploded into characters by an eager tuple().
        return cls(**dict(data))

    @classmethod
    def from_json(cls, text: str) -> "Sweep":
        data = json.loads(text)
        if not isinstance(data, Mapping):
            raise ValueError("expected a JSON object describing the sweep grid")
        return cls.from_dict(data)
