"""Scenarios: one evaluable point of the design space.

A :class:`Scenario` is (system spec x workload x workload parameters x
model scale).  The workload is either one of the four basic operators
(``scan``, ``sort``, ``groupby``, ``join``) or one of the canonical
multi-operator queries of :mod:`repro.pipeline.queries`
(``fk-join-aggregate``, ``sort-then-scan``, ``skewed-partition-join``).

Operator scenarios run through the shared content-keyed caches of
:mod:`repro.experiments.common` -- a scenario naming a plain preset hits
the exact same cache entries the paper-report figures populate.  Query
scenarios execute their plan end-to-end through
:meth:`~repro.systems.machine.Machine.run_pipeline`.

``records()`` flattens either kind into the tidy per-phase rows a
:class:`~repro.api.results.ResultSet` holds; ``run()`` wraps them.

>>> from repro.api import Scenario
>>> rs = Scenario("mondrian", "join", model_scale=50.0,
...               num_partitions=8).run()
>>> rs.unique("phase")[:2]
['histogram', 'distribute']
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.api.results import ResultSet
from repro.api.spec import SystemSpec, as_spec
from repro.experiments import common
from repro.perf.result import SystemResult
from repro.pipeline.queries import CANONICAL_QUERIES, CANONICAL_QUERY_SIZES

#: The basic operators a scenario may name (the experiments layer's
#: vocabulary, re-exported).
OPERATORS = common.OPERATORS


@dataclass(frozen=True)
class Scenario:
    """One (system, workload, parameters, scale) evaluation point.

    ``system`` may be a preset name (kept verbatim so the shared result
    cache is shared with the preset-addressed figure modules) or any
    :class:`~repro.api.spec.SystemSpec`.
    """

    system: Union[str, SystemSpec]
    operator: str
    model_scale: float = common.MODEL_SCALE
    seed: int = 17
    num_partitions: int = common.NUM_PARTITIONS

    def __post_init__(self) -> None:
        as_spec(self.system)  # validates preset names and spec types
        if self.operator not in OPERATORS and self.operator not in CANONICAL_QUERIES:
            raise ValueError(
                f"unknown workload {self.operator!r}; operators: "
                f"{list(OPERATORS)}, queries: {sorted(CANONICAL_QUERIES)}"
            )
        if self.model_scale <= 0:
            raise ValueError("model_scale must be positive")
        if self.num_partitions < 1:
            raise ValueError("need at least one partition")

    # -- identity -----------------------------------------------------------

    @property
    def spec(self) -> SystemSpec:
        return as_spec(self.system)

    @property
    def system_label(self) -> str:
        return self.system if isinstance(self.system, str) else self.system.label

    @property
    def is_query(self) -> bool:
        """True when the workload is a canonical multi-operator query."""
        return self.operator in CANONICAL_QUERIES

    def store_digest(self) -> Optional[str]:
        """This operator scenario's result-store address (``None`` for a
        query scenario)."""
        if self.is_query:
            return None
        from repro.service.store import digest_payload

        payload = common.result_store_payload(
            self.system, self.operator, self.model_scale, self.seed, self.num_partitions
        )
        return digest_payload(payload)

    # -- execution ----------------------------------------------------------

    def machine(self):
        """The (singleton-cached) machine this scenario evaluates on."""
        return common.machine_for(self.system)

    def result(self) -> SystemResult:
        """Run an operator scenario via the shared content-keyed cache."""
        if self.is_query:
            raise ValueError(
                f"{self.operator!r} is a query scenario; use perf() or records()"
            )
        return common.run_cached_result(
            self.system,
            self.operator,
            self.model_scale,
            seed=self.seed,
            num_partitions=self.num_partitions,
        )

    def perf(self):
        """Run a query scenario end-to-end; returns a ``PipelinePerf``."""
        if not self.is_query:
            raise ValueError(
                f"{self.operator!r} is an operator scenario; use result()"
            )
        builder = CANONICAL_QUERIES[self.operator]
        plan = builder(
            num_partitions=self.num_partitions,
            seed=self.seed,
            **CANONICAL_QUERY_SIZES.get(self.operator, {}),
        )
        return self.machine().run_pipeline(plan, scale_factor=self.model_scale)

    def records(self) -> List[Dict[str, Any]]:
        """Tidy per-phase records (see :func:`records_from_result`)."""
        base = {
            "system": self.system_label,
            "workload": self.operator,
            "scale": float(self.model_scale),
            "seed": int(self.seed),
            "num_partitions": int(self.num_partitions),
        }
        machine = self.machine()
        if self.is_query:
            records = []
            for stage_perf in self.perf().stages:
                records.extend(
                    records_from_result(
                        machine,
                        stage_perf.result,
                        dict(base, stage=stage_perf.stage),
                    )
                )
            return records
        return records_from_result(machine, self.result(), base)

    def run(self) -> ResultSet:
        """Evaluate and wrap the records in a :class:`ResultSet`."""
        return ResultSet(self.records())

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (the evaluation service's wire format)."""
        return {
            "system": self.system
            if isinstance(self.system, str)
            else self.system.to_dict(),
            "operator": self.operator,
            "model_scale": float(self.model_scale),
            "seed": int(self.seed),
            "num_partitions": int(self.num_partitions),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        """Inverse of :meth:`to_dict`; systems may be preset names or
        :class:`SystemSpec` dicts."""
        known = {"system", "operator", "model_scale", "seed", "num_partitions"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown Scenario field(s) {unknown}; valid: {sorted(known)}"
            )
        missing = sorted({"system", "operator"} - set(data))
        if missing:
            # to_dict() always emits these; a hand-built payload that
            # drops one should fail loudly, not evaluate a default.
            raise ValueError(f"Scenario dict is missing required {missing}")
        payload = dict(data)
        if isinstance(payload["system"], Mapping):
            payload["system"] = SystemSpec.from_dict(payload["system"])
        return cls(**payload)


def records_from_result(
    machine, result: SystemResult, base: Dict[str, Any]
) -> List[Dict[str, Any]]:
    """Flatten one :class:`SystemResult` into tidy per-phase records.

    Each record carries the phase's time plus its energy split into the
    Table 4 components (via :meth:`Machine.phase_energy`, the same
    accounting ``evaluate_run`` sums), so ResultSet pivots can rebuild
    any figure's series without re-running anything.

    Runs evaluated under an active fault schedule (``repro.faults``)
    additionally carry the resilience columns -- operator-level protocol
    counters plus the per-phase priced overhead bytes.  Fault-free runs
    omit them entirely, keeping their records (and the committed
    goldens) byte-identical.
    """
    resilience = result.metadata.get("resilience")
    records = []
    for perf in result.phase_perfs:
        energy = machine.phase_energy(perf)
        record = dict(base)
        record.update(
            {
                "operator": result.operator,
                "phase": perf.phase.name,
                "category": perf.phase.category,
                "time_s": float(perf.time_s),
                "energy_j": float(energy.total_j),
                "dram_dynamic_j": float(energy.dram_dynamic_j),
                "dram_static_j": float(energy.dram_static_j),
                "core_j": float(energy.core_j),
                "llc_j": float(energy.llc_j),
                "serdes_noc_j": float(energy.serdes_noc_j),
                "instructions": float(perf.phase.instructions),
                "bytes": float(perf.phase.total_bytes),
            }
        )
        if resilience is not None:
            record.update(
                {
                    "retries": int(resilience["retries"]),
                    "duplicates_discarded": int(
                        resilience["duplicates_discarded"]
                    ),
                    "timeout_rounds": int(resilience["timeout_rounds"]),
                    "degraded_destinations": int(
                        resilience["degraded_destinations"]
                    ),
                    "straggler_share": float(resilience["straggler_share"]),
                    "retry_shuffle_b": float(perf.phase.retry_shuffle_b),
                    "backoff_stall_b": float(perf.phase.backoff_stall_b),
                }
            )
        records.append(record)
    return records


def run_plan(system: Union[str, SystemSpec], plan, model_scale: float = 1.0):
    """Run a custom :class:`~repro.pipeline.plan.QueryPlan` on a system.

    The escape hatch for plans built by hand rather than named canonical
    queries; returns the machine's ``PipelinePerf``.
    """
    return common.machine_for(system).run_pipeline(plan, scale_factor=model_scale)
