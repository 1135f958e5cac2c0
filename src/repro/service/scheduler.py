"""The batching job scheduler: dedup, store consult, pool fan-out.

A :class:`BatchScheduler` accepts batches of :class:`~repro.api.Scenario`
points (objects or their ``to_dict`` wire form) and turns each batch
into one :class:`~repro.api.results.ResultSet`, records in submission
order:

1. **Deduplicate.**  Identical pending points in one batch collapse to
   one evaluation (scenarios are frozen dataclasses, so identity is
   value equality); every submitted position still gets its records.
2. **Consult the store.**  Operator scenarios whose digest is already in
   the persistent store are served in-process -- the store-tier lookup
   inside ``run_cached_result`` restores the evaluated result with zero
   simulation executions.
3. **Fan out misses.**  Remaining points run through the shared
   process-pool runtime (``jobs=N``, the same
   :func:`~repro.experiments.common.fan_out` ``Sweep.run`` uses).
   Workers inherit the store handle and write their evaluated results
   back, so one batch warms the store for every later client.

The scheduler is the daemon's engine, but stands alone: feeding it
``Sweep(...).scenarios()`` is the programmatic batch API.
"""

from __future__ import annotations

import contextlib
from typing import Any, Dict, Iterable, List, Mapping, Optional, Union

from repro.api.results import ResultSet
from repro.api.scenario import Scenario
from repro.api.sweep import Sweep, evaluate_scenarios
from repro.experiments import common
from repro.telemetry import registry as _registry
from repro.telemetry import span as _span


class BatchScheduler:
    """Batches scenario evaluations over a shared persistent store."""

    def __init__(self, store: Optional[Any] = None, jobs: int = 1) -> None:
        """``store`` is a directory path (or ``None`` to use the
        process-wide selection: ``--store`` flag / ``REPRO_STORE``);
        ``jobs`` caps the process-pool width used for store misses.

        A scheduler-owned store is **scoped**: it is installed as the
        process store only for the duration of each submission, and the
        previous selection is restored afterwards -- embedding a
        scheduler (or a background daemon) does not hijack the host
        process's caching configuration.
        """
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self._store = None
        if store is not None:
            import os

            if isinstance(store, (str, os.PathLike)):
                from repro.service.store import open_store

                # Fleet-aware: a fleet.json-carrying root opens sharded.
                self._store = open_store(store)
            else:
                self._store = store  # an already-open store handle
        self.jobs = jobs
        self._stats = {
            "batches": 0,
            "submitted": 0,
            "deduplicated": 0,
            "store_hits": 0,
            "executed": 0,
        }

    @contextlib.contextmanager
    def _activated(self):
        """Install this scheduler's store for one submission window."""
        if self._store is None:
            yield common.active_store()
            return
        previous = common.store_selection()
        common.configure_store(self._store)
        try:
            yield self._store
        finally:
            common.restore_store_selection(previous)

    # -- submission ----------------------------------------------------------

    @staticmethod
    def _coerce(point: Union[Scenario, Mapping[str, Any]]) -> Scenario:
        if isinstance(point, Scenario):
            return point
        if isinstance(point, Mapping):
            return Scenario.from_dict(point)
        raise TypeError(
            f"expected a Scenario or its dict form, got {type(point).__name__}"
        )

    @staticmethod
    def _in_store(store, scenario: Scenario) -> bool:
        """Non-counting probe: is this point already evaluated on disk?"""
        if store is None or scenario.is_query:
            return False
        from repro.service.store import digest_payload

        return store.contains(
            digest_payload(
                common.result_store_payload(
                    scenario.system,
                    scenario.operator,
                    scenario.model_scale,
                    scenario.seed,
                    scenario.num_partitions,
                )
            )
        )

    def submit(
        self, points: Iterable[Union[Scenario, Mapping[str, Any]]]
    ) -> ResultSet:
        """Evaluate one batch into a :class:`ResultSet`.

        Records come back in submission order (duplicates included), so
        a batch built from a sweep grid exports byte-identically to
        ``Sweep.run``.
        """
        scenarios = [self._coerce(p) for p in points]
        unique: Dict[Scenario, None] = {}
        for scenario in scenarios:
            unique.setdefault(scenario)

        with _span(
            "batch",
            category="service",
            submitted=len(scenarios),
            unique=len(unique),
        ) as batch_sp, self._activated() as store:
            hits = [s for s in unique if self._in_store(store, s)]
            misses = [s for s in unique if s not in set(hits)]
            batch_sp.set(store_hits=len(hits), executed=len(misses))

            records: Dict[Scenario, List[Dict[str, Any]]] = {}
            # Store hits replay in-process: run_cached_result's store
            # tier restores the evaluated result with zero simulation
            # executions.
            for scenario in hits:
                records[scenario] = scenario.records()
            records.update(zip(misses, evaluate_scenarios(misses, self.jobs)))

        self._stats["batches"] += 1
        self._stats["submitted"] += len(scenarios)
        self._stats["deduplicated"] += len(scenarios) - len(unique)
        self._stats["store_hits"] += len(hits)
        self._stats["executed"] += len(misses)
        reg = _registry()
        reg.counter("service.batches").inc()
        reg.counter("service.submitted").inc(len(scenarios))
        reg.counter("service.deduplicated").inc(len(scenarios) - len(unique))
        reg.counter("service.store_hits").inc(len(hits))
        reg.counter("service.executed").inc(len(misses))
        reg.histogram("service.batch_size").observe(len(scenarios))
        return ResultSet(r for s in scenarios for r in records[s])

    def submit_sweep(self, sweep: Union[Sweep, Mapping[str, Any]]) -> ResultSet:
        """Evaluate a whole sweep grid (or its dict form) as one batch."""
        if isinstance(sweep, Mapping):
            sweep = Sweep.from_dict(sweep)
        return self.submit(sweep.scenarios())

    # -- introspection -------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Lifetime batch counters (plus dedup/store-hit/executed split)."""
        return dict(self._stats)

    def close(self) -> None:
        """Flush the owned store."""
        if self._store is not None:
            self._store.flush()

    def store_path(self) -> Optional[str]:
        """The directory of the store this scheduler evaluates against."""
        if self._store is not None:
            return str(self._store.root)
        return common.store_path()

    def store_stats(self) -> Optional[Dict[str, int]]:
        """The backing store's counters, or ``None`` without a store."""
        if self._store is not None:
            return self._store.stats()
        return common.store_stats()
