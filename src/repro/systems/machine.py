"""A machine = system preset + topology + evaluators + energy model.

The machine owns the mapping from its hardware configuration to the
operator variant it runs (paper section 6):

- the CPU partitions with 16 low-order radix bits and probes with
  hash-based algorithms plus quicksort;
- the NMP baselines partition with 6 bits (one bucket per vault) and
  probe with either the hash (NMP-rand) or sort (NMP-seq) algorithms;
- Mondrian partitions with permutable stores and probes sort-based with
  the wide SIMD unit.

``scale_factor`` extrapolates the measured phase costs to paper-sized
datasets: per-tuple-linear quantities scale exactly, and sorting's log
factor is captured by computing merge pass counts at model size.

Running an operator is three steps: :meth:`Machine.execute` runs the
operator functionally under the machine's variant without its fault
schedule (a function of that fault-free variant, the workload and the
scale only), :func:`~repro.operators.partition.price_faults` prices the
machine's fault schedule onto the run, and :meth:`Machine.evaluate_run`
costs it on this machine's cores, memory and topology.  A fault
schedule never changes a run's functional output, so it prices a
shared run and never splits it: machines that differ only in their
schedule or in how a run is costed share runs through the
``operator-run`` memo in :mod:`repro.experiments.common`.
"""

from __future__ import annotations

import functools
from typing import Any

from repro.config.system import SystemConfig, get_preset
from repro.energy.model import EnergyBreakdown, EnergyModel
from repro.interconnect.topology import Topology, build_topology
from repro.operators import OPERATOR_RUNNERS, OperatorRun, OperatorVariant
from repro.operators.partition import price_faults
from repro.perf.model import PhaseEvaluator
from repro.perf.result import SystemResult

#: Radix bits per machine kind (paper section 6).
CPU_RADIX_BITS = 16
NMP_RADIX_BITS = 6


class Machine:
    """One evaluated system configuration, ready to run operators."""

    def __init__(self, config: SystemConfig) -> None:
        self._config = config
        self._topology = build_topology(
            config.topology, config.geometry, config.interconnect
        )
        self._evaluator = PhaseEvaluator(config, self._topology)
        self._energy_model = EnergyModel(config, self._topology.num_serdes_links)

    @property
    def config(self) -> SystemConfig:
        return self._config

    @property
    def topology(self) -> Topology:
        return self._topology

    @property
    def name(self) -> str:
        return self._config.name

    def variant(self, num_partitions: int) -> OperatorVariant:
        """The algorithmic variant this machine runs (section 6)."""
        cfg = self._config
        return OperatorVariant(
            radix_bits=CPU_RADIX_BITS if cfg.kind == "cpu" else NMP_RADIX_BITS,
            probe_algorithm=cfg.probe_algorithm,
            permutable=cfg.uses_permutability,
            simd=cfg.kind == "mondrian",
            num_partitions=num_partitions,
            local_sort="quicksort" if cfg.kind == "cpu" else "mergesort",
            interleave=cfg.interleave_model,
            faults=cfg.faults,
        )

    def execute(
        self,
        operator: str,
        workload: Any,
        scale_factor: float = 1.0,
    ) -> OperatorRun:
        """Functionally execute ``operator`` under this machine's
        variant, fault-free.

        The run depends only on the workload, ``self.variant(...)``
        without its fault schedule, and the scale, so machines that
        share that variant can share it; ``price_faults(run,
        self.variant(...), scale_factor)`` adds the schedule.
        """
        try:
            runner = OPERATOR_RUNNERS[operator]
        except KeyError:
            raise KeyError(
                f"unknown operator {operator!r}; choose from {sorted(OPERATOR_RUNNERS)}"
            ) from None
        if scale_factor <= 0:
            raise ValueError("scale factor must be positive")
        try:
            num_partitions = workload.num_partitions
        except AttributeError:
            raise TypeError(
                f"workload {type(workload).__name__} does not implement the "
                "num_partitions property; every workload dataclass must "
                "declare how many memory partitions it was generated across"
            ) from None
        return runner(
            workload,
            self.variant(num_partitions).fault_free,
            model_scale=scale_factor,
        )

    def run_operator(
        self,
        operator: str,
        workload: Any,
        scale_factor: float = 1.0,
    ) -> SystemResult:
        """Functionally execute ``operator``, price this machine's fault
        schedule onto the run and evaluate it on this machine."""
        run = self.execute(operator, workload, scale_factor)
        variant = self.variant(workload.num_partitions)
        return self.evaluate_run(price_faults(run, variant, scale_factor))

    def run_pipeline(self, plan: Any, scale_factor: float = 1.0) -> Any:
        """Execute a :class:`~repro.pipeline.plan.QueryPlan` end-to-end.

        Every stage runs functionally under this machine's operator
        variant, and the plan prices the variant's fault schedule onto
        each finished stage; the resulting per-stage phases are costed
        with the same evaluator/energy path as standalone operators.  Returns a
        :class:`~repro.pipeline.perf.PipelinePerf`.
        """
        # Imported here: repro.pipeline pulls in the experiments layer
        # (table formatting), which imports repro.systems back.
        from repro.pipeline.perf import evaluate_pipeline
        from repro.telemetry import span as _span

        if scale_factor <= 0:
            raise ValueError("scale factor must be positive")
        with _span(
            "run_pipeline",
            category="pipeline",
            system=self.config.name,
            plan=plan.name,
        ):
            run = plan.execute(
                self.variant(plan.num_partitions), model_scale=scale_factor
            )
            return evaluate_pipeline(self, run)

    def phase_energy(self, perf) -> EnergyBreakdown:
        """Energy breakdown of one evaluated phase on this machine.

        The same accounting ``evaluate_run`` accumulates across phases,
        exposed per phase so the scenario API can emit tidy
        per-phase/per-component records.
        """
        return self._energy_model.phase_energy(
            perf.events, perf.time_s, perf.core_utilization
        )

    def evaluate_run(self, run: OperatorRun) -> SystemResult:
        """Cost an already-executed operator run on this machine."""
        phase_perfs = []
        energy = EnergyBreakdown()
        for phase in run.phases:
            perf = self._evaluator.evaluate(phase)
            phase_perfs.append(perf)
            energy.accumulate(
                self._energy_model.phase_energy(
                    perf.events, perf.time_s, perf.core_utilization
                )
            )
        return SystemResult(
            system=self.name,
            operator=run.operator,
            variant=run.variant,
            phase_perfs=phase_perfs,
            energy=energy,
            output=run.output,
            metadata=dict(run.metadata),
        )


@functools.lru_cache(maxsize=None)
def _preset_machine(preset: str) -> Machine:
    return Machine(get_preset(preset))


def build_system(preset: str) -> Machine:
    """Machine for a named preset (see ``SYSTEM_PRESETS``).

    Machines are stateless across ``run_operator``/``run_pipeline``
    calls (the evaluator and energy model are pure functions of the
    phase; accumulators are created per call), so the same per-preset
    instance is returned every time -- topology and core-model
    construction leave the hot path.
    """
    return _preset_machine(preset)


def clear_machine_cache() -> None:
    """Drop the per-preset machine singletons (``common.clear_caches``
    uses this so each cold timed run includes machine construction)."""
    _preset_machine.cache_clear()
