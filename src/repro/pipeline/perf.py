"""Pipeline performance: per-stage time/energy aggregation + bottleneck.

``evaluate_pipeline`` costs a :class:`~repro.pipeline.plan.PipelineRun`
on one machine by feeding every stage through the machine's existing
``evaluate_run`` path (the same :class:`~repro.perf.model.PhaseEvaluator`
and :class:`~repro.energy.model.EnergyModel` standalone operators use),
so pipeline numbers are exactly the sum of their parts -- there is no
separate pipeline cost model to drift out of sync.

The result is a :class:`PipelinePerf`: per-stage
:class:`~repro.perf.result.SystemResult` records plus pipeline-level
totals, stage time/energy fractions and a bottleneck report naming the
stage and the resource (core, network, destination DRAM) that paces it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List

from repro.energy.model import EnergyBreakdown
from repro.perf.result import SystemResult
from repro.pipeline.plan import PipelineRun

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a hard cycle
    from repro.systems.machine import Machine


@dataclass
class StagePerf:
    """One pipeline stage costed on one machine."""

    stage: str
    operator: str
    output_table: str
    result: SystemResult

    @property
    def runtime_s(self) -> float:
        return self.result.runtime_s

    @property
    def energy_j(self) -> float:
        return self.result.energy.total_j

    @property
    def dominant_limit(self) -> str:
        """The resource pacing this stage: the limiter of its slowest
        phase (``core`` when the core model is the floor, ``network`` or
        ``dest_dram`` when a system-level cap is)."""
        slowest = max(self.result.phase_perfs, key=lambda p: p.time_ns)
        return max(slowest.limits, key=slowest.limits.get)


@dataclass
class PipelinePerf:
    """A whole query pipeline costed on one machine."""

    system: str
    plan: str
    stages: List[StagePerf]
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def runtime_s(self) -> float:
        return sum(s.runtime_s for s in self.stages)

    @property
    def energy(self) -> EnergyBreakdown:
        total = EnergyBreakdown()
        for s in self.stages:
            total.accumulate(s.result.energy)
        return total

    @property
    def energy_j(self) -> float:
        return self.energy.total_j

    def stage(self, name: str) -> StagePerf:
        for s in self.stages:
            if s.stage == name:
                return s
        raise KeyError(
            f"no stage named {name!r}; stages: {[s.stage for s in self.stages]}"
        )

    def time_fractions(self) -> Dict[str, float]:
        """Share of pipeline runtime per stage."""
        total = self.runtime_s
        if total <= 0:
            return {s.stage: 0.0 for s in self.stages}
        return {s.stage: s.runtime_s / total for s in self.stages}

    def bottleneck(self) -> StagePerf:
        """The stage that dominates end-to-end runtime."""
        return max(self.stages, key=lambda s: s.runtime_s)


def evaluate_pipeline(machine: "Machine", run: PipelineRun) -> PipelinePerf:
    """Cost an executed pipeline on ``machine``, stage by stage."""
    stage_perfs = [
        StagePerf(
            stage=stage.name,
            operator=stage.operator,
            output_table=stage.output_table,
            result=machine.evaluate_run(stage.as_operator_run()),
        )
        for stage in run.stages
    ]
    return PipelinePerf(
        system=machine.name,
        plan=run.plan,
        stages=stage_perfs,
        metadata={"variant": run.variant, "model_scale": run.model_scale},
    )


def pipeline_speedup(baseline: PipelinePerf, candidate: PipelinePerf) -> float:
    """End-to-end runtime speedup of ``candidate`` over ``baseline``."""
    if candidate.runtime_s <= 0:
        raise ValueError("candidate runtime must be positive")
    return baseline.runtime_s / candidate.runtime_s
