"""Query plans: chained operator stages evaluated end-to-end.

A :class:`QueryPlan` is the pipeline subsystem's unit of work -- named
input tables plus an ordered list of stages whose intermediate relations
flow from one stage's functional output into the next (a linearized
Spark-style physical plan).  Executing a plan against an
:class:`~repro.operators.base.OperatorVariant` produces a
:class:`PipelineRun`: every stage's output relation and
:class:`~repro.operators.base.PhaseCost` list, concatenated in stage
order, ready for any machine's phase evaluator.

The plan is machine-agnostic; the same object runs on the CPU baseline
and on Mondrian (see :meth:`repro.systems.machine.Machine.run_pipeline`),
which is what makes cross-machine pipeline comparisons one-liners.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.analytics.tuples import Relation
from repro.operators.base import OperatorVariant, PhaseCost
from repro.pipeline.stage import PipelineStage, PlanContext, StagePlan
from repro.telemetry import span as _span


@dataclass
class QueryPlan:
    """Named input tables + ordered stages = one executable query."""

    name: str
    tables: Dict[str, Relation]
    stages: List[PipelineStage]
    num_partitions: int = 64
    key_space_bits: int = 48
    description: str = ""

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValueError("a query plan needs at least one stage")
        if self.num_partitions < 1:
            raise ValueError("need at least one partition")
        self.validate()

    def validate(self) -> None:
        """Check the dataflow statically: every stage's inputs must exist
        when it runs, and no two producers may publish the same table."""
        available = set(self.tables)
        for stage in self.stages:
            missing = [t for t in stage.inputs if t not in available]
            if missing:
                raise ValueError(
                    f"plan {self.name!r}: stage {stage.name!r} reads "
                    f"{missing} before any stage (or input table) produces them"
                )
            if stage.output in available:
                raise ValueError(
                    f"plan {self.name!r}: table {stage.output!r} is produced "
                    "twice; give each stage a unique output name"
                )
            available.add(stage.output)

    @property
    def stage_names(self) -> List[str]:
        return [s.name for s in self.stages]

    def execute(
        self, variant: OperatorVariant, model_scale: float = 1.0
    ) -> "PipelineRun":
        """Run every stage functionally, threading relations through.

        ``model_scale`` plays the same role as for standalone operators:
        tuples that really move stay small, while each stage's PhaseCost
        records describe a dataset ``model_scale`` times larger.
        """
        ctx = PlanContext(
            variant=variant,
            model_scale=model_scale,
            key_space_bits=self.key_space_bits,
        )
        env: Dict[str, Relation] = dict(self.tables)
        stage_plans: List[StagePlan] = []
        with _span(
            "plan", category="pipeline", plan=self.name, variant=variant.label
        ):
            for stage in self.stages:
                with _span(
                    "stage", category="pipeline", stage=stage.name
                ) as sp:
                    plan = stage.plan(env, ctx)
                    sp.set(output_rows=len(plan.relation))
                env[plan.output_table] = plan.relation
                stage_plans.append(plan)
        return PipelineRun(
            plan=self.name,
            variant=variant.label,
            stages=stage_plans,
            tables=env,
            model_scale=model_scale,
        )


@dataclass
class PipelineRun:
    """The outcome of executing a QueryPlan under one variant."""

    plan: str
    variant: str
    stages: List[StagePlan]
    tables: Dict[str, Relation]
    model_scale: float = 1.0
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def phases(self) -> List[PhaseCost]:
        """All stages' phase costs, concatenated in stage order."""
        return [p for stage in self.stages for p in stage.phases]

    @property
    def output(self) -> Relation:
        """The final stage's relation -- the query's result."""
        return self.stages[-1].relation

    def stage(self, name: str) -> StagePlan:
        for s in self.stages:
            if s.name == name:
                return s
        raise KeyError(
            f"no stage named {name!r}; stages: {[s.name for s in self.stages]}"
        )
