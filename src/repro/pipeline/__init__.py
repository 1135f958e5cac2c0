"""Composable query pipelines: chain operators into end-to-end plans.

The paper evaluates each operator in isolation; real analytics engines
run multi-operator queries whose intermediate relations flow between
stages.  This subsystem closes that gap:

- :mod:`repro.pipeline.stage` -- a uniform ``plan(inputs) -> (output,
  phases)`` protocol wrapping every operator (scan/filter, join,
  group-by, sort, repartition -- plain or skew-aware);
- :mod:`repro.pipeline.plan` -- :class:`QueryPlan`, the chained dataflow,
  and :class:`PipelineRun`, its executed form with concatenated
  per-stage :class:`~repro.operators.base.PhaseCost` lists;
- :mod:`repro.pipeline.perf` -- :class:`PipelinePerf`, per-stage
  time/energy on one machine plus the bottleneck report (built via
  :meth:`repro.systems.machine.Machine.run_pipeline`);
- :mod:`repro.pipeline.report` -- breakdown / comparison tables;
- :mod:`repro.pipeline.queries` -- three canonical query shapes
  (:data:`CANONICAL_QUERIES`) the experiments layer sweeps across
  machines.

Quickstart::

    from repro.pipeline import fk_join_aggregate
    from repro.systems import build_system

    plan = fk_join_aggregate(n_r=400, n_s=1600, num_partitions=8, seed=1)
    perf = build_system("mondrian").run_pipeline(plan, scale_factor=100.0)
    print(perf.runtime_s, perf.bottleneck().stage)
"""

from repro.pipeline.plan import PipelineRun, QueryPlan
from repro.pipeline.perf import (
    PipelinePerf,
    StagePerf,
    evaluate_pipeline,
    pipeline_speedup,
)
from repro.pipeline.queries import (
    CANONICAL_QUERIES,
    fk_join_aggregate,
    make_fk_tables,
    skewed_partition_join,
    sort_then_scan,
)
from repro.pipeline.report import (
    bottleneck_report,
    comparison_table,
    stage_breakdown_table,
)
from repro.pipeline.stage import (
    FilterStage,
    GroupByStage,
    JoinStage,
    PartitionStage,
    PipelineStage,
    PlanContext,
    ScanStage,
    SortStage,
    StagePlan,
)

__all__ = [
    "CANONICAL_QUERIES",
    "FilterStage",
    "GroupByStage",
    "JoinStage",
    "PartitionStage",
    "PipelinePerf",
    "PipelineRun",
    "PipelineStage",
    "PlanContext",
    "QueryPlan",
    "ScanStage",
    "SortStage",
    "StagePerf",
    "StagePlan",
    "bottleneck_report",
    "comparison_table",
    "evaluate_pipeline",
    "fk_join_aggregate",
    "make_fk_tables",
    "pipeline_speedup",
    "skewed_partition_join",
    "sort_then_scan",
    "stage_breakdown_table",
]
