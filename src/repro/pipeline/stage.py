"""Pipeline stages: the uniform ``plan(inputs) -> (output, phases)``
protocol that lets every operator compose into a query plan.

A stage wraps one operator (or the standalone partitioning phase) behind
a single interface:

- it names the table(s) it **reads** and the one table it **publishes**;
- :meth:`PipelineStage.plan` functionally executes the operator on the
  current table environment (real tuples move) and returns a
  :class:`StagePlan` -- the output :class:`Relation` the next stage
  consumes plus the stage's :class:`PhaseCost` list, ready for any
  machine's :class:`~repro.perf.model.PhaseEvaluator`.

Stages are machine-agnostic: the same :class:`QueryPlan
<repro.pipeline.plan.QueryPlan>` runs unchanged on the CPU baseline and
on Mondrian, because the :class:`~repro.operators.base.OperatorVariant`
arrives at plan time (via :class:`PlanContext`), exactly as it does for
standalone operators.

Functional outputs are cross-checked against the wrapped operator's own
output (join match counts and checksums, scan match counts, sortedness)
so a stage can never silently diverge from the operator it costs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.analytics.tuples import Relation
from repro.analytics.workload import (
    GroupByWorkload,
    JoinWorkload,
    ScanWorkload,
    SortWorkload,
    split_relation,
)
from repro.operators.base import OperatorRun, OperatorVariant, PhaseCost
from repro.operators.groupby import AGGREGATE_NAMES, run_groupby
from repro.operators.join import run_join
from repro.operators.partition import (
    SCHEME_HIGH_BITS,
    SCHEME_LOW_BITS,
    run_partitioning,
)
from repro.operators.scan import run_scan, scan_probe_cost
from repro.operators.skew import run_partitioning_skew_aware
from repro.operators.sort_op import run_sort


@dataclass(frozen=True)
class PlanContext:
    """Everything a stage needs at plan time beyond its input tables."""

    variant: OperatorVariant
    model_scale: float = 1.0
    key_space_bits: int = 48

    def __post_init__(self) -> None:
        if self.model_scale <= 0:
            raise ValueError("model_scale must be positive")


@dataclass
class StagePlan:
    """One planned stage: functional output + cost records + provenance."""

    name: str
    operator: str
    output_table: str
    relation: Relation
    phases: List[PhaseCost]
    metadata: Dict[str, Any] = field(default_factory=dict)

    @property
    def total_instructions(self) -> float:
        return sum(p.instructions for p in self.phases)

    def as_operator_run(self) -> OperatorRun:
        """View this stage as an OperatorRun so the systems layer can
        evaluate it with the exact machinery used for standalone
        operators."""
        return OperatorRun(
            operator=self.operator,
            variant=self.metadata.get("variant", ""),
            phases=self.phases,
            output=self.relation,
            metadata=dict(self.metadata),
        )


class PipelineStage(ABC):
    """Base class: one operator applied to named tables.

    Subclasses implement :meth:`plan`; the base class provides input
    resolution with a helpful error when a plan references a table no
    prior stage produced.
    """

    #: Operator family, for reports (subclasses override).
    operator: str = "stage"

    def __init__(self, inputs: Sequence[str], output: str, name: Optional[str] = None):
        if not inputs:
            raise ValueError("a stage needs at least one input table")
        if not output:
            raise ValueError("a stage needs an output table name")
        self.inputs = tuple(inputs)
        self.output = output
        self.name = name or f"{self.operator}:{output}"

    @abstractmethod
    def plan(self, tables: Dict[str, Relation], ctx: PlanContext) -> StagePlan:
        """Functionally execute this stage and return its plan."""

    def _table(self, tables: Dict[str, Relation], name: str) -> Relation:
        try:
            return tables[name]
        except KeyError:
            raise KeyError(
                f"stage {self.name!r} reads table {name!r}, but only "
                f"{sorted(tables)} are available at this point in the plan"
            ) from None

    def _plan(
        self,
        relation: Relation,
        phases: List[PhaseCost],
        ctx: PlanContext,
        **metadata: Any,
    ) -> StagePlan:
        metadata.setdefault("variant", ctx.variant.label)
        return StagePlan(
            name=self.name,
            operator=self.operator,
            output_table=self.output,
            relation=relation,
            phases=phases,
            metadata=metadata,
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({', '.join(self.inputs)} -> {self.output})"
        )


class ScanStage(PipelineStage):
    """Key-equality scan: keep the tuples whose key matches.

    Wraps :func:`repro.operators.scan.run_scan`; the functional output
    (the matching tuples, as a relation the next stage can consume) is
    cross-checked against the operator's match count.
    """

    operator = "scan"

    def __init__(self, input: str, output: str, key: int, name: Optional[str] = None):
        super().__init__([input], output, name)
        self.key = int(key)

    def plan(self, tables: Dict[str, Relation], ctx: PlanContext) -> StagePlan:
        rel = self._table(tables, self.inputs[0])
        workload = ScanWorkload(
            partitions=split_relation(rel, ctx.variant.num_partitions),
            search_key=self.key,
            key_space_bits=ctx.key_space_bits,
        )
        run = run_scan(workload, ctx.variant, model_scale=ctx.model_scale)
        hit = rel.keys == np.uint64(self.key)
        out = Relation(rel.data[hit], self.output)
        if len(out) != run.output.matches:
            raise AssertionError(
                f"stage {self.name!r}: scan found {run.output.matches} matches "
                f"but the output relation has {len(out)} tuples"
            )
        return self._plan(out, run.phases, ctx, search_key=self.key, tuples_in=len(rel))


class FilterStage(PipelineStage):
    """Streaming filter by an arbitrary vectorized key predicate.

    The memory behaviour is exactly Scan's (one sequential compare pass,
    figure 6's streaming pattern), so the stage charges
    :func:`~repro.operators.scan.scan_probe_cost` over the input size;
    only the kept tuples flow on.
    """

    operator = "scan"

    def __init__(
        self,
        input: str,
        output: str,
        predicate: Callable[[np.ndarray], np.ndarray],
        name: Optional[str] = None,
    ):
        super().__init__([input], output, name)
        self.predicate = predicate

    def plan(self, tables: Dict[str, Relation], ctx: PlanContext) -> StagePlan:
        rel = self._table(tables, self.inputs[0])
        keep = np.asarray(self.predicate(rel.keys), dtype=bool)
        if keep.shape != rel.keys.shape:
            raise ValueError(
                f"stage {self.name!r}: predicate returned shape {keep.shape}, "
                f"expected {rel.keys.shape}"
            )
        out = Relation(rel.data[keep], self.output)
        model_n = int(round(len(rel) * ctx.model_scale))
        phases = [scan_probe_cost(model_n, ctx.variant)]
        return self._plan(
            out, phases, ctx, tuples_in=len(rel), selectivity=len(out) / max(1, len(rel))
        )


class JoinStage(PipelineStage):
    """Foreign-key join of two tables (R join S, R holds unique keys).

    Wraps :func:`repro.operators.join.run_join` for the cost records and
    match/checksum verification; the stage itself materializes the joined
    relation -- key = S key, payload = R payload + S payload (mod 2**64),
    the same combination the operator's checksum digests, so the output
    relation's payload sum must equal the operator's checksum exactly.
    """

    operator = "join"

    def __init__(self, left: str, right: str, output: str, name: Optional[str] = None):
        super().__init__([left, right], output, name)

    def plan(self, tables: Dict[str, Relation], ctx: PlanContext) -> StagePlan:
        r = self._table(tables, self.inputs[0])
        s = self._table(tables, self.inputs[1])
        workload = JoinWorkload(
            r_partitions=split_relation(r, ctx.variant.num_partitions),
            s_partitions=split_relation(s, ctx.variant.num_partitions),
            key_space_bits=ctx.key_space_bits,
        )
        run = run_join(workload, ctx.variant, model_scale=ctx.model_scale)
        out = _fk_join_relation(r, s, self.output)
        if len(out) != run.output.matches:
            raise AssertionError(
                f"stage {self.name!r}: operator found {run.output.matches} "
                f"matches but the joined relation has {len(out)} tuples"
            )
        with np.errstate(over="ignore"):
            payload_sum = int(out.payloads.sum(dtype=np.uint64))
        if payload_sum != run.output.checksum:
            raise AssertionError(
                f"stage {self.name!r}: joined payload checksum {payload_sum} "
                f"!= operator checksum {run.output.checksum}"
            )
        return self._plan(
            out, run.phases, ctx, n_r=len(r), n_s=len(s), matches=len(out)
        )


class GroupByStage(PipelineStage):
    """Group by key and carry one aggregate forward as the payload.

    Wraps :func:`repro.operators.groupby.run_groupby`; the output
    relation is built from the operator's own columnar output (keys plus
    six aggregate columns), in ascending key order with the chosen
    aggregate column as the payload.
    """

    operator = "groupby"

    def __init__(
        self, input: str, output: str, aggregate: str = "sum", name: Optional[str] = None
    ):
        super().__init__([input], output, name)
        if aggregate not in AGGREGATE_NAMES:
            raise ValueError(
                f"unknown aggregate {aggregate!r}; choose from {AGGREGATE_NAMES}"
            )
        self.aggregate = aggregate

    def plan(self, tables: Dict[str, Relation], ctx: PlanContext) -> StagePlan:
        rel = self._table(tables, self.inputs[0])
        num_groups = len(np.unique(rel.keys))
        workload = GroupByWorkload(
            partitions=split_relation(rel, ctx.variant.num_partitions),
            key_space_bits=ctx.key_space_bits,
            avg_group_size=len(rel) / max(1, num_groups),
        )
        run = run_groupby(workload, ctx.variant, model_scale=ctx.model_scale)
        order = np.argsort(run.output.keys)
        keys = run.output.keys[order]
        values = getattr(run.output, self.aggregate)[order]
        if np.any(values < 0) or np.any(values >= 2**64):
            raise ValueError(
                f"stage {self.name!r}: aggregate {self.aggregate!r} does not "
                "fit the 8-byte payload; use smaller payload values"
            )
        out = Relation.from_arrays(keys, values.astype(np.uint64), self.output)
        return self._plan(
            out, run.phases, ctx, aggregate=self.aggregate, groups=num_groups
        )


class SortStage(PipelineStage):
    """Globally sort a table by key (range partition + local sort).

    Wraps :func:`repro.operators.sort_op.run_sort`; the operator's output
    *is* the next stage's relation, and the stage asserts global
    sortedness and multiset equality with its input.
    """

    operator = "sort"

    def __init__(self, input: str, output: str, name: Optional[str] = None):
        super().__init__([input], output, name)

    def plan(self, tables: Dict[str, Relation], ctx: PlanContext) -> StagePlan:
        rel = self._table(tables, self.inputs[0])
        workload = SortWorkload(
            partitions=split_relation(rel, ctx.variant.num_partitions),
            key_space_bits=ctx.key_space_bits,
        )
        run = run_sort(workload, ctx.variant, model_scale=ctx.model_scale)
        out = Relation(run.output.data, self.output)
        if not out.is_sorted():
            raise AssertionError(f"stage {self.name!r}: output is not key-sorted")
        if not out.multiset_equal(rel):
            raise AssertionError(f"stage {self.name!r}: sort lost or invented tuples")
        return self._plan(out, run.phases, ctx, tuples=len(out))


class PartitionStage(PipelineStage):
    """Explicit repartition (a Spark-style shuffle stage).

    Wraps :func:`~repro.operators.partition.run_partitioning`, or the
    two-round skew-aware protocol
    (:func:`~repro.operators.skew.run_partitioning_skew_aware`) when
    ``skew_aware=True`` (always low-order-bit bucketing -- passing a
    different ``scheme`` with ``skew_aware`` is rejected).  The output
    relation carries the same tuples, redistributed; metadata records
    the load imbalance before/after and whether the rebalancing round
    fired.

    The stage charges the shuffle it performs; a downstream operator
    still runs its own partitioning phase over the redistributed table
    (the operators do not take pre-partitioned inputs), so use this
    stage to *add* an explicit rebalancing shuffle to a pipeline's cost,
    not to replace the next operator's.
    """

    operator = "partition"

    def __init__(
        self,
        input: str,
        output: str,
        scheme: str = SCHEME_LOW_BITS,
        skew_aware: bool = False,
        capacity_factor: float = 1.5,
        name: Optional[str] = None,
    ):
        super().__init__([input], output, name)
        if scheme not in (SCHEME_LOW_BITS, SCHEME_HIGH_BITS):
            raise ValueError(f"unknown partitioning scheme {scheme!r}")
        if skew_aware and scheme != SCHEME_LOW_BITS:
            raise ValueError(
                "the two-round skew protocol is defined for low-order-bit "
                f"bucketing; got scheme {scheme!r} with skew_aware=True"
            )
        self.scheme = scheme
        self.skew_aware = skew_aware
        self.capacity_factor = capacity_factor

    def plan(self, tables: Dict[str, Relation], ctx: PlanContext) -> StagePlan:
        rel = self._table(tables, self.inputs[0])
        sources = split_relation(rel, ctx.variant.num_partitions)
        metadata: Dict[str, Any] = {"tuples": len(rel), "scheme": self.scheme}
        if self.skew_aware:
            outcome, plan = run_partitioning_skew_aware(
                sources,
                ctx.variant,
                ctx.key_space_bits,
                capacity_factor=self.capacity_factor,
                model_scale=ctx.model_scale,
            )
            metadata.update(
                rebalanced=bool(plan.assignment),
                split_buckets=len(plan.split_buckets),
                imbalance_before=plan.imbalance_before,
                imbalance_after=plan.imbalance_after,
            )
        else:
            outcome = run_partitioning(
                sources,
                ctx.variant,
                self.scheme,
                ctx.key_space_bits,
                model_scale=ctx.model_scale,
            )
        # One concatenation of all partitions (the pairwise concat loop
        # re-promoted the structured dtype and recopied the prefix per
        # partition -- quadratic in partition count).
        out = Relation(
            np.concatenate([part.data for part in outcome.partitions]), self.output
        )
        if not out.multiset_equal(rel):
            raise AssertionError(
                f"stage {self.name!r}: repartitioning lost or invented tuples"
            )
        return self._plan(out, outcome.phases, ctx, **metadata)


def _fk_join_relation(r: Relation, s: Relation, name: str) -> Relation:
    """Materialize the FK join: (s.key, r.payload + s.payload) per match."""
    if len(r) == 0 or len(s) == 0:
        return Relation.empty(name)
    order = np.argsort(r.keys, kind="stable")
    r_keys = r.keys[order]
    r_payloads = r.payloads[order]
    idx = np.searchsorted(r_keys, s.keys)
    idx = np.minimum(idx, len(r_keys) - 1)
    found = r_keys[idx] == s.keys
    with np.errstate(over="ignore"):
        payloads = r_payloads[idx[found]] + s.payloads[found]
    return Relation.from_arrays(s.keys[found], payloads, name)
