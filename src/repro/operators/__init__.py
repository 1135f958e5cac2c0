"""The four basic data operators (paper Table 2) in every evaluated
algorithmic variant, executed functionally (real tuples move, real
outputs are produced) while emitting the per-phase cost records the
performance and energy models consume.

=========  =======================  ==================================
Operator   Partitioning             Probe variants
=========  =======================  ==================================
Scan       (none)                   streaming compare
Join       low-order-bit shuffle    hash build+probe / sort-merge join
Group by   low-order-bit shuffle    hash aggregate / sort + seq fold
Sort       high-order-bit shuffle   quicksort (CPU) / mergesort (NMP)
=========  =======================  ==================================

Exported names, by role:

- Runners -- ``run_scan`` / ``run_sort`` / ``run_groupby`` / ``run_join``
  execute one operator functionally and cost it; ``OPERATOR_RUNNERS``
  is the dispatch table the systems layer uses;
  ``run_partitioning`` is the shared shuffle phase and
  ``run_partitioning_skew_aware`` its two-round variant for skewed keys
  (with ``plan_rebalance``, ``apply_plan``, ``RebalancePlan`` and
  ``PartitionOverflowError`` as its protocol pieces; the plan is
  columnar -- a vault per bucket, plus share arrays for the buckets
  split across vaults -- and the same on every host).  Both take a
  relation's flat ``SegmentedColumns``, one segment per source
  partition, and hash, histogram and route it in one pass.  Sort,
  join and group-by execute fault-free and price the variant's fault
  schedule onto the run with
  :func:`repro.operators.partition.price_faults`, the step the systems
  layer also applies to a memoized run.
- Contracts -- ``PhaseCost`` (one phase's machine-independent work),
  ``OperatorRun`` (phases + functional output), ``OperatorVariant`` (how
  a machine runs an operator), and the phase categories
  ``PHASE_HISTOGRAM`` / ``PHASE_DISTRIBUTE`` / ``PHASE_PROBE``.
- Outputs -- ``ScanOutput``, ``JoinOutput``, ``GroupByOutput``: each
  operator's verifiable functional result (Group by's is columnar: a
  key array plus one array per aggregate).
- Building blocks -- ``destination_map`` with ``SCHEME_LOW_BITS`` /
  ``SCHEME_HIGH_BITS`` (bucket routing).

Four test-facing modules sit beside them and are not imported here:
:mod:`repro.operators.oracle` (partition-free answers),
:mod:`repro.operators.reference` (the slow per-partition references the
production paths are pinned against), and the one-partition kernels
those references run -- :mod:`repro.operators.hashtable` (the
linear-probing table) and :mod:`repro.operators.sort_algos` (mergesort,
quicksort and the bitonic pass).  Production runs every partition at
once through :mod:`repro.columnar`.
"""

from repro.operators.base import (
    OperatorRun,
    OperatorVariant,
    PhaseCost,
    PHASE_DISTRIBUTE,
    PHASE_HISTOGRAM,
    PHASE_PROBE,
)
from repro.operators.groupby import GroupByOutput, run_groupby
from repro.operators.join import JoinOutput, run_join
from repro.operators.partition import (
    SCHEME_HIGH_BITS,
    SCHEME_LOW_BITS,
    destination_map,
    run_partitioning,
)
from repro.operators.scan import ScanOutput, run_scan
from repro.operators.skew import (
    PartitionOverflowError,
    RebalancePlan,
    apply_plan,
    plan_rebalance,
    run_partitioning_skew_aware,
)
from repro.operators.sort_op import run_sort

#: Dispatch table used by the systems layer.
OPERATOR_RUNNERS = {
    "scan": run_scan,
    "sort": run_sort,
    "groupby": run_groupby,
    "join": run_join,
}

__all__ = [
    "GroupByOutput",
    "JoinOutput",
    "OPERATOR_RUNNERS",
    "OperatorRun",
    "OperatorVariant",
    "PHASE_DISTRIBUTE",
    "PHASE_HISTOGRAM",
    "PHASE_PROBE",
    "PartitionOverflowError",
    "PhaseCost",
    "RebalancePlan",
    "ScanOutput",
    "apply_plan",
    "plan_rebalance",
    "run_partitioning_skew_aware",
    "SCHEME_HIGH_BITS",
    "SCHEME_LOW_BITS",
    "destination_map",
    "run_groupby",
    "run_join",
    "run_partitioning",
    "run_scan",
    "run_sort",
]
