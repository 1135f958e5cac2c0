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
  / ``OPERATOR_NAMES`` is the dispatch table the systems layer uses;
  ``run_partitioning`` is the shared shuffle phase and
  ``run_partitioning_skew_aware`` its two-round variant for skewed keys
  (with ``plan_rebalance``, ``RebalancePlan`` and
  ``PartitionOverflowError`` as its protocol pieces).
- Contracts -- ``PhaseCost`` (one phase's machine-independent work),
  ``OperatorRun`` (phases + functional output), ``OperatorVariant`` (how
  a machine runs an operator), and the phase categories
  ``PHASE_HISTOGRAM`` / ``PHASE_DISTRIBUTE`` / ``PHASE_PROBE``.
- Outputs -- ``ScanOutput``, ``JoinOutput``, ``GroupByOutput``: each
  operator's verifiable functional result (Group by's is columnar: a
  key array plus one array per aggregate).
- Building blocks -- ``LinearProbingHashTable`` (the probe substrate),
  ``destination_map`` with ``SCHEME_LOW_BITS`` / ``SCHEME_HIGH_BITS``
  (bucket routing), and the sort kernels ``quicksort`` / ``mergesort``
  / ``merge_pass`` / ``bitonic_sort_runs``.

Two test-facing modules sit beside them and are not imported here:
:mod:`repro.operators.oracle` (partition-free answers) and
:mod:`repro.operators.reference` (the slow per-partition references the
production paths are pinned against).
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
from repro.operators.hashtable import LinearProbingHashTable
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
    plan_rebalance,
    run_partitioning_skew_aware,
)
from repro.operators.sort_algos import bitonic_sort_runs, merge_pass, mergesort, quicksort
from repro.operators.sort_op import run_sort

#: Dispatch table used by the systems layer.
OPERATOR_RUNNERS = {
    "scan": run_scan,
    "sort": run_sort,
    "groupby": run_groupby,
    "join": run_join,
}

OPERATOR_NAMES = tuple(OPERATOR_RUNNERS)

__all__ = [
    "GroupByOutput",
    "JoinOutput",
    "LinearProbingHashTable",
    "OPERATOR_NAMES",
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
    "plan_rebalance",
    "run_partitioning_skew_aware",
    "SCHEME_HIGH_BITS",
    "SCHEME_LOW_BITS",
    "bitonic_sort_runs",
    "destination_map",
    "merge_pass",
    "mergesort",
    "quicksort",
    "run_groupby",
    "run_join",
    "run_partitioning",
    "run_scan",
    "run_sort",
]
