"""The Scan operator.

The simplest operator: no partitioning phase; every input partition is
scanned in parallel and each tuple's key is compared against the
searched value (paper section 6).  Identical code for the hash- and
sort-based variants (figure 6 shows NMP-rand == NMP-seq on Scan).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analytics.tuples import TUPLE_B
from repro.analytics.workload import ScanWorkload
from repro.operators import costs
from repro.operators.base import PHASE_PROBE, OperatorRun, OperatorVariant, PhaseCost


@dataclass(frozen=True)
class ScanOutput:
    """Matches found by the scan."""

    matches: int
    payload_sum: int

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScanOutput):
            return NotImplemented
        return self.matches == other.matches and self.payload_sum == other.payload_sum


def scan_probe_cost(n: int, variant: OperatorVariant) -> PhaseCost:
    """Streaming compare of every tuple against the search key."""
    instructions = n * costs.SCAN_CMP
    # SIMD executes the whole compare loop wide: load + compare element ops.
    simd_ops = instructions if variant.simd else 0.0
    return PhaseCost(
        name="scan",
        category=PHASE_PROBE,
        instructions=instructions,
        simd_ops=simd_ops,
        dep_ilp=costs.SCAN_DEP_ILP,
        mem_parallelism=8.0,
        simd_vectorizable=variant.simd,
        seq_read_b=n * TUPLE_B,
        notes="compare every key against the searched value",
    )


def run_scan(
    workload: ScanWorkload,
    variant: OperatorVariant,
    model_scale: float = 1.0,
) -> OperatorRun:
    """Functionally execute Scan and produce its cost records.

    Scans the workload's zero-copy flat view in one pass.  The payload
    sum is each partition's *wrapped* (mod 2**64) sum accumulated into
    an unbounded Python int, so per-segment ``reduceat`` sums are folded
    rather than summing globally.
    """
    if model_scale <= 0:
        raise ValueError("model_scale must be positive")
    key = np.uint64(workload.search_key)
    columns = workload.flat
    hit = columns.keys == key
    matches = int(np.count_nonzero(hit))
    masked = np.where(hit, columns.payloads, np.uint64(0))
    starts = columns.segments[:-1][columns.segment_lengths() > 0]
    seg_sums = (
        np.add.reduceat(masked, starts) if len(starts) else np.empty(0, np.uint64)
    )
    payload_sum = sum(seg_sums.tolist())
    n = workload.total_tuples
    model_n = int(round(n * model_scale))
    return OperatorRun(
        operator="scan",
        variant=variant.label,
        phases=[scan_probe_cost(model_n, variant)],
        output=ScanOutput(matches=matches, payload_sum=payload_sum),
        metadata={"search_key": workload.search_key, "tuples": n},
    )
