"""Segmented columnar kernel layer: whole-relation SoA operations.

A partitioned relation -- every workload input, and every shuffle's
output -- is held as flat structure-of-arrays columns (``keys``,
``payloads``) plus a ``segments`` offset array, one segment per memory
partition (:class:`SegmentedColumns`).  The kernels here perform
the per-partition work of the hot operators as single whole-relation
numpy operations: a segmented stable sort is one composite
``(segment, key)`` sort instead of hundreds of partition-sized
argsorts (integer sorts pack the sort code and a row tie-breaker into
one machine word and run numpy's SIMD *value* sort, reading the stable
order off the low bits, and the bitonic run pass runs only on blocks
whose equal keys it can reorder), segmented aggregation is a handful of
``bincount`` / ``reduceat`` / row-sum calls, and the batched shuffle
materialization builds every destination partition with one
gather/scatter pass.

These kernels are the only production execution path.  Every one is
byte-identical to the per-partition reference it replaced, kept in
:mod:`repro.operators.reference`; ``tests/test_reference_equivalence.py``
pins the operators and the shuffle against those references, and
``tests/test_columnar.py`` pins each kernel on its own.
"""

from repro.columnar.kernels import (
    segment_ids,
    segmented_mergesort,
    segmented_searchsorted,
    segmented_sorted_groups,
    segmented_stable_argsort,
    sorted_group_aggregates,
    stable_argsort,
)
from repro.columnar.soa import SegmentedColumns

__all__ = [
    "SegmentedColumns",
    "segment_ids",
    "segmented_mergesort",
    "segmented_searchsorted",
    "segmented_sorted_groups",
    "segmented_stable_argsort",
    "sorted_group_aggregates",
    "stable_argsort",
]
