"""Histogram build -- the first step of partitioning.

Every operator with a partitioning phase starts by counting how many
tuples hash to each destination (Table 2's "Histogram build"), then
prefix-sums those counts into exact destination offsets for the
data-distribution step.  :func:`build_histogram` counts a whole
relation's destinations in one call; :func:`source_write_offsets` gives
the per-source write offsets the reference shuffle
(:func:`repro.operators.reference.reference_shuffle`) walks.
"""

from __future__ import annotations

from typing import List

import numpy as np


def build_histogram(buckets: np.ndarray, num_buckets: int) -> np.ndarray:
    """Tuple count per destination bucket."""
    if num_buckets <= 0:
        raise ValueError("num_buckets must be positive")
    buckets = np.asarray(buckets)
    if len(buckets) and (buckets.min() < 0 or buckets.max() >= num_buckets):
        raise ValueError("bucket ids out of range")
    return np.bincount(buckets, minlength=num_buckets).astype(np.int64)


def source_write_offsets(per_source: List[np.ndarray]) -> List[np.ndarray]:
    """Exact write offset of each (source, destination) pair.

    Source ``s`` writes its tuples for destination ``d`` at
    ``sum over earlier sources of their d-counts`` plus the destination's
    base -- the addressed (non-permutable) partitioning needs these exact
    addresses, which is precisely the dependency-heavy bookkeeping the
    permutable path eliminates.
    """
    if not per_source:
        raise ValueError("need at least one source histogram")
    num_buckets = len(per_source[0])
    running = np.zeros(num_buckets, dtype=np.int64)
    offsets = []
    for hist in per_source:
        hist = np.asarray(hist, dtype=np.int64)
        if len(hist) != num_buckets:
            raise ValueError("histograms must have equal bucket counts")
        offsets.append(running.copy())
        running += hist
    return offsets
