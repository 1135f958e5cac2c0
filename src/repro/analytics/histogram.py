"""Histogram build -- the first step of partitioning.

Every operator with a partitioning phase starts by counting how many
tuples hash to each destination (Table 2's "Histogram build"), then
prefix-sums those counts into exact destination offsets for the
data-distribution step.  :func:`build_histogram` counts a whole
relation's destinations in one call.
"""

from __future__ import annotations

import numpy as np


def build_histogram(buckets: np.ndarray, num_buckets: int) -> np.ndarray:
    """Tuple count per destination bucket."""
    if num_buckets <= 0:
        raise ValueError("num_buckets must be positive")
    buckets = np.asarray(buckets)
    if len(buckets) and (buckets.min() < 0 or buckets.max() >= num_buckets):
        raise ValueError("bucket ids out of range")
    return np.bincount(buckets, minlength=num_buckets).astype(np.int64)
