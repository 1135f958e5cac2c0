"""Skewed-key workload generation (the paper's deferred future work).

Section 5.4: a vault that learns during shuffle_begin that its inbound
data overflows the destination buffer raises an exception, and "the
histogram build of the partitioning phase should be retried with a
second round of partitioning in order to balance the resulting
partitions' sizes.  We focus on uniform data distributions ... and defer
support for skewed datasets to future work."

This module provides the workloads that trigger the problem: Zipf-like
key popularity, under which low-order-bit bucketing concentrates tuples
on few vaults.  :mod:`repro.operators.skew` implements the two-round
rebalancing fix.
"""

from __future__ import annotations

import numpy as np

from repro.analytics.tuples import Relation
from repro.analytics.workload import (
    DEFAULT_KEY_SPACE_BITS,
    GroupByWorkload,
    _payloads,
    _placed,
)


def zipf_keys(
    rng: np.random.Generator,
    n: int,
    num_distinct: int,
    alpha: float,
    key_space_bits: int,
) -> np.ndarray:
    """Draw ``n`` keys from ``num_distinct`` values with Zipf(alpha)
    popularity.

    The distinct key *values* are uniform over the key space (so range
    partitioning stays balanced); only their *frequencies* are skewed --
    the regime that breaks hash partitioning.
    """
    if n < 1 or num_distinct < 1:
        raise ValueError("need at least one tuple and one distinct key")
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    ranks = np.arange(1, num_distinct + 1, dtype=np.float64)
    weights = ranks ** (-alpha)
    weights /= weights.sum()
    values = rng.integers(0, 1 << key_space_bits, num_distinct, dtype=np.uint64)
    values = np.unique(values)
    weights = weights[: len(values)]
    weights /= weights.sum()
    return rng.choice(values, size=n, p=weights).astype(np.uint64)


def make_skewed_groupby_workload(
    n: int,
    num_partitions: int = 64,
    alpha: float = 1.2,
    num_distinct: int = None,
    seed: int = 0,
) -> GroupByWorkload:
    """Group-by workload with Zipf(alpha) key popularity.

    With alpha around 1, a handful of hot keys hold a large fraction of
    the tuples, so the hash shuffle funnels them into few partitions.
    """
    rng = np.random.default_rng(seed)
    if num_distinct is None:
        num_distinct = max(1, n // 4)
    keys = zipf_keys(rng, n, num_distinct, alpha, DEFAULT_KEY_SPACE_BITS)
    relation = Relation.from_arrays(keys, _payloads(rng, n), "skewed_groupby_input")
    return GroupByWorkload(
        flat=_placed(relation, num_partitions), key_space_bits=DEFAULT_KEY_SPACE_BITS
    )


def partition_imbalance(sizes) -> float:
    """Max-to-mean partition size ratio (1.0 = perfectly balanced)."""
    sizes = np.asarray(list(sizes), dtype=np.float64)
    if len(sizes) == 0 or sizes.sum() == 0:
        raise ValueError("need non-empty partitions")
    return float(sizes.max() / sizes.mean())
