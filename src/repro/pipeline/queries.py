"""Canonical multi-operator query shapes.

Three plans, chosen to stress the three behaviours a single-operator
evaluation (the paper's) never composes:

- **fk-join-aggregate** -- Join then Group by then Sort: the Spark
  "join facts to dimensions, aggregate, rank" backbone.  The join's
  output feeds the group-by directly, so partitioning work appears twice
  and random-vs-sequential probe choices compound.
- **sort-then-scan** -- Sort then key-lookup Scan: index-build-then-probe.
  Sorting dominates; the scan shows how cheap a streaming pass is after
  the expensive reorganization.
- **skewed-partition-join** -- skew-aware repartition (two-round
  protocol, section 5.4) ahead of an FK join over a Zipf-popular fact
  table: the pipeline the paper's uniform-data evaluation deliberately
  deferred.  The partition stage contributes the rebalancing shuffle's
  cost and metadata (imbalance before/after, buckets split); the join
  then pays its own partitioning as always, so the query measures what
  skew management *adds* to an end-to-end plan.

Payloads are drawn below 2**32 so every chained aggregate stays exact in
float64 and fits the 8-byte payload of downstream stages.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.analytics.tuples import Relation
from repro.pipeline.plan import QueryPlan
from repro.pipeline.stage import (
    GroupByStage,
    JoinStage,
    PartitionStage,
    ScanStage,
    SortStage,
)

#: Keys fit in 48 bits (matches the workload generators' default).
KEY_SPACE_BITS = 48
#: Payloads < 2**32 keep chained sums exact (see module docstring).
PAYLOAD_BITS = 32


def _unique_keys(rng: np.random.Generator, n: int, bits: int) -> np.ndarray:
    candidates = np.unique(rng.integers(0, 1 << bits, size=n * 2 + 16, dtype=np.uint64))
    if len(candidates) < n:
        raise ValueError("key space too small for the requested unique keys")
    return rng.permutation(candidates)[:n].astype(np.uint64)


def _payloads(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(0, 1 << PAYLOAD_BITS, size=n, dtype=np.uint64)


def make_fk_tables(
    n_r: int,
    n_s: int,
    seed: int = 17,
    zipf_alpha: Optional[float] = None,
) -> Tuple[Relation, Relation]:
    """``users`` (unique keys) and ``events`` (FK into users).

    Event popularity is uniform over the users by default; with
    ``zipf_alpha`` set, events follow Zipf(``zipf_alpha``) popularity --
    the skew regime that overloads low-order-bit bucketing.  The one
    generator serves the canonical queries and the examples so the FK
    invariants (unique R keys, payloads < 2**PAYLOAD_BITS) live in one
    place.
    """
    rng = np.random.default_rng(seed)
    user_keys = _unique_keys(rng, n_r, KEY_SPACE_BITS)
    users = Relation.from_arrays(user_keys, _payloads(rng, n_r), "users")
    if zipf_alpha is None:
        event_keys = rng.choice(user_keys, size=n_s).astype(np.uint64)
    else:
        ranks = np.arange(1, n_r + 1, dtype=np.float64)
        weights = ranks ** (-zipf_alpha)
        weights /= weights.sum()
        event_keys = rng.choice(user_keys, size=n_s, p=weights).astype(np.uint64)
    events = Relation.from_arrays(event_keys, _payloads(rng, n_s), "events")
    return users, events


def fk_join_aggregate(n_r: int, n_s: int, num_partitions: int, seed: int) -> QueryPlan:
    """Join(users, events) -> GroupBy(sum) -> Sort: the headline pipeline.

    ``users`` holds unique keys (the FK target); every ``events`` tuple
    references one user.  The aggregate sums event spend per user and the
    sort ranks the totals.
    """
    users, events = make_fk_tables(n_r, n_s, seed=seed)
    return QueryPlan(
        name="fk-join-aggregate",
        tables={"users": users, "events": events},
        stages=[
            JoinStage("users", "events", "enriched"),
            GroupByStage("enriched", "spend_per_user", aggregate="sum"),
            SortStage("spend_per_user", "ranked"),
        ],
        num_partitions=num_partitions,
        key_space_bits=KEY_SPACE_BITS,
        description="FK join, per-key sum, rank (Spark join+aggregate+sort)",
    )


def sort_then_scan(n: int, num_partitions: int, seed: int) -> QueryPlan:
    """Sort(events) -> Scan(sorted, key): index build then point lookup."""
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 1 << KEY_SPACE_BITS, size=n, dtype=np.uint64)
    events = Relation.from_arrays(keys, _payloads(rng, n), "events")
    search_key = int(keys[int(rng.integers(0, n))])
    return QueryPlan(
        name="sort-then-scan",
        tables={"events": events},
        stages=[
            SortStage("events", "sorted_events"),
            ScanStage("sorted_events", "hits", key=search_key),
        ],
        num_partitions=num_partitions,
        key_space_bits=KEY_SPACE_BITS,
        description="global sort followed by a streaming key lookup",
    )


def skewed_partition_join(
    n_r: int, n_s: int, num_partitions: int, seed: int
) -> QueryPlan:
    """Skew-aware repartition of a Zipf fact table, then FK join.

    Event keys follow Zipf(1.2) popularity over the user keys, the
    regime where low-order-bit bucketing overflows hot vaults.  The
    partition stage charges the two-round rebalance (section 5.4) --
    histogram, rebalance retry, distribution -- as an explicit shuffle
    stage ahead of the join; the join still performs its own
    partitioning over the redistributed table (see
    :class:`~repro.pipeline.stage.PartitionStage`), so the pipeline
    totals show the *added* cost of managing skew end-to-end.
    """
    users, events = make_fk_tables(n_r, n_s, seed=seed, zipf_alpha=1.2)
    return QueryPlan(
        name="skewed-partition-join",
        tables={"users": users, "events": events},
        stages=[
            PartitionStage("events", "events_balanced", skew_aware=True),
            JoinStage("users", "events_balanced", "enriched"),
        ],
        num_partitions=num_partitions,
        key_space_bits=KEY_SPACE_BITS,
        description="two-round skew rebalance, then FK join",
    )


#: Name -> builder, the registry the experiments layer iterates.
CANONICAL_QUERIES: Dict[str, Callable[..., QueryPlan]] = {
    "fk-join-aggregate": fk_join_aggregate,
    "sort-then-scan": sort_then_scan,
    "skewed-partition-join": skewed_partition_join,
}

#: Functional sizes per canonical query (the one source of them): small
#: enough for pure-Python execution, extrapolated by ``model_scale``
#: exactly like the standalone operators, and kept below the
#: single-operator sizes because a pipeline executes several operators
#: per machine.  Shared by the ``pipeline_queries`` experiment
#: and the scenario API's query scenarios, so both evaluate the same
#: points.
CANONICAL_QUERY_SIZES: Dict[str, Dict[str, int]] = {
    "fk-join-aggregate": {"n_r": 4_000, "n_s": 16_000},
    "sort-then-scan": {"n": 16_000},
    "skewed-partition-join": {"n_r": 4_000, "n_s": 16_000},
}
