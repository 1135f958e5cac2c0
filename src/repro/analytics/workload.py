"""Workload generators matching the paper's evaluation setup.

- 16-byte tuples (8 B key / 8 B payload), uniform key distribution.
- Join: foreign-key relationship -- every tuple of the large relation S
  finds exactly one match in R.
- Group by: average group size of four tuples.
- Input data "initially randomly distributed across multiple memory
  partitions": generators return per-partition slices.

Keys are drawn from a bounded key space (``key_space_bits``) so that
high-order-bit range partitioning (Sort) has a known universe.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, List

import numpy as np

from repro.analytics.tuples import Relation

if TYPE_CHECKING:  # pragma: no cover -- see _flat_columns
    from repro.columnar.soa import SegmentedColumns


def _flat_columns(partitions: List[Relation]) -> "SegmentedColumns":
    """Flatten partitions into a zero-copy SoA view.

    Imported lazily: ``repro.columnar.soa`` imports this package's
    ``tuples`` module, so a top-level import here would close an import
    cycle for any process whose *first* import is ``repro.columnar``.
    """
    from repro.columnar.soa import SegmentedColumns

    return SegmentedColumns.from_relations(partitions)

#: Keys fit in 48 bits by default, leaving high bits predictably zero-free.
DEFAULT_KEY_SPACE_BITS = 48


def _uniform_keys(rng: np.random.Generator, n: int, key_space_bits: int) -> np.ndarray:
    if not 1 <= key_space_bits <= 63:
        raise ValueError("key_space_bits must be in [1, 63]")
    return rng.integers(0, 1 << key_space_bits, size=n, dtype=np.uint64)


def _payloads(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(0, 1 << 63, size=n, dtype=np.uint64)


def split_relation(relation: Relation, num_partitions: int) -> List[Relation]:
    """Split a relation into near-equal contiguous partition slices.

    This is the paper's initial data placement: input relations start
    "randomly distributed across multiple memory partitions", one slice
    per vault.  Workload constructors and the pipeline subsystem both use
    it to turn a whole relation into the per-partition lists operators
    consume.
    """
    if num_partitions < 1:
        raise ValueError("need at least one partition")
    bounds = np.linspace(0, len(relation), num_partitions + 1).astype(int)
    return [
        relation.slice(bounds[i], bounds[i + 1], f"{relation.name}/p{i}")
        for i in range(num_partitions)
    ]



@dataclass(frozen=True)
class ScanWorkload:
    """Scan for one key over a partitioned relation."""

    partitions: List[Relation]
    search_key: int
    key_space_bits: int

    @property
    def num_partitions(self) -> int:
        """Memory partitions this workload was generated across."""
        return len(self.partitions)

    @cached_property
    def total_tuples(self) -> int:
        """Total tuples, summed once and cached (partition lists are
        frozen with the dataclass, so the sum can never go stale)."""
        return sum(len(p) for p in self.partitions)

    @cached_property
    def flat(self) -> "SegmentedColumns":
        """Zero-copy SoA view over all partitions (one segment each).

        Workload partitions come from :func:`split_relation`, i.e. they
        are consecutive slices of one backing array, so flattening them
        copies nothing; segmented operators consume this view instead of
        looping the partition list.
        """
        return _flat_columns(self.partitions)


@dataclass(frozen=True)
class SortWorkload:
    """Sort a partitioned relation by key."""

    partitions: List[Relation]
    key_space_bits: int

    @property
    def num_partitions(self) -> int:
        """Memory partitions this workload was generated across."""
        return len(self.partitions)

    @cached_property
    def total_tuples(self) -> int:
        """Total tuples, summed once and cached (partition lists are
        frozen with the dataclass, so the sum can never go stale)."""
        return sum(len(p) for p in self.partitions)

    @cached_property
    def flat(self) -> "SegmentedColumns":
        """Zero-copy SoA view over all partitions (one segment each)."""
        return _flat_columns(self.partitions)


@dataclass(frozen=True)
class GroupByWorkload:
    """Group a relation by key and aggregate payloads.

    ``avg_group_size`` tuples share each key on average (the paper's
    modeled query has groups of four).
    """

    partitions: List[Relation]
    key_space_bits: int
    avg_group_size: float

    @property
    def num_partitions(self) -> int:
        """Memory partitions this workload was generated across."""
        return len(self.partitions)

    @cached_property
    def total_tuples(self) -> int:
        """Total tuples, summed once and cached (partition lists are
        frozen with the dataclass, so the sum can never go stale)."""
        return sum(len(p) for p in self.partitions)

    @cached_property
    def flat(self) -> "SegmentedColumns":
        """Zero-copy SoA view over all partitions (one segment each)."""
        return _flat_columns(self.partitions)


@dataclass(frozen=True)
class JoinWorkload:
    """R join S under a foreign-key constraint."""

    r_partitions: List[Relation]
    s_partitions: List[Relation]
    key_space_bits: int

    @property
    def num_partitions(self) -> int:
        """Memory partitions this workload was generated across (both
        relations are split the same way)."""
        return len(self.r_partitions)

    @cached_property
    def total_tuples(self) -> int:
        """Cached: see the note on :attr:`ScanWorkload.total_tuples`."""
        return self.n_r + self.n_s

    @cached_property
    def r_flat(self) -> "SegmentedColumns":
        """Zero-copy SoA view over R's partitions (one segment each)."""
        return _flat_columns(self.r_partitions)

    @cached_property
    def s_flat(self) -> "SegmentedColumns":
        """Zero-copy SoA view over S's partitions (one segment each)."""
        return _flat_columns(self.s_partitions)

    @cached_property
    def n_r(self) -> int:
        return sum(len(p) for p in self.r_partitions)

    @cached_property
    def n_s(self) -> int:
        return sum(len(p) for p in self.s_partitions)


def make_scan_workload(
    n: int,
    num_partitions: int = 64,
    seed: int = 0,
    key_space_bits: int = DEFAULT_KEY_SPACE_BITS,
) -> ScanWorkload:
    """Uniform relation plus a key known to occur at least once."""
    if n < 1:
        raise ValueError("need at least one tuple")
    rng = np.random.default_rng(seed)
    keys = _uniform_keys(rng, n, key_space_bits)
    relation = Relation.from_arrays(keys, _payloads(rng, n), "scan_input")
    search_key = int(keys[rng.integers(0, n)])
    return ScanWorkload(
        partitions=split_relation(relation, num_partitions),
        search_key=search_key,
        key_space_bits=key_space_bits,
    )


def make_sort_workload(
    n: int,
    num_partitions: int = 64,
    seed: int = 0,
    key_space_bits: int = DEFAULT_KEY_SPACE_BITS,
) -> SortWorkload:
    rng = np.random.default_rng(seed)
    relation = Relation.from_arrays(
        _uniform_keys(rng, n, key_space_bits), _payloads(rng, n), "sort_input"
    )
    return SortWorkload(
        partitions=split_relation(relation, num_partitions), key_space_bits=key_space_bits
    )


def make_groupby_workload(
    n: int,
    num_partitions: int = 64,
    avg_group_size: float = 4.0,
    seed: int = 0,
    key_space_bits: int = DEFAULT_KEY_SPACE_BITS,
) -> GroupByWorkload:
    """Uniform keys drawn from ``n / avg_group_size`` distinct values."""
    if avg_group_size < 1:
        raise ValueError("average group size must be >= 1")
    rng = np.random.default_rng(seed)
    num_groups = max(1, int(round(n / avg_group_size)))
    group_keys = np.unique(_uniform_keys(rng, num_groups, key_space_bits))
    keys = rng.choice(group_keys, size=n).astype(np.uint64)
    relation = Relation.from_arrays(keys, _payloads(rng, n), "groupby_input")
    return GroupByWorkload(
        partitions=split_relation(relation, num_partitions),
        key_space_bits=key_space_bits,
        avg_group_size=avg_group_size,
    )


def make_join_workload(
    n_r: int,
    n_s: int,
    num_partitions: int = 64,
    seed: int = 0,
    key_space_bits: int = DEFAULT_KEY_SPACE_BITS,
) -> JoinWorkload:
    """Foreign-key join inputs: R has unique keys, S draws from R's keys."""
    if n_r < 1 or n_s < 1:
        raise ValueError("both relations need at least one tuple")
    rng = np.random.default_rng(seed)
    # Draw extra candidates to survive deduplication, then trim.
    candidates = np.unique(_uniform_keys(rng, n_r * 2 + 16, key_space_bits))
    if len(candidates) < n_r:
        raise ValueError("key space too small for the requested unique keys")
    r_keys = rng.permutation(candidates)[:n_r].astype(np.uint64)
    s_keys = rng.choice(r_keys, size=n_s).astype(np.uint64)
    r_rel = Relation.from_arrays(r_keys, _payloads(rng, n_r), "R")
    s_rel = Relation.from_arrays(s_keys, _payloads(rng, n_s), "S")
    return JoinWorkload(
        r_partitions=split_relation(r_rel, num_partitions),
        s_partitions=split_relation(s_rel, num_partitions),
        key_space_bits=key_space_bits,
    )
