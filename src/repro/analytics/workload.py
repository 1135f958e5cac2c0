"""Workload generators matching the paper's evaluation setup.

- 16-byte tuples (8 B key / 8 B payload), uniform key distribution.
- Join: foreign-key relationship -- every tuple of the large relation S
  finds exactly one match in R.
- Group by: average group size of four tuples.
- Input data "initially randomly distributed across multiple memory
  partitions": each input relation is held as one
  :class:`~repro.columnar.soa.SegmentedColumns` view, one segment per
  partition.

Keys are drawn from a bounded key space (``key_space_bits``) so that
high-order-bit range partitioning (Sort) has a known universe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.analytics.tuples import Relation

if TYPE_CHECKING:  # pragma: no cover -- see _placed
    from repro.columnar.soa import SegmentedColumns


def _placed(relation: Relation, num_partitions: int) -> "SegmentedColumns":
    """``relation`` in its initial placement
    (:meth:`~repro.columnar.soa.SegmentedColumns.split`).

    Imported lazily: ``repro.columnar.soa`` imports this package's
    ``tuples`` module, so a top-level import here would close an import
    cycle for any process whose *first* import is ``repro.columnar``.
    """
    from repro.columnar.soa import SegmentedColumns

    return SegmentedColumns.split(relation, num_partitions)


#: Keys fit in 48 bits by default, leaving high bits predictably zero-free.
DEFAULT_KEY_SPACE_BITS = 48


def _uniform_keys(rng: np.random.Generator, n: int, key_space_bits: int) -> np.ndarray:
    if not 1 <= key_space_bits <= 63:
        raise ValueError("key_space_bits must be in [1, 63]")
    return rng.integers(0, 1 << key_space_bits, size=n, dtype=np.uint64)


def _payloads(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(0, 1 << 63, size=n, dtype=np.uint64)


@dataclass(frozen=True)
class _OneRelation:
    """A workload over one partitioned relation, ``flat`` (one segment
    per memory partition)."""

    flat: "SegmentedColumns"

    @property
    def num_partitions(self) -> int:
        """Memory partitions this workload was generated across."""
        return self.flat.num_segments

    @property
    def total_tuples(self) -> int:
        return self.flat.total


@dataclass(frozen=True)
class ScanWorkload(_OneRelation):
    """Scan for one key over a partitioned relation."""

    search_key: int
    key_space_bits: int


@dataclass(frozen=True)
class SortWorkload(_OneRelation):
    """Sort a partitioned relation by key."""

    key_space_bits: int


@dataclass(frozen=True)
class GroupByWorkload(_OneRelation):
    """Group a relation by key and aggregate payloads."""

    key_space_bits: int


@dataclass(frozen=True)
class JoinWorkload:
    """R join S under a foreign-key constraint."""

    r_flat: "SegmentedColumns"
    s_flat: "SegmentedColumns"
    key_space_bits: int

    @property
    def num_partitions(self) -> int:
        """Memory partitions this workload was generated across (both
        relations are split the same way)."""
        return self.r_flat.num_segments

    @property
    def n_r(self) -> int:
        return self.r_flat.total

    @property
    def n_s(self) -> int:
        return self.s_flat.total

    @property
    def total_tuples(self) -> int:
        return self.n_r + self.n_s


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
        flat=_placed(relation, num_partitions),
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
        flat=_placed(relation, num_partitions), key_space_bits=key_space_bits
    )


def make_groupby_workload(
    n: int,
    num_partitions: int = 64,
    avg_group_size: float = 4.0,
    seed: int = 0,
) -> GroupByWorkload:
    """Uniform keys drawn from ``n / avg_group_size`` distinct values."""
    if avg_group_size < 1:
        raise ValueError("average group size must be >= 1")
    rng = np.random.default_rng(seed)
    num_groups = max(1, int(round(n / avg_group_size)))
    group_keys = np.unique(_uniform_keys(rng, num_groups, DEFAULT_KEY_SPACE_BITS))
    keys = rng.choice(group_keys, size=n).astype(np.uint64)
    relation = Relation.from_arrays(keys, _payloads(rng, n), "groupby_input")
    return GroupByWorkload(
        flat=_placed(relation, num_partitions),
        key_space_bits=DEFAULT_KEY_SPACE_BITS,
    )


def make_join_workload(
    n_r: int,
    n_s: int,
    num_partitions: int = 64,
    seed: int = 0,
) -> JoinWorkload:
    """Foreign-key join inputs: R has unique keys, S draws from R's keys."""
    if n_r < 1 or n_s < 1:
        raise ValueError("both relations need at least one tuple")
    rng = np.random.default_rng(seed)
    # Draw extra candidates to survive deduplication, then trim.
    candidates = np.unique(_uniform_keys(rng, n_r * 2 + 16, DEFAULT_KEY_SPACE_BITS))
    if len(candidates) < n_r:
        raise ValueError("key space too small for the requested unique keys")
    r_keys = rng.permutation(candidates)[:n_r].astype(np.uint64)
    s_keys = rng.choice(r_keys, size=n_s).astype(np.uint64)
    r_rel = Relation.from_arrays(r_keys, _payloads(rng, n_r), "R")
    s_rel = Relation.from_arrays(s_keys, _payloads(rng, n_s), "S")
    return JoinWorkload(
        r_flat=_placed(r_rel, num_partitions),
        s_flat=_placed(s_rel, num_partitions),
        key_space_bits=DEFAULT_KEY_SPACE_BITS,
    )
