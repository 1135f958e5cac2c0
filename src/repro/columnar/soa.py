"""Structure-of-arrays view of a partitioned relation.

A partitioned relation is held as :class:`SegmentedColumns`: two plain
``uint64`` columns plus one ``segments`` offset array, segment ``i``
being memory partition ``i``.  A whole-relation kernel then replaces
hundreds of partition-sized calls; a per-partition ``List[Relation]``
would pay fixed numpy dispatch overhead per partition and re-promote the
structured tuple dtype on every concatenation or fancy index.  Workload
inputs are built with :meth:`SegmentedColumns.split` (zero-copy views of
the source relation); :meth:`SegmentedColumns.from_relations`
concatenates independent relations once.

Invariants:

- ``segments`` is a non-decreasing ``int64`` array with
  ``segments[0] == 0`` and ``segments[-1] == len(keys)``; segment ``i``
  is the half-open row range ``[segments[i], segments[i+1])``.
- ``keys`` and ``payloads`` are parallel 1-D arrays (they may be strided
  field views of one structured tuple array -- kernels never assume
  contiguity).
- Empty and singleton segments are legal everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.analytics.tuples import TUPLE_DTYPE, Relation


@dataclass(frozen=True)
class SegmentedColumns:
    """Flat SoA columns of a partitioned relation plus segment offsets."""

    keys: np.ndarray
    payloads: np.ndarray
    segments: np.ndarray

    def __post_init__(self) -> None:
        if self.keys.shape != self.payloads.shape:
            raise ValueError("keys and payloads must be parallel")
        segments = self.segments
        if len(segments) < 1 or segments[0] != 0 or segments[-1] != len(self.keys):
            raise ValueError("segments must span [0, len(keys)]")
        if np.any(np.diff(segments) < 0):
            raise ValueError("segments must be non-decreasing")

    # -- construction ------------------------------------------------------

    @classmethod
    def split(cls, relation: Relation, num_partitions: int) -> "SegmentedColumns":
        """The paper's initial placement of an input relation.

        Input relations start "randomly distributed across multiple
        memory partitions": ``relation`` is cut into ``num_partitions``
        near-equal contiguous segments, one per vault.  Zero-copy: the
        columns are field views of ``relation.data``.
        """
        if num_partitions < 1:
            raise ValueError("need at least one partition")
        bounds = np.linspace(0, len(relation), num_partitions + 1).astype(np.int64)
        data = relation.data
        return cls(keys=data["key"], payloads=data["payload"], segments=bounds)

    @classmethod
    def from_relations(cls, parts: Sequence[Relation]) -> "SegmentedColumns":
        """Concatenate independent relations, one segment each."""
        segments = np.zeros(len(parts) + 1, dtype=np.int64)
        if parts:
            np.cumsum([len(p) for p in parts], out=segments[1:])
            flat = np.concatenate([p.data for p in parts])
        else:
            flat = np.empty(0, dtype=TUPLE_DTYPE)
        return cls(keys=flat["key"], payloads=flat["payload"], segments=segments)

    # -- shape -------------------------------------------------------------

    @property
    def num_segments(self) -> int:
        return len(self.segments) - 1

    @property
    def total(self) -> int:
        return int(self.segments[-1])

    def segment_lengths(self) -> np.ndarray:
        return np.diff(self.segments)

    def segment_ids(self) -> np.ndarray:
        """Per-row segment index (``int64``, length ``total``)."""
        return np.repeat(
            np.arange(self.num_segments, dtype=np.int64), self.segment_lengths()
        )

    # -- materialization ---------------------------------------------------

    def to_struct(self) -> np.ndarray:
        """One structured tuple array, allocated once with the final
        dtype and written field-wise (no structured-dtype promotion)."""
        out = np.empty(len(self.keys), dtype=TUPLE_DTYPE)
        out["key"] = self.keys
        out["payload"] = self.payloads
        return out
