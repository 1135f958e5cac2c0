"""Structure-of-arrays view of a partitioned relation.

The per-partition ``List[Relation]`` representation the operators pass
around is ideal for provenance but terrible for numpy: every kernel
dispatch pays fixed overhead per partition, and structured-dtype
operations (`np.concatenate`, fancy indexing) re-promote the tuple
dtype on every call.  :class:`SegmentedColumns` flattens the list into
two plain ``uint64`` columns plus one ``segments`` offset array, so a
whole-relation kernel replaces hundreds of partition-sized calls.

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
from typing import List, Optional, Sequence

import numpy as np

from repro.analytics.tuples import TUPLE_DTYPE, Relation


def _contiguous_base_slice(parts: Sequence[Relation]) -> Optional[np.ndarray]:
    """The common base slice covering ``parts``, when they are
    consecutive views of one structured array (the ``split_relation``
    layout) -- else ``None``.

    This is what makes :meth:`SegmentedColumns.from_relations` zero-copy
    for workload partitions and shuffle destinations: both are produced
    by slicing a single backing array.
    """
    base = parts[0].data.base
    if base is None or base.dtype != TUPLE_DTYPE or base.ndim != 1:
        return None
    itemsize = base.dtype.itemsize
    # ``ctypes.data`` reads the data pointer without rebuilding the
    # structured dtype's descr, as ``__array_interface__`` does per call.
    base_ptr = base.ctypes.data
    expected = None
    start0 = 0
    total = 0
    for part in parts:
        data = part.data
        if data.base is not base or data.dtype != TUPLE_DTYPE or data.ndim != 1:
            return None
        if len(data) and data.strides != (itemsize,):
            return None
        offset = data.ctypes.data - base_ptr
        if offset % itemsize:
            return None
        start = offset // itemsize
        if expected is None:
            start0 = start
        elif start != expected:
            return None
        expected = start + len(data)
        total += len(data)
    return base[start0 : start0 + total]


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
    def from_relations(cls, parts: Sequence[Relation]) -> "SegmentedColumns":
        """Flatten per-partition relations into segmented columns.

        Zero-copy when the partitions are consecutive slices of one
        backing structured array (workload partitions from
        ``split_relation``, destinations from the segmented shuffle);
        otherwise the tuples are concatenated once.
        """
        segments = np.zeros(len(parts) + 1, dtype=np.int64)
        if parts:
            np.cumsum([len(p) for p in parts], out=segments[1:])
            flat = _contiguous_base_slice(parts)
            if flat is None:
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

    def to_relations(self, name: str = "segment") -> List[Relation]:
        """Per-segment relations, as slices of one shared buffer."""
        struct = self.to_struct()
        return [
            Relation(struct[self.segments[i] : self.segments[i + 1]], f"{name}/{i}")
            for i in range(self.num_segments)
        ]
