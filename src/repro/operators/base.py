"""Operator/phase result types -- the operator <-> system interface.

An operator run produces a list of :class:`PhaseCost` records (one per
algorithmic phase, Table 2's rows) plus a functional output.  PhaseCost
aggregates machine-independent work totals *across the whole machine*;
the systems layer divides them over compute units, feeds the core
models, constructs the DRAM access patterns and applies network limits.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List

import numpy as np

from repro.analytics.tuples import TUPLE_B
from repro.config.system import INTERLEAVE_MODELS, INTERLEAVE_ROUND_ROBIN
from repro.faults.plan import NULL_FAULTS, FaultSpec

#: Phase categories (Table 2 columns).
PHASE_HISTOGRAM = "histogram"
PHASE_DISTRIBUTE = "distribute"
PHASE_PROBE = "probe"


@dataclass(frozen=True)
class PhaseCost:
    """Aggregate dynamic work of one phase across all data.

    Memory quantities are split by pattern class:

    - ``seq_read_b`` / ``seq_write_b``: bytes streamed sequentially in the
      compute unit's local partition;
    - ``rand_reads`` / ``rand_writes``: random accesses of
      ``rand_access_b`` bytes over a ``rand_region_b``-byte local region;
    - ``shuffle_b``: bytes crossing memory partitions (the network sees
      them; destinations see interleaved ``object_b``-sized writes,
      permutable or addressed per ``permutable_writes``).
    """

    name: str
    category: str
    instructions: float
    simd_ops: float = 0.0
    dep_ilp: float = 2.0
    mem_parallelism: float = 8.0
    simd_vectorizable: bool = False
    rand_reads: float = 0.0
    rand_writes: float = 0.0
    rand_access_b: int = 64
    rand_region_b: int = 1 << 29
    seq_read_b: float = 0.0
    seq_write_b: float = 0.0
    shuffle_b: float = 0.0
    object_b: int = TUPLE_B
    permutable_writes: bool = False
    #: Bytes re-sent over the network (retries + discarded duplicates)
    #: by the fault-injection retry protocol; wire + SerDes cost, no
    #: destination DRAM commit (drops are lost, duplicates discarded).
    retry_shuffle_b: float = 0.0
    #: Retry/timeout backoff and straggler stall, expressed as byte-time
    #: at shuffle egress bandwidth so the interconnect cap prices it.
    backoff_stall_b: float = 0.0
    notes: str = ""

    def __post_init__(self) -> None:
        if self.category not in (PHASE_HISTOGRAM, PHASE_DISTRIBUTE, PHASE_PROBE):
            raise ValueError(f"unknown phase category {self.category!r}")
        for attr in (
            "instructions",
            "simd_ops",
            "rand_reads",
            "rand_writes",
            "seq_read_b",
            "seq_write_b",
            "shuffle_b",
            "retry_shuffle_b",
            "backoff_stall_b",
        ):
            if getattr(self, attr) < 0:
                raise ValueError(f"{attr} must be non-negative")

    @property
    def is_partitioning(self) -> bool:
        return self.category in (PHASE_HISTOGRAM, PHASE_DISTRIBUTE)

    @property
    def total_bytes(self) -> float:
        return (
            self.seq_read_b
            + self.seq_write_b
            + self.shuffle_b
            + (self.rand_reads + self.rand_writes) * self.rand_access_b
        )


@dataclass(frozen=True, eq=False)
class PartitionPass:
    """What a fault schedule needs to price one partitioning pass.

    The retry protocol's work is a function of the per-stream tuple
    counts alone, never of tuple contents, so a pass keeps its
    ``(source, destination)`` histogram and no tuples.
    """

    #: Phase-name prefix (``""``, ``"R-"``, ``"S-"``); it also salts the
    #: pass's fault schedule.
    label: str
    #: ``(source, destination)`` tuple counts, in the narrowest unsigned
    #: dtype that holds them.
    histogram: np.ndarray
    #: Tuples the cost model describes (functional count x model scale).
    n_model: int


@dataclass
class OperatorRun:
    """The outcome of functionally executing one operator variant."""

    operator: str
    variant: str
    phases: List[PhaseCost]
    output: Any
    metadata: Dict[str, Any] = field(default_factory=dict)
    #: The run's partitioning passes, in phase order, for pricing a
    #: fault schedule onto the run
    #: (:func:`repro.operators.partition.price_faults`).
    passes: List[PartitionPass] = field(default_factory=list)

    def phase(self, name: str) -> PhaseCost:
        for p in self.phases:
            if p.name == name:
                return p
        raise KeyError(f"no phase named {name!r} in {self.operator}/{self.variant}")


@dataclass(frozen=True)
class OperatorVariant:
    """How an operator should be executed on a given machine.

    - ``radix_bits``: partitioning hash width (paper: 16 low-order bits
      on the CPU, 6 bits -- one per vault -- on the NMP machines).
    - ``probe_algorithm``: ``"hash"`` or ``"sort"``.
    - ``permutable``: partitioning uses permutable stores.
    - ``simd``: probe/partition loops are written for the wide SIMD unit
      (Mondrian); controls which phases are marked vectorizable.
    """

    radix_bits: int
    probe_algorithm: str
    permutable: bool
    simd: bool
    num_partitions: int
    #: Local in-partition sort used by the Sort operator's probe phase:
    #: quicksort on the CPU, mergesort on the NMP machines (section 6).
    local_sort: str = "mergesort"
    #: Arrival-order model of the shuffle network (see
    #: ``repro.shuffle.interleave.NAMED_INTERLEAVES``).
    interleave: str = INTERLEAVE_ROUND_ROBIN
    #: Deterministic fault schedule replayed through the shuffle barrier
    #: (:mod:`repro.faults`); the default injects nothing.
    faults: FaultSpec = NULL_FAULTS

    def __post_init__(self) -> None:
        if not isinstance(self.faults, FaultSpec):
            raise TypeError("faults must be a FaultSpec")
        if self.probe_algorithm not in ("hash", "sort"):
            raise ValueError(f"unknown probe algorithm {self.probe_algorithm!r}")
        if self.local_sort not in ("quicksort", "mergesort"):
            raise ValueError(f"unknown local sort {self.local_sort!r}")
        if self.interleave not in INTERLEAVE_MODELS:
            raise ValueError(f"unknown interleave model {self.interleave!r}")
        if self.radix_bits < 1:
            raise ValueError("radix_bits must be >= 1")
        if self.num_partitions < 1:
            raise ValueError("need at least one partition")

    @property
    def fault_free(self) -> "OperatorVariant":
        """This variant without its fault schedule: the one whose run
        every fault schedule prices (the functional output never
        depends on the schedule)."""
        return replace(self, faults=NULL_FAULTS)

    @property
    def label(self) -> str:
        parts = [
            self.probe_algorithm,
            "perm" if self.permutable else "addr",
            "simd" if self.simd else "scalar",
        ]
        return "-".join(parts)
