"""The operator <-> core-model interface.

A :class:`WorkProfile` describes the dynamic work of one phase *per
compute unit* in machine-independent terms; a :class:`MemEnvironment`
describes what the memory system offers that unit.  Together they are all
a core model needs.

Field conventions:

- ``instructions`` counts the scalar dynamic instructions of the phase
  (loads/stores included), the quantity the paper multiplies by IPC.
- ``simd_ops`` counts element operations that a SIMD unit could absorb
  (compare/merge/aggregate steps on tuples).  Scalar machines execute
  them inside ``instructions``; the Mondrian model replaces their scalar
  cost with wide operations.
- ``dep_ilp`` is the instruction-level parallelism the phase's dependency
  structure exposes (1.0 = a serial chain; histogram maintenance in the
  partitioning phase is the canonical low-ILP offender, section 7.1).
- ``mem_parallelism`` is the number of *independent* concurrent memory
  accesses the algorithm exposes (hash probes to independent keys are
  plentiful; a single merge cursor is 1 per stream).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class WorkProfile:
    """Dynamic work of one phase on one compute unit."""

    name: str
    instructions: float
    simd_ops: float = 0.0
    dep_ilp: float = 2.0
    mem_parallelism: float = 8.0
    rand_reads: float = 0.0
    rand_writes: float = 0.0
    rand_access_b: int = 64
    seq_read_b: float = 0.0
    seq_write_b: float = 0.0
    remote_fraction: float = 0.0
    simd_vectorizable: bool = False

    def __post_init__(self) -> None:
        if self.instructions < 0 or self.simd_ops < 0:
            raise ValueError("work counts must be non-negative")
        if self.dep_ilp <= 0:
            raise ValueError("dep_ilp must be positive")
        if self.mem_parallelism <= 0:
            raise ValueError("mem_parallelism must be positive")
        if not 0.0 <= self.remote_fraction <= 1.0:
            raise ValueError("remote_fraction must be in [0, 1]")
        for name in ("rand_reads", "rand_writes", "seq_read_b", "seq_write_b"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def rand_accesses(self) -> float:
        return self.rand_reads + self.rand_writes

    @property
    def total_bytes(self) -> float:
        return (
            self.rand_accesses * self.rand_access_b + self.seq_read_b + self.seq_write_b
        )


@dataclass(frozen=True)
class MemEnvironment:
    """What the memory system offers one compute unit.

    Latencies are average load-to-use times for cache-block/object-sized
    random accesses; bandwidths are the per-unit sustainable rates the
    DRAM analytic model and the topology derive (device-side limits --
    the core model applies its own MLP limit on top).
    """

    rand_latency_ns: float
    seq_bw_bps: float
    rand_bw_bps: float
    remote_extra_latency_ns: float = 0.0

    def __post_init__(self) -> None:
        if self.rand_latency_ns <= 0:
            raise ValueError("latency must be positive")
        if self.seq_bw_bps <= 0 or self.rand_bw_bps <= 0:
            raise ValueError("bandwidths must be positive")
        if self.remote_extra_latency_ns < 0:
            raise ValueError("extra latency must be non-negative")

    def effective_rand_latency_ns(self, remote_fraction: float) -> float:
        return self.rand_latency_ns + remote_fraction * self.remote_extra_latency_ns
