"""Closed-form DRAM estimators for the operators' access-pattern classes.

Three patterns cover everything the data operators generate:

- :class:`SequentialStream` -- streaming reads/writes of a contiguous
  region (mergesort passes, scans, permutable shuffle writes).  Every row
  is activated exactly once.
- :class:`RandomAccesses` -- uniformly random accesses over a region
  (hash-table probes, addressed histogram scatter).  Rows effectively
  never stay open across touches when the region is large.
- :class:`InterleavedWrites` -- the partitioning-phase destination
  traffic: ``num_sources`` senders round-robin object-sized writes into
  disjoint sub-buffers of one vault (paper figure 2).  Whether a row
  survives between two same-stream writes depends on the number of banks
  and on the vault scheduler's reorder window.

Every estimator returns a :class:`PatternEstimate` with the quantities the
energy model (activations, bytes) and the performance model (average
latency, device-side sustainable bandwidth) consume.  The test suite
validates each estimator against the event-accurate
:class:`repro.dram.vault.VaultMemory` on randomized traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from repro.config.dram import DramTiming, HmcGeometry


@dataclass(frozen=True)
class SequentialStream:
    """Contiguous streaming access of ``total_b`` bytes, ``access_b`` at a
    time (``access_b`` defaults to a full row)."""

    total_b: int
    access_b: int = 256
    is_write: bool = False

    def __post_init__(self) -> None:
        if self.total_b < 0 or self.access_b <= 0:
            raise ValueError("bad stream geometry")


@dataclass(frozen=True)
class RandomAccesses:
    """``count`` uniformly random accesses of ``access_b`` bytes over a
    region of ``region_b`` bytes."""

    count: int
    access_b: int
    region_b: int
    is_write: bool = False

    def __post_init__(self) -> None:
        if self.count < 0 or self.access_b <= 0 or self.region_b <= 0:
            raise ValueError("bad random-access geometry")


@dataclass(frozen=True)
class InterleavedWrites:
    """Partitioning-phase destination traffic into one vault.

    ``num_sources`` streams write ``object_b``-sized objects, interleaved
    round-robin by the memory network, each stream into its own
    contiguous sub-buffer.  ``permutable`` selects the Mondrian vault
    controller behaviour (redirect every marked write to the sequential
    tail of the destination buffer).
    """

    total_b: int
    object_b: int
    num_sources: int
    permutable: bool

    def __post_init__(self) -> None:
        if self.total_b < 0 or self.object_b <= 0 or self.num_sources < 1:
            raise ValueError("bad interleaved-write geometry")


AccessPattern = Union[SequentialStream, RandomAccesses, InterleavedWrites]


@dataclass(frozen=True)
class PatternEstimate:
    """What a pattern costs at the DRAM device."""

    accesses: int
    activations: int
    bytes: int
    row_hit_rate: float
    avg_latency_ns: float
    sustainable_bw_bps: float


def _bank_random_bw_bps(geo: HmcGeometry, timing: DramTiming, access_b: int) -> float:
    """Device-side throughput of row-missing accesses.

    Each miss occupies a bank for one row cycle (tRC); the vault's banks
    work in parallel, and the shared bus caps the result at peak.
    """
    per_bank_rate = 1e9 / timing.row_cycle_ns  # misses per second per bank
    bw = per_bank_rate * geo.banks_per_vault * access_b
    return min(bw, geo.vault_peak_bw_bps)


def _estimate_sequential(
    pattern: SequentialStream, geo: HmcGeometry, timing: DramTiming
) -> PatternEstimate:
    rows = math.ceil(pattern.total_b / geo.row_size_b) if pattern.total_b else 0
    accesses = math.ceil(pattern.total_b / pattern.access_b) if pattern.total_b else 0
    activations = min(rows, accesses) if accesses else 0
    hit_rate = 1.0 - activations / accesses if accesses else 0.0
    avg_latency = (
        hit_rate * timing.row_hit_latency_ns
        + (1.0 - hit_rate) * timing.row_miss_latency_ns
    )
    # Streaming engages all banks; internal rate far exceeds the bus, so
    # the vault bus peak is sustainable.
    return PatternEstimate(
        accesses=accesses,
        activations=activations,
        bytes=pattern.total_b,
        row_hit_rate=hit_rate,
        avg_latency_ns=avg_latency,
        sustainable_bw_bps=geo.vault_peak_bw_bps,
    )


def _estimate_random(
    pattern: RandomAccesses, geo: HmcGeometry, timing: DramTiming, scheduler_window: int
) -> PatternEstimate:
    rows_in_region = max(1, pattern.region_b // geo.row_size_b)
    # A row stays open in its bank; a random access hits iff its row is
    # one of the currently open ones, or a same-row request co-resides in
    # the scheduler window.
    p_open = min(1.0, geo.banks_per_vault / rows_in_region)
    p_window = min(1.0, scheduler_window / rows_in_region)
    hit_rate = min(1.0, p_open + p_window)
    # Accesses covering more than one row pay extra activations.
    rows_per_access = math.ceil(pattern.access_b / geo.row_size_b)
    activations = int(round(pattern.count * (1.0 - hit_rate))) * rows_per_access
    avg_latency = (
        hit_rate * timing.row_hit_latency_ns
        + (1.0 - hit_rate) * timing.row_miss_latency_ns
    )
    hit_bw = geo.vault_peak_bw_bps
    miss_bw = _bank_random_bw_bps(geo, timing, pattern.access_b)
    # Harmonic blend: fraction of bytes at each rate.
    if hit_rate >= 1.0:
        bw = hit_bw
    else:
        bw = 1.0 / (hit_rate / hit_bw + (1.0 - hit_rate) / miss_bw)
    return PatternEstimate(
        accesses=pattern.count,
        activations=activations,
        bytes=pattern.count * pattern.access_b,
        row_hit_rate=hit_rate,
        avg_latency_ns=avg_latency,
        sustainable_bw_bps=bw,
    )


def _estimate_interleaved(
    pattern: InterleavedWrites, geo: HmcGeometry, timing: DramTiming, scheduler_window: int
) -> PatternEstimate:
    objects = math.ceil(pattern.total_b / pattern.object_b) if pattern.total_b else 0
    rows = math.ceil(pattern.total_b / geo.row_size_b) if pattern.total_b else 0
    if pattern.permutable or pattern.object_b >= geo.row_size_b:
        # The vault controller writes arrivals sequentially (or the
        # objects are at least row-sized, paper section 5.3): each row is
        # activated exactly once.
        seq = SequentialStream(
            total_b=pattern.total_b, access_b=pattern.object_b, is_write=True
        )
        return _estimate_sequential(seq, geo, timing)

    # Addressed writes: consecutive objects of one stream land in the same
    # row (a row holds row_size/object_b objects) but arrive separated by
    # ~num_sources interleaved messages.  Two recovery mechanisms:
    #
    # - the FR-FCFS window groups ``window // separation`` same-row writes
    #   per row visit (it sees that many of the stream's writes at once);
    # - between visits the row survives in its bank only if none of the
    #   other concurrent streams touched that bank meanwhile, i.e. with
    #   probability (1 - 1/banks)^(num_sources - 1).
    #
    # Cross-validated against the event-accurate vault model in
    # tests/test_dram.py (within 2x across 4..63 sources).
    separation = pattern.num_sources
    objects_per_row = max(1, geo.row_size_b // pattern.object_b)
    group = min(objects_per_row, max(1, scheduler_window // separation))
    visits_per_row = math.ceil(objects_per_row / group)
    p_survive = (1.0 - 1.0 / geo.banks_per_vault) ** (pattern.num_sources - 1)
    acts_per_row = 1.0 + (visits_per_row - 1) * (1.0 - p_survive)
    activations = min(objects, int(round(rows * acts_per_row)))
    hit_rate = 1.0 - activations / objects if objects else 0.0
    avg_latency = (
        hit_rate * timing.row_hit_latency_ns
        + (1.0 - hit_rate) * timing.row_miss_latency_ns
    )
    hit_bw = geo.vault_peak_bw_bps
    miss_bw = _bank_random_bw_bps(geo, timing, pattern.object_b)
    if hit_rate >= 1.0:
        bw = hit_bw
    else:
        bw = 1.0 / (hit_rate / hit_bw + (1.0 - hit_rate) / miss_bw)
    return PatternEstimate(
        accesses=objects,
        activations=activations,
        bytes=pattern.total_b,
        row_hit_rate=hit_rate,
        avg_latency_ns=avg_latency,
        sustainable_bw_bps=bw,
    )


def estimate_pattern(
    pattern: AccessPattern,
    geometry: HmcGeometry,
    timing: DramTiming,
    scheduler_window: int = 16,
) -> PatternEstimate:
    """Estimate DRAM-side cost of one access pattern at one vault."""
    if isinstance(pattern, SequentialStream):
        return _estimate_sequential(pattern, geometry, timing)
    if isinstance(pattern, RandomAccesses):
        return _estimate_random(pattern, geometry, timing, scheduler_window)
    if isinstance(pattern, InterleavedWrites):
        return _estimate_interleaved(pattern, geometry, timing, scheduler_window)
    raise TypeError(f"unknown access pattern type: {type(pattern).__name__}")
