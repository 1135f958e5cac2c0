"""Sorting kernels: multi-pass mergesort with an optional SIMD-style
bitonic first pass, and quicksort (the CPU's probe-phase sort).

The Mondrian probe phase runs mergesort because it "spends most of the
time merging ordered streams of tuples, thus maximizing sequential
memory accesses" (paper section 5.2), seeded by a bitonic network that
sorts 16-tuple runs in-register, eliminating the first four merge
passes.  Both kernels here are real algorithms executed on the data
(vectorized across runs), and both report the pass counts the cost model
converts into sequential DRAM traffic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.analytics.tuples import TUPLE_DTYPE

#: Padding key guaranteed to sort last (workload keys are < 2**63).
_PAD_KEY = np.uint64(0xFFFFFFFFFFFFFFFF)


@dataclass(frozen=True)
class SortStats:
    """Work accounting of one sort invocation."""

    n: int
    merge_passes: int
    bitonic_steps: int
    initial_run: int

    @property
    def total_passes(self) -> int:
        """Dataset passes: one per merge pass plus one for the initial
        run-formation pass (bitonic or single-element runs are formed
        while streaming the data in)."""
        return self.merge_passes + (1 if self.n else 0)


def merge_pass(data: np.ndarray, run_len: int) -> np.ndarray:
    """One mergesort pass: merge adjacent sorted runs of ``run_len``.

    Vectorized across *all* run pairs at once: the data is padded to a
    whole number of ``2 * run_len`` pairs with :data:`_PAD_KEY` sentinels
    and each pair-row is stably argsorted.  A stable sort of two
    concatenated sorted runs is exactly their stable merge (run-A
    elements precede equal run-B elements, matching the classic
    searchsorted rank trick), and the pads -- which only ever occupy the
    tail of the final pair -- sort to that row's end, so slicing the
    flattened result back to ``len(data)`` drops precisely them.
    :func:`repro.operators.reference.merge_pass_scalar` keeps the
    per-pair reference loop that the equivalence suite pins this against.
    """
    if run_len < 1:
        raise ValueError("run length must be >= 1")
    n = len(data)
    if n <= run_len:
        return data.copy()
    pair = 2 * run_len
    blocks = math.ceil(n / pair)
    padded = np.empty(blocks * pair, dtype=data.dtype)
    padded[:n] = data
    if blocks * pair > n:
        padded[n:]["key"] = _PAD_KEY
        padded[n:]["payload"] = 0
    order = np.argsort(padded["key"].reshape(blocks, pair), axis=1, kind="stable")
    flat = (order + (np.arange(blocks, dtype=np.int64) * pair)[:, None]).reshape(-1)
    return padded[flat][:n]


def bitonic_sort_runs(data: np.ndarray, run: int = 16) -> Tuple[np.ndarray, int]:
    """Sort each ``run``-tuple block with a bitonic compare-exchange
    network (the SIMD kernel of paper section 5.2).

    Returns ``(data_with_sorted_runs, compare_exchange_steps)`` where the
    step count is per-element network stages, i.e. the number of
    compare-exchange operations each SIMD lane performs.
    """
    if run < 2 or run & (run - 1):
        raise ValueError("run must be a power of two >= 2")
    n = len(data)
    if n == 0:
        return data.copy(), 0
    blocks = math.ceil(n / run)
    padded = np.empty(blocks * run, dtype=data.dtype)
    padded[:n] = data
    if blocks * run > n:
        padded[n:]["key"] = _PAD_KEY
        padded[n:]["payload"] = 0
    grid = padded.reshape(blocks, run)
    keys = grid["key"].copy()
    vals = grid["payload"].copy()

    steps = 0
    k = 2
    while k <= run:
        j = k // 2
        while j >= 1:
            idx = np.arange(run)
            partner = idx ^ j
            upper = partner > idx
            i_lo = idx[upper]
            i_hi = partner[upper]
            ascending = (idx[upper] & k) == 0
            lo_keys, hi_keys = keys[:, i_lo], keys[:, i_hi]
            # swap where order violates the direction of this subsequence
            wrong = np.where(ascending, lo_keys > hi_keys, lo_keys < hi_keys)
            lo_k = np.where(wrong, hi_keys, lo_keys)
            hi_k = np.where(wrong, lo_keys, hi_keys)
            lo_v = np.where(wrong, vals[:, i_hi], vals[:, i_lo])
            hi_v = np.where(wrong, vals[:, i_lo], vals[:, i_hi])
            keys[:, i_lo], keys[:, i_hi] = lo_k, hi_k
            vals[:, i_lo], vals[:, i_hi] = lo_v, hi_v
            steps += 1
            j //= 2
        k *= 2

    result = np.empty(blocks * run, dtype=data.dtype)
    result["key"] = keys.reshape(-1)
    result["payload"] = vals.reshape(-1)
    return result[:n].copy(), steps


def mergesort(
    data: np.ndarray, bitonic_initial: bool = False, bitonic_run: int = 16
) -> Tuple[np.ndarray, SortStats]:
    """Full mergesort; optionally seed with the bitonic run pass.

    Sorting is by key and stable within the merge passes (the bitonic
    network is not stable -- neither is hardware SIMD sorting; tests
    therefore compare key order plus payload multisets).
    """
    if data.dtype != TUPLE_DTYPE:
        raise TypeError(f"expected tuple dtype, got {data.dtype}")
    n = len(data)
    if n <= 1:
        return data.copy(), SortStats(n=n, merge_passes=0, bitonic_steps=0, initial_run=n)

    bitonic_steps = 0
    if bitonic_initial:
        work, bitonic_steps = bitonic_sort_runs(data, bitonic_run)
        run = bitonic_run
    else:
        work = data.copy()
        run = 1

    merge_passes = 0
    while run < n:
        work = merge_pass(work, run)
        run *= 2
        merge_passes += 1
    return work, SortStats(
        n=n,
        merge_passes=merge_passes,
        bitonic_steps=bitonic_steps,
        initial_run=bitonic_run if bitonic_initial else 1,
    )


def quicksort(data: np.ndarray) -> Tuple[np.ndarray, SortStats]:
    """The CPU probe phase's local sort.

    Functionally an introsort (numpy argsort); the cost model charges
    ``QUICKSORT_STEP * n * log2(n)`` instructions for it, matching the
    expected partition-pass structure.
    """
    if data.dtype != TUPLE_DTYPE:
        raise TypeError(f"expected tuple dtype, got {data.dtype}")
    n = len(data)
    order = np.argsort(data["key"], kind="stable")
    passes = max(1, math.ceil(math.log2(n))) if n > 1 else 0
    return data[order], SortStats(n=n, merge_passes=passes, bitonic_steps=0, initial_run=1)


def merge_passes_needed(n: int, initial_run: int = 1, way: int = 2) -> int:
    """Number of dataset passes a ``way``-way mergesort performs on ``n``
    elements starting from sorted runs of ``initial_run``.

    Each pass multiplies the run length by the merge fan-in: scalar
    machines merge pairwise (way=2); the Mondrian unit's stream buffers
    feed a 4-to-1 SIMD merge tree (way=4), which is how the wide unit
    "absorbs the log n complexity bump" (paper section 7.1).
    """
    if n <= 1:
        return 0
    if initial_run < 1:
        raise ValueError("initial run must be >= 1")
    if way < 2:
        raise ValueError("merge fan-in must be >= 2")
    passes = 0
    run = initial_run
    while run < n:
        run *= way
        passes += 1
    return passes
