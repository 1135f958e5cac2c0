"""Segmented kernels: per-partition algorithms as whole-relation ops.

Each kernel is the batched twin of a per-partition loop in the operator
layer and is **byte-identical** to it:

- :func:`segmented_stable_argsort` -- one stable sort of the composite
  ``(segment, key)`` order (a packed ``uint64`` code within the bit
  budget, else a lexsort) equals a stable per-segment argsort, which in
  turn equals the multi-pass stable mergesort of
  ``repro.operators.sort_algos`` (a stable merge of stable runs is a
  stable sort).
- :func:`segmented_bitonic_runs` -- every segment's 16-tuple bitonic
  blocks concatenated into one grid; the compare-exchange network is
  data-independent, so one pass over the grid equals the per-segment
  passes.
- :func:`sorted_group_aggregates` -- groups bucketed by exact length and
  reduced as rows of one matrix; numpy reduces each row with the same
  pairwise routine a 1-D ``chunk.sum()`` uses, so the floats match the
  per-group reference bit-for-bit.
- :func:`segmented_searchsorted` -- per-segment binary search via a
  composite ``(segment << key_bits) | key`` code (with a per-segment
  fallback when the composite would not fit in 64 bits).

**The bit-budget rule.**  Kernels that fuse the segment axis into the
key column do it by packing ``(segment, key)`` into one ``uint64``
code, which is only sound when ``segment_bits + key_space_bits <= 64``
*and* every key actually respects the declared bound
(``key < 2**key_space_bits``).  The same rule governs callers that pack
their own multi-column composite keys (the suite subsystem's
``(region, store, day)``-style keys, see
:mod:`repro.suites.families`): the *total* packed width plus the
segment bits must fit 64, and because the sort kernels reserve
``2**64 - 1`` as the padding sentinel, packed keys themselves must stay
below ``2**63``.  Exceeding the budget is never an error -- the kernels
verify both conditions at runtime and degrade to the per-segment
reference loop, byte-identically -- but the fallback loops over
segments in Python, so callers should keep composite keys inside the
budget when they control the layout.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: Padding key guaranteed to sort last (workload keys are < 2**63);
#: mirrors ``repro.operators.sort_algos._PAD_KEY``.
_PAD_KEY = np.uint64(0xFFFFFFFFFFFFFFFF)


def segment_ids(segments: np.ndarray) -> np.ndarray:
    """Per-row segment index for a ``segments`` offset array."""
    segments = np.asarray(segments, dtype=np.int64)
    return np.repeat(
        np.arange(len(segments) - 1, dtype=np.int64), np.diff(segments)
    )


def segmented_stable_argsort(keys: np.ndarray, segments: np.ndarray) -> np.ndarray:
    """Stable within-segment argsort by key, as one global permutation.

    Equivalent to running ``np.argsort(kind="stable")`` on every segment
    independently (rows stay inside their segment).  When the bit-budget
    rule holds -- ``uint64`` keys below ``2**(64 - segment_bits)`` --
    ``(segment, key)`` packs into one ``uint64`` code sorted by a single
    stable argsort; otherwise it runs as one composite lexsort.  Both
    orders are the same stable ``(segment, key)`` order.
    """
    seg_bits = (len(segments) - 2).bit_length() if len(segments) > 2 else 0
    if keys.dtype == np.uint64 and (
        len(keys) == 0 or int(keys.max()) >> (64 - seg_bits) == 0
    ):
        if seg_bits:
            sids = segment_ids(segments).astype(np.uint64)
            keys = (sids << np.uint64(64 - seg_bits)) | keys
        return np.argsort(keys, kind="stable")
    return np.lexsort((keys, segment_ids(segments)))


def segmented_bitonic_runs(
    keys: np.ndarray,
    payloads: np.ndarray,
    segments: np.ndarray,
    run: int = 16,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Bitonic-sort every segment's ``run``-tuple blocks in one pass.

    Byte-identical to calling
    :func:`repro.operators.sort_algos.bitonic_sort_runs` per segment:
    each segment is padded independently to a whole number of blocks
    (pads only ever occupy its final block), all blocks form one
    ``(total_blocks, run)`` grid, and the data-independent network runs
    once.  Returns ``(keys, payloads, compare_exchange_steps)`` with the
    pads stripped.
    """
    if run < 2 or run & (run - 1):
        raise ValueError("run must be a power of two >= 2")
    segments = np.asarray(segments, dtype=np.int64)
    lens = np.diff(segments)
    n = int(segments[-1])
    if n == 0:
        return keys.copy(), payloads.copy(), 0
    pad_lens = -(-lens // run) * run  # ceil to whole blocks, per segment
    pstarts = np.zeros(len(lens), dtype=np.int64)
    np.cumsum(pad_lens[:-1], out=pstarts[1:])
    total_p = int(pad_lens.sum())
    grid_keys = np.full(total_p, _PAD_KEY, dtype=np.uint64)
    grid_vals = np.zeros(total_p, dtype=np.uint64)
    # Real rows land at the head of their segment's padded range.
    dst = np.arange(n, dtype=np.int64) + np.repeat(pstarts - segments[:-1], lens)
    grid_keys[dst] = keys
    grid_vals[dst] = payloads
    gk = grid_keys.reshape(-1, run)
    gv = grid_vals.reshape(-1, run)

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
            lo_keys, hi_keys = gk[:, i_lo], gk[:, i_hi]
            wrong = np.where(ascending, lo_keys > hi_keys, lo_keys < hi_keys)
            lo_k = np.where(wrong, hi_keys, lo_keys)
            hi_k = np.where(wrong, lo_keys, hi_keys)
            lo_v = np.where(wrong, gv[:, i_hi], gv[:, i_lo])
            hi_v = np.where(wrong, gv[:, i_lo], gv[:, i_hi])
            gk[:, i_lo], gk[:, i_hi] = lo_k, hi_k
            gv[:, i_lo], gv[:, i_hi] = lo_v, hi_v
            steps += 1
            j //= 2
        k *= 2

    flat_keys = gk.reshape(-1)
    flat_vals = gv.reshape(-1)
    # Within every block the pads sorted to the tail, and only a
    # segment's final block holds pads, so the real rows again occupy
    # the head of each segment's padded range.
    return flat_keys[dst], flat_vals[dst], steps


def segmented_mergesort(
    keys: np.ndarray,
    payloads: np.ndarray,
    segments: np.ndarray,
    bitonic_initial: bool = False,
    bitonic_run: int = 16,
) -> Tuple[np.ndarray, np.ndarray]:
    """Sort every segment by key, matching the multi-pass mergesort.

    ``repro.operators.sort_algos.mergesort`` is a (bitonic-seeded) run
    formation followed by stable merge passes; a stable merge of stable
    runs is exactly a stable sort of the run-formed data, so the
    segmented equivalent is the bitonic pass plus one composite stable
    lexsort.  Byte-identical per segment (the equivalence suite pins it).
    """
    if bitonic_initial:
        keys, payloads, _ = segmented_bitonic_runs(
            keys, payloads, segments, bitonic_run
        )
    order = segmented_stable_argsort(keys, segments)
    return keys[order], payloads[order]


def segmented_sorted_groups(
    keys: np.ndarray, segments: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group boundaries of within-segment key-sorted data.

    Returns ``(starts, lens, seg_of_group)``: the flat row index where
    each group begins, its length, and its segment.  A group never
    crosses a segment boundary.
    """
    n = len(keys)
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    sids = segment_ids(segments)
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    new_group[1:] = (keys[1:] != keys[:-1]) | (sids[1:] != sids[:-1])
    starts = np.flatnonzero(new_group)
    lens = np.diff(np.append(starts, n))
    return starts, lens, sids[starts]


def sorted_group_aggregates(values: np.ndarray, starts: np.ndarray, lens: np.ndarray):
    """The six aggregates per group, byte-identical to per-group numpy.

    ``values`` is float64 in group order.  min/max are exact under any
    association; count and avg are trivially identical; sum and sum of
    squares must reproduce ``chunk.sum()``'s pairwise association, so
    groups are bucketed by exact length and reduced as the rows of one
    ``(groups_of_len, len)`` matrix -- numpy applies the same pairwise
    reduction per row that it applies to a 1-D chunk of that length.

    Returns ``(counts, sums, mins, maxs, avgs, sumsqs)`` as float64
    arrays in group order.
    """
    num = len(starts)
    counts = lens.astype(np.float64)
    sums = np.empty(num, dtype=np.float64)
    sumsqs = np.empty(num, dtype=np.float64)
    if num:
        mins = np.minimum.reduceat(values, starts)
        maxs = np.maximum.reduceat(values, starts)
        squares = values * values
        for length in np.unique(lens):
            sel = np.flatnonzero(lens == length)
            rows = starts[sel][:, None] + np.arange(int(length))
            sums[sel] = values[rows].sum(axis=1)
            sumsqs[sel] = squares[rows].sum(axis=1)
    else:
        mins = np.empty(0, dtype=np.float64)
        maxs = np.empty(0, dtype=np.float64)
    avgs = sums / counts if num else np.empty(0, dtype=np.float64)
    return counts, sums, mins, maxs, avgs, sumsqs


def segmented_searchsorted(
    sorted_keys: np.ndarray,
    segments: np.ndarray,
    query_keys: np.ndarray,
    query_segments: np.ndarray,
    key_space_bits: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-segment ``searchsorted`` with the reference's clamping.

    For every query row, finds the insertion point among *its own
    segment's* sorted keys and clamps it to the segment's last row --
    exactly the ``np.minimum(np.searchsorted(...), len - 1)`` step of
    the per-partition merge join.  Returns ``(idx, valid)`` where
    ``idx`` indexes the flat ``sorted_keys`` and ``valid`` is False for
    queries whose segment has no sorted rows (their ``idx`` is clamped
    to 0 and must be ignored).

    Uses a composite ``(segment << key_space_bits) | key`` code when it
    fits 64 bits and the keys respect the bound (the bit-budget rule,
    see the module docstring); otherwise falls back to one
    ``searchsorted`` per segment.  Callers packing multi-column
    composite keys into ``sorted_keys`` must declare the *total* packed
    width as ``key_space_bits`` -- an undersized declaration routes
    valid inputs to the fallback (slower, never wrong), an oversized
    one merely shrinks the segment budget.

    ``query_segments`` must describe the same number of segments as
    ``segments`` (the query rows of segment ``i`` probe the sorted rows
    of segment ``i``); a mismatch raises ``ValueError``.
    """
    segments = np.asarray(segments, dtype=np.int64)
    query_segments = np.asarray(query_segments, dtype=np.int64)
    if len(query_segments) != len(segments):
        # Both execution paths must agree on the contract: the composite
        # path would silently misalign segment ids while the per-segment
        # loop would fail with an opaque IndexError.
        raise ValueError(
            f"query_segments describes {len(query_segments) - 1} segments "
            f"but segments describes {len(segments) - 1}; the kernel "
            "probes segment i's queries against segment i's sorted rows"
        )
    num_segments = len(segments) - 1
    seg_lens = np.diff(segments)
    q_sids = segment_ids(query_segments)
    valid = (seg_lens > 0)[q_sids]

    seg_bits = max(1, num_segments - 1).bit_length() if num_segments > 1 else 1
    composite_ok = (
        key_space_bits + seg_bits <= 64
        and (len(sorted_keys) == 0 or int(sorted_keys.max()) < (1 << key_space_bits))
        and (len(query_keys) == 0 or int(query_keys.max()) < (1 << key_space_bits))
    )
    if composite_ok:
        shift = np.uint64(key_space_bits)
        sids = segment_ids(segments).astype(np.uint64)
        comp_sorted = (sids << shift) | sorted_keys
        comp_query = (q_sids.astype(np.uint64) << shift) | query_keys
        idx = np.searchsorted(comp_sorted, comp_query)
    else:
        idx = np.empty(len(query_keys), dtype=np.int64)
        for seg in range(num_segments):
            lo, hi = query_segments[seg], query_segments[seg + 1]
            if hi > lo:
                idx[lo:hi] = segments[seg] + np.searchsorted(
                    sorted_keys[segments[seg] : segments[seg + 1]],
                    query_keys[lo:hi],
                )
    last_row = segments[1:][q_sids] - 1  # -1 for empty segments: masked out
    idx = np.minimum(idx, np.maximum(last_row, 0))
    return idx.astype(np.int64), valid
