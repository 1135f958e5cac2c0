"""Segmented kernels: per-partition algorithms as whole-relation ops.

Each kernel is the batched twin of a per-partition loop in the operator
layer and is **byte-identical** to it:

- :func:`stable_argsort` -- ``np.argsort(kind="stable")`` computed
  from numpy's SIMD *value* sort: integer codes whose span and row
  index fit one word are packed as ``((code - min) << row_bits) | row``
  (``uint32`` or ``uint64``), and the sorted words' low field is the
  stable order, because distinct words have one sorted order.  Wider
  codes take ``np.argsort(kind="stable")`` itself.
- :func:`segmented_stable_argsort` -- one stable sort of the composite
  ``(segment, key)`` order equals a stable per-segment argsort, which
  in turn equals the multi-pass stable mergesort of
  ``repro.operators.sort_algos`` (a stable merge of stable runs is a
  stable sort).  It value-sorts packed ``(segment, key - min, offset
  in segment)`` words when they fit 64 bits; wider keys take one
  ``np.lexsort`` by segment, then key.
- :func:`segmented_mergesort` with the 16-tuple bitonic run pass -- after
  the stable merge the network's only observable effect is the order of
  equal keys inside one block.  Blocks with no such tie skip it; the
  others run the data-independent network once, as one grid of small
  integer ranks read off the sorted order, with pads ranked above every
  real key.
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
segment bits must fit 64.  Exceeding the budget is never an error --
the kernels verify both conditions at runtime and degrade to the
per-segment reference loop, byte-identically -- but the fallback loops
over segments in Python, so callers should keep composite keys inside
the budget when they control the layout.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def segment_ids(segments: np.ndarray) -> np.ndarray:
    """Per-row segment index for a ``segments`` offset array."""
    segments = np.asarray(segments, dtype=np.int64)
    return np.repeat(
        np.arange(len(segments) - 1, dtype=np.int64), np.diff(segments)
    )


def word_dtype(bits: int) -> type:
    """The narrower unsigned word, ``uint32`` or ``uint64``, that holds
    ``bits <= 64`` packed bits; numpy's SIMD sort moves twice as many
    ``uint32`` words per instruction."""
    return np.uint32 if bits <= 32 else np.uint64


def _packed_argsort(code: np.ndarray, segments: np.ndarray) -> Optional[np.ndarray]:
    """The stable within-segment argsort of integer ``code`` from one
    SIMD value sort, or ``None`` when its words would not fit 64 bits.

    Row ``i`` of segment ``s`` becomes the word ``(s, code[i] - min,
    offset of i in s)``.  The words are distinct, so they have one
    sorted order, which is the stable ``(segment, code)`` order; each
    row is its segment's start plus the low field.
    """
    n = len(code)
    if n == 0 or code.dtype.kind not in "biu":
        return None
    lens = np.diff(segments)
    seg_bits = (len(lens) - 1).bit_length()
    lo = int(code.min())
    offset_bits = (int(lens.max()) - 1).bit_length()
    low_bits = (int(code.max()) - lo).bit_length() + offset_bits
    if seg_bits + low_bits > 64:
        return None
    dtype = word_dtype(seg_bits + low_bits)
    # Casts and sums wrap modulo the word width, which is exact here:
    # every field's true value fits it.
    words = code.astype(dtype)
    words -= dtype(lo % (1 << (8 * np.dtype(dtype).itemsize)))
    words <<= dtype(offset_bits)
    words += np.arange(n, dtype=dtype)
    if seg_bits:
        # Per segment, add its id field and subtract its start from
        # the row index, leaving the offset.
        bases = np.arange(len(lens), dtype=np.uint64) << np.uint64(low_bits)
        bases -= segments[:-1].astype(np.uint64)
        words += np.repeat(bases.astype(dtype), lens)
    words.sort()
    words &= dtype((1 << offset_bits) - 1)
    order = words.astype(np.intp)
    if seg_bits:
        order += np.repeat(segments[:-1], lens)  # rows keep their segment
    return order


def stable_argsort(code: np.ndarray) -> np.ndarray:
    """``np.argsort(code, kind="stable")``, from numpy's SIMD value sort.

    Integer codes whose span and row index fit one machine word --
    ``bits(max - min) + bits(n - 1) <= 64`` -- are packed as
    ``((code - min) << row_bits) | row`` (``uint32`` when that fits 32
    bits, else ``uint64``) and sorted by value: the words are distinct,
    so they have one sorted order, and its low field is the stable
    order.  Wider codes, and empty or non-integer ones, take numpy's
    stable argsort; the stable order is unique, so both routes return
    the same array.
    """
    order = _packed_argsort(code, np.array([0, len(code)]))
    if order is not None:
        return order
    return np.argsort(code, kind="stable")


def segmented_stable_argsort(keys: np.ndarray, segments: np.ndarray) -> np.ndarray:
    """Stable within-segment argsort by key, as one global permutation.

    Equivalent to running ``np.argsort(kind="stable")`` on every segment
    independently (rows stay inside their segment).  When the segment
    id, the key's span and the row's offset in its segment fit one
    word -- ``seg_bits + bits(max - min) + bits(longest - 1) <= 64`` --
    the packed words ``(segment, key - min, offset)`` are sorted by
    value, as in :func:`stable_argsort`: the offset needs fewer bits
    than a global row index, so 48-bit keys over 64 segments still fit.
    Wider keys take one ``np.lexsort`` by segment, then key.  Both
    orders are the same stable ``(segment, key)`` order.
    """
    segments = np.asarray(segments, dtype=np.int64)
    order = _packed_argsort(keys, segments)
    if order is not None:
        return order
    return np.lexsort((keys, segment_ids(segments)))


def _bitonic_network(ranks: np.ndarray, lanes: np.ndarray) -> None:
    """The network of ``sort_algos.bitonic_sort_runs``, in place on
    lane-major ``(run, blocks)`` grids of ranks and lane ids.

    Step ``(k, j)`` compare-exchanges lane ``i`` with lane ``i ^ j``,
    descending where bit ``k`` of ``i`` is set.  Ranks in those lanes
    are held bitwise complemented for the stage, which turns every
    comparator ascending, so each step is one pair of reshape views.
    Equal ranks never swap, exactly like the reference's strict
    comparison; the lane ids follow each swap through an XOR under an
    all-zeros/all-ones mask.
    """
    run, blocks = ranks.shape
    lane_bits = np.arange(run)[:, None]
    complemented = np.zeros_like(lane_bits, dtype=bool)
    k = 2
    while k <= run:
        descending = (lane_bits & k) != 0
        ranks ^= np.where(
            descending != complemented, np.iinfo(ranks.dtype).max, 0
        ).astype(ranks.dtype)
        complemented = descending
        j = k // 2
        while j >= 1:
            shape = (run // (2 * j), 2, j, blocks)
            r, l = ranks.reshape(shape), lanes.reshape(shape)
            a, b, la, lb = r[:, 0], r[:, 1], l[:, 0], l[:, 1]
            mask = np.subtract(0, np.greater(a, b), dtype=lanes.dtype)
            low = np.minimum(a, b)
            np.maximum(a, b, out=b)
            a[...] = low
            diff = np.bitwise_xor(la, lb)
            diff &= mask
            la ^= diff
            lb ^= diff
            j //= 2
        k *= 2


def _bitonic_tie_order(
    sorted_keys: np.ndarray, order: np.ndarray, segments: np.ndarray, run: int
) -> np.ndarray:
    """Rewrite the stable ``(segment, key)`` ``order`` as the stable sort
    of the data after the per-segment bitonic run pass.

    Each segment is padded on its own to whole ``run``-row blocks, as in
    :func:`repro.operators.sort_algos.bitonic_sort_runs`.  The network
    only permutes rows inside a block, and a stable sort afterwards
    orders equal keys by block, so its sole observable effect is the
    order of *equal keys inside one block*.  Blocks without such a tie
    keep ``order``; the network runs only on the others, over small
    integer ranks (each row's tie-group position in ``order``; pads rank
    above every real key) and a lane permutation, and each tie group then
    takes its members in post-network lane order.
    """
    if run < 2 or run & (run - 1):
        raise ValueError("run must be a power of two >= 2")
    n = len(order)
    if n < 2:
        return order
    segments = np.asarray(segments, dtype=np.int64)
    lens = np.diff(segments)
    pad_lens = -(-lens // run) * run
    # Rows never leave their segment, so sorted position p and row p
    # share a segment; ``slot`` is each sorted row's padded position.
    slot = order + np.repeat(np.cumsum(pad_lens) - pad_lens - segments[:-1], lens)
    shift = run.bit_length() - 1
    block = slot >> shift
    tie = sorted_keys[1:] == sorted_keys[:-1]
    tie &= block[1:] == block[:-1]
    if not tie.any():
        return order

    # A tie group -- one block's rows of one key -- is contiguous in the
    # sorted order; ``group`` is the sorted position of its first row.
    # Inside a block it ranks rows exactly like their keys do.
    group = np.empty(n, dtype=np.int64)
    group[0] = 0
    np.multiply(~tie, np.arange(1, n), out=group[1:])
    np.maximum.accumulate(group, out=group)
    tied = np.zeros(int(pad_lens.sum()) // run, dtype=bool)
    tied[block[1:][tie]] = True
    pos = np.flatnonzero(tied[block])  # sorted positions in tied blocks
    num_tied = int(np.count_nonzero(tied))
    # Each tied row's cell in a block-major (tied block, lane) grid.
    to_cell = (np.cumsum(tied) - 1 - np.arange(len(tied))) << shift
    sub_slot = slot[pos]
    cell = sub_slot + to_cell[sub_slot >> shift]
    sub_group = group[pos]
    ranks = np.full((num_tied, run), n, dtype=np.min_scalar_type(n))  # pads: n
    ranks.reshape(-1)[cell] = sub_group
    ranks = np.ascontiguousarray(ranks.T)
    lane_ids = np.arange(run, dtype=np.min_scalar_type(run - 1))[:, None]
    lanes = np.repeat(lane_ids, num_tied, axis=1)
    _bitonic_network(ranks, lanes)

    # After the network a block's ranks ascend along its lanes; a row's
    # offset in its tie group is its lane minus the group's first lane,
    # recorded at the lane the row started from.
    first = np.zeros_like(lanes)
    np.multiply(ranks[1:] != ranks[:-1], lane_ids[1:], out=first[1:])
    np.maximum.accumulate(first, axis=0, out=first)
    started_at = lanes.astype(np.int64)
    started_at += np.arange(0, num_tied * run, run)
    offset = np.empty(num_tied * run, dtype=lanes.dtype)
    offset[started_at] = lane_ids - first
    sub_group += offset[cell]
    result = order.copy()
    result[sub_group] = order[pos]
    return result


#: Tuples per bitonic run: the cost model's ``costs.BITONIC_RUN_TUPLES``.
_BITONIC_RUN = 16


def segmented_mergesort(
    keys: np.ndarray,
    payloads: np.ndarray,
    segments: np.ndarray,
    bitonic_initial: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """Sort every segment by key, matching the multi-pass mergesort.

    ``repro.operators.sort_algos.mergesort`` is a (bitonic-seeded) run
    formation followed by stable merge passes; a stable merge of stable
    runs is exactly a stable sort of the run-formed data.  The segmented
    equivalent is one stable ``(segment, key)`` sort, with the order of
    equal keys inside a bitonic block then fixed up by
    :func:`_bitonic_tie_order`.  Byte-identical per segment (the
    equivalence suite pins it).
    """
    order = segmented_stable_argsort(keys, segments)
    sorted_keys = keys[order]
    if bitonic_initial:
        order = _bitonic_tie_order(sorted_keys, order, segments, _BITONIC_RUN)
    return sorted_keys, payloads[order]


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
