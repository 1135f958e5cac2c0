"""Segmented open-addressing hash table: many per-partition tables as
one slot array.

The hash probe phase builds one linear-probing table per partition and
probes it with that partition's S tuples; the per-partition *probe-step
counts* feed the performance model (every probe step is one random
memory access), so the batched table must reproduce a per-partition
table's counts exactly -- not just the lookup results.  The
one-partition table it is pinned against,
:class:`~repro.operators.hashtable.LinearProbingHashTable`, is a test
oracle that production never imports.

:class:`SegmentedLinearProbingTable` lays the per-segment tables out in
one flat slot array (each segment gets its own power-of-two capacity
region, exactly the capacity the scalar table would pick) and runs the
same vectorized probing rounds across *all* segments at once.  Within a
round, slot regions are disjoint across segments and items keep their
per-segment order, so collision winners, probe offsets and step counts
are identical to running the scalar table per segment.
"""

from __future__ import annotations

import numpy as np

from repro.analytics.hashing import EMPTY_KEY, HASH_MULTIPLIER, next_pow2


class SegmentedLinearProbingTable:
    """One linear-probing table per segment, batched over all segments.

    ``expected_items`` holds each segment's expected item count; each
    segment's capacity matches ``LinearProbingHashTable(expected,
    load_factor)`` exactly.  ``insert_batch`` / ``lookup_batch`` take a
    per-item segment index and require items of one segment to appear in
    the same relative order the scalar path would feed them.
    """

    def __init__(self, expected_items: np.ndarray, load_factor: float = 0.5) -> None:
        if not 0 < load_factor <= 1:
            raise ValueError("load factor must be in (0, 1]")
        expected = np.asarray(expected_items, dtype=np.int64)
        if np.any(expected < 0):
            raise ValueError("expected_items must be non-negative")
        caps = [
            next_pow2(max(2, int(np.ceil(max(1, int(e)) / load_factor))))
            for e in expected
        ]
        self._capacities = np.asarray(caps, dtype=np.int64)
        self._masks = (self._capacities - 1).astype(np.uint64)
        # Hash shift per segment: multiplicative_hash(key, bits) is
        # (key * CONST) >> (64 - bits) with bits = log2(capacity).
        bits = np.array([c.bit_length() - 1 for c in caps], dtype=np.int64)
        self._shifts = (64 - bits).astype(np.uint64)
        self._bases = np.zeros(len(caps), dtype=np.int64)
        np.cumsum(self._capacities[:-1], out=self._bases[1:])
        total = int(self._capacities.sum())
        self._keys = np.full(total, EMPTY_KEY, dtype=np.uint64)
        self._payloads = np.zeros(total, dtype=np.uint64)
        self._items = np.zeros(len(caps), dtype=np.int64)
        self.insert_probe_steps = np.zeros(len(caps), dtype=np.int64)
        self.lookup_probe_steps = np.zeros(len(caps), dtype=np.int64)

    @property
    def num_segments(self) -> int:
        return len(self._capacities)

    @property
    def capacities(self) -> np.ndarray:
        return self._capacities

    def _home_slots(self, keys: np.ndarray, seg_of: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            mixed = keys * HASH_MULTIPLIER
        # Byte-identical to the oracle's hash_table_slot per segment --
        # same multiplier, same shift; here the shift varies per item.
        return mixed >> self._shifts[seg_of]

    def insert_batch(
        self, keys: np.ndarray, payloads: np.ndarray, seg_of: np.ndarray
    ) -> None:
        """Insert all pairs, resolving collisions exactly like the
        scalar table does per segment.

        Each vectorized round, every still-pending item proposes its
        next probe slot; the first proposer of each empty slot (in
        pending order, which preserves per-segment order) wins.  Slot
        regions are disjoint across segments, so winner selection per
        segment matches the scalar rounds.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        payloads = np.asarray(payloads, dtype=np.uint64)
        seg_of = np.asarray(seg_of, dtype=np.int64)
        if keys.shape != payloads.shape or keys.shape != seg_of.shape:
            raise ValueError("keys, payloads and seg_of must align")
        if np.any(keys == EMPTY_KEY):
            raise ValueError("key collides with the empty sentinel")
        new_items = np.bincount(seg_of, minlength=self.num_segments)
        if np.any(self._items + new_items > self._capacities):
            raise MemoryError("inserting more items than a segment table holds")
        home = self._home_slots(keys, seg_of)
        n = len(keys)
        pending = np.arange(n)
        offsets = np.zeros(n, dtype=np.uint64)
        while len(pending):
            seg = seg_of[pending]
            pos = self._bases[seg] + (
                (home[pending] + offsets[pending]) & self._masks[seg]
            ).astype(np.int64)
            empty = self._keys[pos] == EMPTY_KEY
            placed_mask = np.zeros(len(pending), dtype=bool)
            if np.any(empty):
                cand_pos = pos[empty]
                _, first_idx = np.unique(cand_pos, return_index=True)
                winners_local = np.flatnonzero(empty)[first_idx]
                winner_items = pending[winners_local]
                winner_pos = pos[winners_local]
                self._keys[winner_pos] = keys[winner_items]
                self._payloads[winner_pos] = payloads[winner_items]
                placed_mask[winners_local] = True
            self.insert_probe_steps += np.bincount(seg, minlength=self.num_segments)
            losers = ~placed_mask
            offsets[pending[losers]] += np.uint64(1)
            pending = pending[losers]
        self._items += new_items

    def lookup_batch(self, keys: np.ndarray, seg_of: np.ndarray):
        """Find the first-inserted payload for each (key, segment).

        Returns ``(payloads, found)``; missing keys get payload 0 and
        ``found=False``.  Per-segment ``lookup_probe_steps`` accumulate
        exactly as the scalar table's counter does.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        seg_of = np.asarray(seg_of, dtype=np.int64)
        n = len(keys)
        result = np.zeros(n, dtype=np.uint64)
        found = np.zeros(n, dtype=bool)
        home = self._home_slots(keys, seg_of)
        active = np.arange(n)
        offsets = np.zeros(n, dtype=np.uint64)
        max_rounds = int(self._capacities.max(initial=0)) + 1
        rounds = 0
        while len(active):
            rounds += 1
            if rounds > max_rounds:
                raise RuntimeError("lookup did not terminate (table corrupt?)")
            seg = seg_of[active]
            pos = self._bases[seg] + (
                (home[active] + offsets[active]) & self._masks[seg]
            ).astype(np.int64)
            slot_keys = self._keys[pos]
            hit = slot_keys == keys[active]
            miss = slot_keys == EMPTY_KEY
            self.lookup_probe_steps += np.bincount(seg, minlength=self.num_segments)
            if np.any(hit):
                result[active[hit]] = self._payloads[pos[hit]]
                found[active[hit]] = True
            unresolved = ~(hit | miss)
            offsets[active[unresolved]] += np.uint64(1)
            active = active[unresolved]
        return result, found
