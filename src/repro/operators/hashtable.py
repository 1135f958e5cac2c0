"""Vectorized open-addressing (linear-probing) hash table.

The probe phase of the CPU / NMP-rand operators builds and probes hash
tables; this is a real implementation -- collisions resolved by linear
probing -- written with batched numpy rounds so paper-scale partitions
stay tractable in Python.  Probe-distance statistics are exposed because
they feed the random-access counts of the performance model (every probe
step is one random memory access).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.analytics.hashing import EMPTY_KEY, hash_table_slot, next_pow2

__all__ = ["EMPTY_KEY", "LinearProbingHashTable"]


class LinearProbingHashTable:
    """Open-addressing table of (key, payload) pairs.

    ``capacity`` is rounded up to a power of two; the default sizing
    targets a 0.5 load factor.  Duplicate keys occupy separate slots
    (insertion order preserved along each probe chain), so lookups return
    the first inserted match -- the semantics a foreign-key join needs.
    """

    def __init__(self, expected_items: int, load_factor: float = 0.5) -> None:
        if expected_items < 0:
            raise ValueError("expected_items must be non-negative")
        if not 0 < load_factor <= 1:
            raise ValueError("load factor must be in (0, 1]")
        capacity = next_pow2(max(2, int(np.ceil(max(1, expected_items) / load_factor))))
        self._capacity = capacity
        self._mask = np.uint64(capacity - 1)
        self._keys = np.full(capacity, EMPTY_KEY, dtype=np.uint64)
        self._payloads = np.zeros(capacity, dtype=np.uint64)
        self._items = 0
        self.insert_probe_steps = 0
        self.lookup_probe_steps = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def items(self) -> int:
        return self._items

    @property
    def load(self) -> float:
        return self._items / self._capacity

    @property
    def size_b(self) -> int:
        """Memory footprint: 16 B per slot (key + payload)."""
        return self._capacity * 16

    # -- insertion --------------------------------------------------------

    def insert_batch(self, keys: np.ndarray, payloads: np.ndarray) -> None:
        """Insert all pairs, resolving collisions by linear probing.

        Vectorized rounds: each round every still-pending item proposes
        its next probe slot; the first proposer of each empty slot wins,
        losers advance their probe offset.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        payloads = np.asarray(payloads, dtype=np.uint64)
        if keys.shape != payloads.shape:
            raise ValueError("keys and payloads must align")
        if np.any(keys == EMPTY_KEY):
            raise ValueError("key collides with the empty sentinel")
        n = len(keys)
        if self._items + n > self._capacity:
            raise MemoryError(
                f"inserting {n} items into a table with "
                f"{self._capacity - self._items} free slots"
            )
        home = hash_table_slot(keys, self._capacity).astype(np.uint64)
        pending = np.arange(n)
        offsets = np.zeros(n, dtype=np.uint64)
        while len(pending):
            pos = (home[pending] + offsets[pending]) & self._mask
            empty = self._keys[pos] == EMPTY_KEY
            # Among pending items probing an empty slot, the first
            # proposer of each distinct slot places; everyone else retries.
            placed_mask = np.zeros(len(pending), dtype=bool)
            if np.any(empty):
                cand_pos = pos[empty]
                uniq, first_idx = np.unique(cand_pos, return_index=True)
                winners_local = np.flatnonzero(empty)[first_idx]
                winner_items = pending[winners_local]
                winner_pos = pos[winners_local]
                self._keys[winner_pos] = keys[winner_items]
                self._payloads[winner_pos] = payloads[winner_items]
                placed_mask[winners_local] = True
            self.insert_probe_steps += len(pending)
            losers = ~placed_mask
            offsets[pending[losers]] += np.uint64(1)
            pending = pending[losers]
        self._items += n

    # -- lookup ------------------------------------------------------------

    def lookup_batch(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Find the first-inserted payload for each key.

        Returns ``(payloads, found)``.  Missing keys get payload 0 and
        ``found=False``.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        n = len(keys)
        result = np.zeros(n, dtype=np.uint64)
        found = np.zeros(n, dtype=bool)
        home = hash_table_slot(keys, self._capacity).astype(np.uint64)
        active = np.arange(n)
        offsets = np.zeros(n, dtype=np.uint64)
        max_rounds = self._capacity + 1
        rounds = 0
        while len(active):
            rounds += 1
            if rounds > max_rounds:
                raise RuntimeError("lookup did not terminate (table corrupt?)")
            pos = (home[active] + offsets[active]) & self._mask
            slot_keys = self._keys[pos]
            hit = slot_keys == keys[active]
            miss = slot_keys == EMPTY_KEY
            self.lookup_probe_steps += len(active)
            if np.any(hit):
                result[active[hit]] = self._payloads[pos[hit]]
                found[active[hit]] = True
            unresolved = ~(hit | miss)
            offsets[active[unresolved]] += np.uint64(1)
            active = active[unresolved]
        return result, found

    def contains_batch(self, keys: np.ndarray) -> np.ndarray:
        _, found = self.lookup_batch(keys)
        return found
