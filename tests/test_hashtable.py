"""Tests for the one-partition linear-probing hash table (the oracle the
segmented production table is pinned against)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analytics.hashing import EMPTY_KEY
from repro.operators.hashtable import LinearProbingHashTable


class TestBasics:
    def test_insert_and_lookup(self):
        t = LinearProbingHashTable(4)
        t.insert_batch(np.array([1, 2, 3], dtype=np.uint64),
                       np.array([10, 20, 30], dtype=np.uint64))
        payloads, found = t.lookup_batch(np.array([2, 3, 99], dtype=np.uint64))
        assert list(found) == [True, True, False]
        assert payloads[0] == 20 and payloads[1] == 30

    def test_capacity_power_of_two(self):
        t = LinearProbingHashTable(100, load_factor=0.5)
        assert t.capacity == 256
        assert t.capacity & (t.capacity - 1) == 0

    def test_load(self):
        t = LinearProbingHashTable(8, load_factor=0.5)
        t.insert_batch(np.arange(8, dtype=np.uint64), np.arange(8, dtype=np.uint64))
        assert t.items == 8
        assert t.load == pytest.approx(8 / t.capacity)

    def test_footprint(self):
        t = LinearProbingHashTable(100)
        assert t.size_b == t.capacity * 16

    def test_overfill_rejected(self):
        t = LinearProbingHashTable(1, load_factor=1.0)
        with pytest.raises(MemoryError):
            t.insert_batch(np.arange(1000, dtype=np.uint64),
                           np.arange(1000, dtype=np.uint64))

    def test_sentinel_key_rejected(self):
        t = LinearProbingHashTable(4)
        with pytest.raises(ValueError):
            t.insert_batch(np.array([EMPTY_KEY], dtype=np.uint64),
                           np.array([0], dtype=np.uint64))

    def test_mismatched_batch_rejected(self):
        t = LinearProbingHashTable(4)
        with pytest.raises(ValueError):
            t.insert_batch(np.array([1], dtype=np.uint64),
                           np.array([1, 2], dtype=np.uint64))

    def test_probe_stats_accumulate(self):
        t = LinearProbingHashTable(64)
        keys = np.arange(64, dtype=np.uint64)
        t.insert_batch(keys, keys)
        assert t.insert_probe_steps >= 64
        t.lookup_batch(keys)
        assert t.lookup_probe_steps >= 64

    def test_duplicate_keys_first_wins(self):
        t = LinearProbingHashTable(8)
        t.insert_batch(np.array([5], dtype=np.uint64), np.array([1], dtype=np.uint64))
        t.insert_batch(np.array([5], dtype=np.uint64), np.array([2], dtype=np.uint64))
        payloads, found = t.lookup_batch(np.array([5], dtype=np.uint64))
        assert found[0] and payloads[0] == 1

    def test_collision_heavy_batch(self):
        # Insert a full table's worth in one batch: every slot conflict
        # must resolve by probing.
        t = LinearProbingHashTable(128, load_factor=1.0)
        keys = np.arange(128, dtype=np.uint64) * np.uint64(128)  # force clustering
        t.insert_batch(keys, keys)
        payloads, found = t.lookup_batch(keys)
        assert found.all()
        assert np.array_equal(payloads, keys)


class TestPropertyBased:
    @given(
        st.lists(
            st.integers(0, (1 << 48) - 1), min_size=1, max_size=200, unique=True
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_dict_semantics(self, key_list):
        keys = np.array(key_list, dtype=np.uint64)
        payloads = (keys * np.uint64(3)) % np.uint64(1 << 30)
        t = LinearProbingHashTable(len(keys))
        t.insert_batch(keys, payloads)
        reference = dict(zip(key_list, payloads.tolist()))
        probe_keys = np.array(key_list + [max(key_list) + 1], dtype=np.uint64)
        got, found = t.lookup_batch(probe_keys)
        for k, g, f in zip(probe_keys.tolist(), got.tolist(), found.tolist()):
            if k in reference:
                assert f and g == reference[k]
            else:
                assert not f

    @given(st.integers(1, 500))
    @settings(max_examples=20, deadline=None)
    def test_all_inserted_found(self, n):
        rng = np.random.default_rng(n)
        keys = np.unique(rng.integers(0, 1 << 40, n * 2, dtype=np.uint64))[:n]
        t = LinearProbingHashTable(len(keys))
        t.insert_batch(keys, keys)
        _, found = t.lookup_batch(keys)
        assert found.all()
