"""Tests for relations, hashing, histograms and workload generators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analytics import (
    KEY_B,
    PAYLOAD_B,
    Relation,
    TUPLE_B,
    bucket_of_low_bits,
    build_histogram,
    make_groupby_workload,
    make_join_workload,
    make_scan_workload,
    make_sort_workload,
)
from repro.operators.hashtable import hash_table_slot, multiplicative_hash
from repro.operators.reference import source_write_offsets


def lexsort_multiset_equal(a, b):
    """The two-lexsort formulation ``Relation.multiset_equal`` replaced."""
    if len(a) != len(b):
        return False
    mine = np.lexsort((a.payloads, a.keys))
    theirs = np.lexsort((b.payloads, b.keys))
    return np.array_equal(a.keys[mine], b.keys[theirs]) and np.array_equal(
        a.payloads[mine], b.payloads[theirs]
    )


def pairs(*tuples):
    return Relation.from_pairs(tuples)


#: Tuple fields for the property tests: small values that tie often,
#: values at the top of the 64-bit range, and any value in between.
_field_values = st.one_of(
    st.integers(0, 3), st.integers(2**64 - 4, 2**64 - 1), st.integers(0, 2**64 - 1)
)


class TestRelation:
    def test_tuple_layout(self):
        assert KEY_B == 8 and PAYLOAD_B == 8 and TUPLE_B == 16

    def test_from_arrays_and_views(self):
        rel = Relation.from_arrays([1, 2, 3], [10, 20, 30], "r")
        assert len(rel) == 3
        assert list(rel.keys) == [1, 2, 3]
        assert list(rel.payloads) == [10, 20, 30]

    def test_from_pairs(self):
        rel = Relation.from_pairs([(1, 10), (2, 20)])
        assert list(rel.keys) == [1, 2]

    def test_empty(self):
        rel = Relation.empty()
        assert len(rel) == 0
        assert rel.is_sorted()

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            Relation.from_arrays([1, 2], [10])

    def test_sorted_by_key(self):
        rel = Relation.from_arrays([3, 1, 2], [30, 10, 20])
        s = rel.sorted_by_key()
        assert list(s.keys) == [1, 2, 3]
        assert list(s.payloads) == [10, 20, 30]
        assert s.is_sorted()
        assert not rel.is_sorted()

    def test_take(self):
        rel = Relation.from_arrays([1, 2, 3, 4], [1, 2, 3, 4])
        assert list(rel.take(np.array([0, 3])).keys) == [1, 4]

    def test_multiset_equality(self):
        a = Relation.from_arrays([1, 2, 3], [1, 2, 3])
        b = Relation.from_arrays([3, 1, 2], [3, 1, 2])
        c = Relation.from_arrays([3, 1, 2], [3, 1, 99])
        assert a.multiset_equal(b)
        assert not a.multiset_equal(c)
        assert not a == b  # order-sensitive equality differs

    @pytest.mark.parametrize("a, b, equal", [
        # Duplicate tuples: counts must match, not just the set.
        (pairs((1, 5), (1, 5), (2, 6)), pairs((2, 6), (1, 5), (1, 5)), True),
        (pairs((1, 5), (1, 5), (2, 6)), pairs((1, 5), (2, 6), (2, 6)), False),
        # Equal keys with different payloads, in any order.
        (pairs((4, 9), (4, 1), (4, 5)), pairs((4, 5), (4, 9), (4, 1)), True),
        (pairs((4, 9), (4, 1), (4, 5)), pairs((4, 5), (4, 9), (4, 9)), False),
        # One payload moved to another key.
        (pairs((1, 10), (2, 20), (3, 30)), pairs((1, 20), (2, 10), (3, 30)), False),
        # Unequal lengths and empty relations.
        (pairs((1, 1), (2, 2)), pairs((1, 1)), False),
        (Relation.empty(), Relation.empty(), True),
        (Relation.empty(), pairs((0, 0)), False),
        # A key must not spill into the payload's field of the code.
        (pairs((1, 0), (3, 7)), pairs((0, 4), (3, 7)), False),
    ])
    def test_multiset_equality_matches_lexsort(self, a, b, equal):
        assert a.multiset_equal(b) is equal
        assert b.multiset_equal(a) is equal
        assert lexsort_multiset_equal(a, b) is equal

    @given(
        st.lists(st.tuples(_field_values, _field_values), max_size=24),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_multiset_equality_matches_lexsort_on_any_relation(
        self, tuples, seed, swap
    ):
        a = Relation.from_pairs(tuples)
        rng = np.random.default_rng(seed)
        b = a.take(rng.permutation(len(a)))
        if swap:  # payloads dealt to other keys: equal only by chance
            b = Relation.from_arrays(b.keys, b.payloads[rng.permutation(len(b))])
        assert a.multiset_equal(b) == lexsort_multiset_equal(a, b)
        assert a.multiset_equal(b) or swap

    @pytest.mark.parametrize(
        "key_top, payload_top, route",
        [
            (2**20 - 1, 2**12 - 1, "uint32"),
            (2**40 - 1, 2**20 - 1, "uint64"),
            (0, 2**64 - 1, "uint64"),  # all-zero keys, full-width payloads
            (2**64 - 1, 0, "uint64"),  # full-width keys, all-zero payloads
            (2**33, 2**33, None),  # 34 + 34 bits: the lexicographic order
            (2**64 - 1, 2**64 - 1, None),
        ],
    )
    def test_multiset_equality_routes(self, monkeypatch, key_top, payload_top, route):
        from repro.analytics import tuples

        rng = np.random.default_rng(key_top % 1000 + payload_top % 7)
        n = 500
        keys = rng.integers(0, key_top, n, dtype=np.uint64, endpoint=True)
        payloads = rng.integers(0, payload_top, n, dtype=np.uint64, endpoint=True)
        keys[0], payloads[0] = key_top, payload_top  # pin each field's width
        keys[1:40:2] = keys[2:41:2]  # equal keys with different payloads
        a = Relation.from_arrays(keys, payloads)
        b = a.take(rng.permutation(n))
        # One tuple changed in the nonzero field: a different multiset.
        changed_payloads = payloads.copy()
        changed_keys = keys.copy()
        if payload_top:
            changed_payloads[3] ^= np.uint64(1)
        else:
            changed_keys[3] ^= np.uint64(1)
        changed = Relation.from_arrays(changed_keys, changed_payloads)

        routes = []
        real_sorted_codes = tuples._sorted_codes
        real_order = tuples._key_payload_order

        def sorted_codes(rel, payload_bits, dtype):
            routes.append(np.dtype(dtype).name)
            return real_sorted_codes(rel, payload_bits, dtype)

        def key_payload_order(rel):
            routes.append(None)
            return real_order(rel)

        monkeypatch.setattr(tuples, "_sorted_codes", sorted_codes)
        monkeypatch.setattr(tuples, "_key_payload_order", key_payload_order)
        assert a.multiset_equal(b) is True
        assert a.multiset_equal(changed) is False
        assert routes == [route] * 4
        if key_top and payload_top:
            # Two tuples trade payloads: the key multiset and the payload
            # multiset stay equal, the tuple multiset does not.
            j = np.flatnonzero((keys != keys[0]) & (payloads != payloads[0]))[0]
            payloads[[0, j]] = payloads[[j, 0]]
            swapped = Relation.from_arrays(keys, payloads)
            assert np.array_equal(np.sort(swapped.keys), np.sort(a.keys))
            assert np.array_equal(np.sort(swapped.payloads), np.sort(a.payloads))
            assert a.multiset_equal(swapped) is False
            assert swapped.multiset_equal(a) is False
            assert lexsort_multiset_equal(a, swapped) is False
            assert routes == [route] * 8

    def test_dtype_enforced(self):
        with pytest.raises(TypeError):
            Relation(np.zeros(4, dtype=np.float64))


class TestHashing:
    def test_low_bits(self):
        keys = np.array([0b1011, 0b0100], dtype=np.uint64)
        assert list(bucket_of_low_bits(keys, 2)) == [0b11, 0b00]

    def test_multiplicative_hash_range(self):
        keys = np.arange(1000, dtype=np.uint64)
        h = multiplicative_hash(keys, 6)
        assert h.min() >= 0 and h.max() < 64

    def test_multiplicative_hash_spreads(self):
        # Sequential keys should spread across buckets, unlike low bits.
        keys = np.arange(0, 64000, 64, dtype=np.uint64)
        h = multiplicative_hash(keys, 6)
        assert len(np.unique(h)) > 32

    def test_hash_table_slot_pow2_only(self):
        keys = np.arange(10, dtype=np.uint64)
        slots = hash_table_slot(keys, 16)
        assert slots.max() < 16
        with pytest.raises(ValueError):
            hash_table_slot(keys, 12)

    def test_bit_bounds(self):
        keys = np.array([1], dtype=np.uint64)
        with pytest.raises(ValueError):
            bucket_of_low_bits(keys, 0)

    @given(st.integers(0, (1 << 48) - 1), st.integers(1, 16))
    @settings(max_examples=100)
    def test_low_bits_deterministic(self, key, bits):
        keys = np.array([key], dtype=np.uint64)
        a = bucket_of_low_bits(keys, bits)[0]
        b = bucket_of_low_bits(keys, bits)[0]
        assert a == b == key % (1 << bits)


class TestHistogram:
    def test_build(self):
        hist = build_histogram(np.array([0, 1, 1, 3]), 4)
        assert list(hist) == [1, 2, 0, 1]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            build_histogram(np.array([5]), 4)

    def test_source_write_offsets(self):
        offsets = source_write_offsets([np.array([2, 1]), np.array([1, 1])])
        assert list(offsets[0]) == [0, 0]
        assert list(offsets[1]) == [2, 1]


class TestWorkloads:
    def test_scan_has_findable_key(self):
        w = make_scan_workload(1000, num_partitions=4, seed=1)
        found = int(np.count_nonzero(w.flat.keys == np.uint64(w.search_key)))
        assert found >= 1
        assert w.total_tuples == 1000

    def test_partitions_cover_all_tuples(self):
        w = make_sort_workload(1003, num_partitions=7, seed=2)
        assert int(w.flat.segment_lengths().sum()) == 1003
        assert len(w.flat.keys) == len(w.flat.payloads) == 1003

    def test_join_foreign_key_property(self):
        w = make_join_workload(500, 2000, num_partitions=4, seed=3)
        r_keys = set(w.r_flat.keys.tolist())
        assert len(r_keys) == 500  # R keys unique
        assert all(int(k) in r_keys for k in w.s_flat.keys)

    def test_groupby_average_group_size(self):
        w = make_groupby_workload(8000, num_partitions=4, avg_group_size=4.0, seed=4)
        keys = w.flat.keys
        avg = len(keys) / len(np.unique(keys))
        assert 3.0 < avg < 5.5

    def test_deterministic_by_seed(self):
        a = make_sort_workload(100, 2, seed=9)
        b = make_sort_workload(100, 2, seed=9)
        assert np.array_equal(a.flat.to_struct(), b.flat.to_struct())
        c = make_sort_workload(100, 2, seed=10)
        assert not np.array_equal(a.flat.to_struct(), c.flat.to_struct())

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            make_scan_workload(0)
        with pytest.raises(ValueError):
            make_join_workload(0, 10)
        with pytest.raises(ValueError):
            make_groupby_workload(100, avg_group_size=0.5)

    def test_keys_bounded_by_key_space(self):
        w = make_sort_workload(1000, 4, seed=5, key_space_bits=20)
        assert int(w.flat.keys.max()) < (1 << 20)
