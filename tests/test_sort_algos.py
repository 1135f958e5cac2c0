"""Tests for the sorting kernels: merge pass, bitonic networks,
mergesort, quicksort, and pass counting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analytics.tuples import TUPLE_DTYPE, Relation
from repro.operators.costs import merge_passes_needed
from repro.operators.sort_algos import (
    bitonic_sort_runs,
    merge_pass,
    mergesort,
    quicksort,
)


def make_tuples(keys):
    data = np.empty(len(keys), dtype=TUPLE_DTYPE)
    data["key"] = np.array(keys, dtype=np.uint64)
    data["payload"] = np.arange(len(keys), dtype=np.uint64)
    return data


def random_tuples(n, seed=0):
    rng = np.random.default_rng(seed)
    data = np.empty(n, dtype=TUPLE_DTYPE)
    data["key"] = rng.integers(0, 1 << 40, n, dtype=np.uint64)
    data["payload"] = rng.integers(0, 1 << 40, n, dtype=np.uint64)
    return data


def is_key_sorted(data):
    k = data["key"]
    return bool(np.all(k[:-1] <= k[1:])) if len(k) > 1 else True


class TestMergePass:
    def test_merges_adjacent_runs(self):
        data = make_tuples([2, 4, 1, 3])
        out = merge_pass(data, run_len=2)
        assert list(out["key"]) == [1, 2, 3, 4]

    def test_odd_tail_run_preserved(self):
        data = make_tuples([2, 4, 1, 3, 0])
        out = merge_pass(data, run_len=2)
        assert list(out["key"]) == [1, 2, 3, 4, 0]  # lone tail untouched

    def test_stability_within_merge(self):
        data = make_tuples([1, 1, 1, 1])
        out = merge_pass(data, run_len=2)
        assert list(out["payload"]) == [0, 1, 2, 3]

    def test_rejects_bad_run(self):
        with pytest.raises(ValueError):
            merge_pass(make_tuples([1]), 0)


class TestBitonic:
    def test_sorts_runs_of_16(self):
        data = random_tuples(64, seed=1)
        out, steps = bitonic_sort_runs(data, 16)
        for i in range(0, 64, 16):
            assert is_key_sorted(out[i : i + 16])
        # Bitonic network over 16 keys: 1+2+3+4 = 10 stages.
        assert steps == 10

    def test_handles_partial_tail(self):
        data = random_tuples(20, seed=2)
        out, _ = bitonic_sort_runs(data, 16)
        assert len(out) == 20
        assert is_key_sorted(out[:16])
        assert sorted(out["key"].tolist()) == sorted(data["key"].tolist())

    def test_empty(self):
        out, steps = bitonic_sort_runs(random_tuples(0), 16)
        assert len(out) == 0 and steps == 0

    def test_rejects_non_pow2_run(self):
        with pytest.raises(ValueError):
            bitonic_sort_runs(random_tuples(8), 12)

    def test_preserves_multiset(self):
        data = random_tuples(100, seed=3)
        out, _ = bitonic_sort_runs(data, 16)
        assert sorted(zip(out["key"], out["payload"])) == sorted(
            zip(data["key"], data["payload"])
        )


class TestMergesort:
    @pytest.mark.parametrize("n", [0, 1, 2, 15, 16, 17, 100, 1000])
    def test_sorts(self, n):
        data = random_tuples(n, seed=n)
        out, stats = mergesort(data)
        assert is_key_sorted(out)
        assert len(out) == n
        assert stats.n == n

    @pytest.mark.parametrize("n", [16, 100, 1000])
    def test_bitonic_seeded_sorts(self, n):
        data = random_tuples(n, seed=n + 1)
        out, stats = mergesort(data, bitonic_initial=True)
        assert is_key_sorted(out)
        assert stats.bitonic_steps > 0
        assert stats.initial_run == 16

    def test_bitonic_reduces_passes_by_four(self):
        data = random_tuples(1024, seed=7)
        _, plain = mergesort(data)
        _, seeded = mergesort(data, bitonic_initial=True)
        assert plain.merge_passes == 10  # log2(1024)
        assert seeded.merge_passes == 6  # log2(1024/16)

    def test_preserves_multiset(self):
        data = random_tuples(500, seed=9)
        out, _ = mergesort(data, bitonic_initial=True)
        assert sorted(zip(out["key"], out["payload"])) == sorted(
            zip(data["key"], data["payload"])
        )

    def test_rejects_wrong_dtype(self):
        with pytest.raises(TypeError):
            mergesort(np.zeros(4))

    @given(st.lists(st.integers(0, 1 << 40), min_size=0, max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_property_matches_numpy(self, keys):
        data = make_tuples(keys)
        out, _ = mergesort(data)
        assert list(out["key"]) == sorted(keys)


class TestQuicksort:
    def test_sorts(self):
        data = random_tuples(333, seed=11)
        out, stats = quicksort(data)
        assert is_key_sorted(out)
        assert stats.merge_passes >= 1

    def test_stable(self):
        data = make_tuples([2, 1, 2, 1])
        out, _ = quicksort(data)
        assert list(out["key"]) == [1, 1, 2, 2]
        assert list(out["payload"]) == [1, 3, 0, 2]


class TestPassCounting:
    def test_two_way(self):
        assert merge_passes_needed(1024, 1, 2) == 10
        assert merge_passes_needed(1024, 16, 2) == 6
        assert merge_passes_needed(1, 1, 2) == 0
        assert merge_passes_needed(0, 1, 2) == 0

    def test_multiway_reduces_passes(self):
        assert merge_passes_needed(1 << 20, 16, 8) == 6   # 8^6 * 16 >= 2^20
        assert merge_passes_needed(1 << 20, 16, 2) == 16
        assert merge_passes_needed(1 << 20, 16, 8) < merge_passes_needed(1 << 20, 16, 2)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            merge_passes_needed(10, 0)
        with pytest.raises(ValueError):
            merge_passes_needed(10, 1, way=1)
