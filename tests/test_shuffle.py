"""Tests for the partitioning-phase shuffle: interleaving models, the
engine's addressed and permutable disciplines, and the barrier protocol."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analytics.tuples import Relation
from repro.shuffle import (
    ShuffleEngine,
    random_interleave,
    round_robin_interleave,
)


def relation(keys, name="r"):
    return Relation.from_arrays(
        np.array(keys, dtype=np.uint64),
        np.array(keys, dtype=np.uint64) * np.uint64(7),
        name,
    )


def arrival_pairs(order):
    """(sources, indices) arrays -> list of (src, idx) tuples."""
    sources, indices = order
    return list(zip(sources.tolist(), indices.tolist()))


class TestInterleave:
    def test_round_robin_order(self):
        assert arrival_pairs(round_robin_interleave([2, 2])) == [
            (0, 0), (1, 0), (0, 1), (1, 1)
        ]

    def test_round_robin_uneven(self):
        assert arrival_pairs(round_robin_interleave([3, 1])) == [
            (0, 0), (1, 0), (0, 1), (0, 2)
        ]

    def test_round_robin_total(self):
        sources, indices = round_robin_interleave([5, 0, 3, 7])
        assert len(sources) == len(indices) == 15
        assert sources.dtype == np.int64 and indices.dtype == np.int64

    def test_round_robin_empty(self):
        sources, indices = round_robin_interleave([])
        assert len(sources) == 0 and len(indices) == 0

    def test_random_preserves_per_source_fifo(self):
        order = arrival_pairs(random_interleave([10, 10], seed=3))
        for src in (0, 1):
            idxs = [i for s, i in order if s == src]
            assert idxs == sorted(idxs)

    def test_random_deterministic_by_seed(self):
        assert arrival_pairs(random_interleave([5, 5], seed=1)) == arrival_pairs(
            random_interleave([5, 5], seed=1)
        )
        assert arrival_pairs(random_interleave([5, 5], seed=1)) != arrival_pairs(
            random_interleave([5, 5], seed=2)
        )


class TestShuffleEngine:
    def _run(self, permutable, interleave=round_robin_interleave):
        sources = [relation([0, 1, 2, 3]), relation([4, 5, 6, 7])]
        dests = [np.array([0, 1, 0, 1]), np.array([1, 0, 1, 0])]
        engine = ShuffleEngine(2, permutable=permutable, interleave=interleave)
        return engine.run(sources, dests), sources, dests

    def test_addressed_places_by_offset(self):
        result, sources, dests = self._run(permutable=False)
        # Destination 0 gets source0's {0,2} then source1's {5,7}.
        assert list(result.destinations[0].keys) == [0, 2, 5, 7]
        assert list(result.destinations[1].keys) == [1, 3, 4, 6]

    def test_permutable_preserves_multiset(self):
        addr, _, _ = self._run(permutable=False)
        perm, _, _ = self._run(permutable=True)
        for d in range(2):
            assert perm.destinations[d].multiset_equal(addr.destinations[d])

    def test_permutable_trace_is_sequential(self):
        result, _, _ = self._run(permutable=True)
        for trace in result.write_traces:
            assert list(trace) == [i * 16 for i in range(len(trace))]

    def test_addressed_trace_is_interleaved(self):
        result, _, _ = self._run(permutable=False)
        # Round-robin across two sources writing to disjoint halves: the
        # arrival-order addresses jump between the halves.
        trace = list(result.write_traces[0])
        assert trace != sorted(trace)

    def test_barrier_completed(self):
        result, _, _ = self._run(permutable=True)
        assert result.barrier.all_complete()

    def test_inbound_histograms(self):
        result, _, _ = self._run(permutable=False)
        assert list(result.inbound_histograms[0]) == [2, 2]
        assert result.total_tuples == 8

    def test_permutable_insensitive_to_interleave_model(self):
        from functools import partial
        rr, _, _ = self._run(True, round_robin_interleave)
        rnd, _, _ = self._run(True, partial(random_interleave, seed=5))
        for d in range(2):
            assert rr.destinations[d].multiset_equal(rnd.destinations[d])

    def test_mismatched_inputs_rejected(self):
        engine = ShuffleEngine(2)
        with pytest.raises(ValueError):
            engine.run([relation([1])], [])
        with pytest.raises(ValueError):
            engine.run([relation([1, 2])], [np.array([0])])

    def test_bad_construction_rejected(self):
        with pytest.raises(ValueError):
            ShuffleEngine(0)

    @given(
        st.lists(
            st.lists(st.integers(0, 1 << 30), min_size=0, max_size=30),
            min_size=1,
            max_size=6,
        ),
        st.integers(1, 5),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_no_tuples_lost(self, source_keys, num_dest, permutable):
        sources = [relation(keys, f"s{i}") for i, keys in enumerate(source_keys)]
        rng = np.random.default_rng(42)
        dests = [
            rng.integers(0, num_dest, size=len(keys)).astype(np.int64)
            for keys in source_keys
        ]
        engine = ShuffleEngine(num_dest, permutable=permutable)
        result = engine.run(sources, dests)
        all_in = sorted(k for keys in source_keys for k in keys)
        all_out = sorted(
            int(k) for d in result.destinations for k in d.keys
        )
        assert all_in == all_out

    @given(st.integers(2, 40), st.integers(1, 4), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_property_routing_respected(self, n, num_dest, permutable):
        rng = np.random.default_rng(n)
        keys = rng.integers(0, 1 << 20, n, dtype=np.uint64)
        dest = rng.integers(0, num_dest, n).astype(np.int64)
        engine = ShuffleEngine(num_dest, permutable=permutable)
        result = engine.run([Relation.from_arrays(keys, keys)], [dest])
        for d in range(num_dest):
            expected = sorted(int(k) for k, dd in zip(keys, dest) if dd == d)
            got = sorted(int(k) for k in result.destinations[d].keys)
            assert expected == got
