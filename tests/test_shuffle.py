"""Tests for the partitioning-phase shuffle: interleaving models, the
engine's addressed and permutable disciplines, and the barrier protocol."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analytics.tuples import Relation
from repro.columnar.soa import SegmentedColumns
from repro.shuffle import (
    ShuffleEngine,
    arrival_slots,
    random_interleave,
    round_robin_interleave,
    write_traces,
)
from tests.shuffle_helpers import flatten


def relation(keys, name="r"):
    return Relation.from_arrays(
        np.array(keys, dtype=np.uint64),
        np.array(keys, dtype=np.uint64) * np.uint64(7),
        name,
    )


def column(stream_lengths):
    """One destination's stream lengths as a one-column histogram."""
    return np.array(stream_lengths, dtype=np.int64).reshape(-1, 1)


def arrival_pairs(sources):
    """Arrival sources -> list of (src, idx) tuples: under the FIFO
    contract, a source's ``i``-th arrival is element ``i`` of its stream."""
    taken = {}
    pairs = []
    for src in sources.tolist():
        pairs.append((src, taken.get(src, 0)))
        taken[src] = taken.get(src, 0) + 1
    return pairs


class TestInterleave:
    def test_round_robin_order(self):
        assert arrival_pairs(round_robin_interleave(column([2, 2]))) == [
            (0, 0), (1, 0), (0, 1), (1, 1)
        ]

    def test_round_robin_uneven(self):
        assert arrival_pairs(round_robin_interleave(column([3, 1]))) == [
            (0, 0), (1, 0), (0, 1), (0, 2)
        ]

    def test_round_robin_total(self):
        sources = round_robin_interleave(column([5, 0, 3, 7]))
        assert len(sources) == 15 and sources.dtype == np.int64
        assert np.bincount(sources).tolist() == [5, 0, 3, 7]

    def test_round_robin_empty(self):
        sources = round_robin_interleave(column([]))
        assert len(sources) == 0 and sources.dtype == np.int64

    def test_random_preserves_per_source_fifo(self):
        # The model names sources only, so FIFO order within a source
        # holds by contract; every stream must arrive whole.
        sources = random_interleave(column([10, 0, 7]), seed=3)
        assert sources.dtype == np.int64
        assert np.bincount(sources, minlength=3).tolist() == [10, 0, 7]

    def test_random_deterministic_by_seed(self):
        def pairs(seed):
            return arrival_pairs(random_interleave(column([5, 5]), seed=seed))

        assert pairs(1) == pairs(1)
        assert pairs(1) != pairs(2)


#: (source, destination) histograms with the degenerate shapes: zero
#: sources, one destination, destinations that receive nothing.
histograms = st.tuples(st.integers(0, 6), st.integers(1, 6)).flatmap(
    lambda shape: st.lists(
        st.integers(0, 9), min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]
    ).map(lambda counts: np.array(counts, dtype=np.int64).reshape(shape))
)


class TestWholeShuffleModels:
    """A model answers for the whole histogram in one call, exactly as
    destination-by-destination calls would."""

    @given(hist=histograms, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_random_is_a_seeded_permutation_per_destination(self, hist, seed):
        expected = [
            np.repeat(np.arange(hist.shape[0]), hist[:, d])[
                np.random.default_rng(seed).permutation(int(hist[:, d].sum()))
            ]
            for d in range(hist.shape[1])
        ]
        got = random_interleave(hist, seed=seed)
        assert got.dtype == np.int64
        assert got.tolist() == np.concatenate(expected).tolist()

    @given(hist=histograms)
    @settings(max_examples=80, deadline=None)
    def test_round_robin_is_per_destination(self, hist):
        expected = [
            round_robin_interleave(hist[:, [d]]) for d in range(hist.shape[1])
        ]
        got = round_robin_interleave(hist)
        assert got.dtype == np.int64
        assert got.tolist() == np.concatenate(expected).tolist()

    @given(hist=histograms)
    @settings(max_examples=80, deadline=None)
    def test_round_robin_slots_follow_the_model(self, hist):
        # The composite-sort fast path equals the generic path fed the
        # same model's arrivals.
        def via_model(h):
            return round_robin_interleave(h)

        assert arrival_slots(hist, round_robin_interleave).tolist() == (
            arrival_slots(hist, via_model).tolist()
        )


class TestShuffleEngine:
    def _run(self, permutable, interleave=round_robin_interleave):
        sources = [relation([0, 1, 2, 3]), relation([4, 5, 6, 7])]
        dests = [np.array([0, 1, 0, 1]), np.array([1, 0, 1, 0])]
        engine = ShuffleEngine(2, permutable=permutable, interleave=interleave)
        return engine.run(*flatten(sources, dests)), sources, dests

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
        for trace in write_traces(result.histogram, True, round_robin_interleave):
            assert list(trace) == [i * 16 for i in range(len(trace))]

    def test_addressed_trace_is_interleaved(self):
        result, _, _ = self._run(permutable=False)
        # Round-robin across two sources writing to disjoint halves: the
        # arrival-order addresses jump between the halves.
        trace = list(write_traces(result.histogram, False, round_robin_interleave)[0])
        assert trace == [0, 32, 16, 48]

    def test_barrier_completed(self):
        result, _, _ = self._run(permutable=True)
        assert result.barrier.all_complete()

    def test_inbound_histograms(self):
        result, _, _ = self._run(permutable=False)
        assert result.histogram.tolist() == [[2, 2], [2, 2]]
        assert result.total_tuples == 8

    def test_permutable_insensitive_to_interleave_model(self):
        from functools import partial
        rr, _, _ = self._run(True, round_robin_interleave)
        rnd, _, _ = self._run(True, partial(random_interleave, seed=5))
        for d in range(2):
            assert rr.destinations[d].multiset_equal(rnd.destinations[d])

    def test_mismatched_inputs_rejected(self):
        engine = ShuffleEngine(2)
        columns = SegmentedColumns.from_relations([relation([1, 2])])
        with pytest.raises(ValueError):
            engine.run(columns, np.empty(0, dtype=np.int64))
        with pytest.raises(ValueError):
            engine.run(columns, np.array([0]))

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
        result = engine.run(*flatten(sources, dests))
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
        result = engine.run(*flatten([Relation.from_arrays(keys, keys)], [dest]))
        for d in range(num_dest):
            expected = sorted(int(k) for k, dd in zip(keys, dest) if dd == d)
            got = sorted(int(k) for k in result.destinations[d].keys)
            assert expected == got
