"""Direct tests for the shared partitioning phase: destination maps,
phase-cost construction and the functional shuffle integration."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analytics.tuples import Relation
from repro.analytics.workload import make_sort_workload
from repro.operators.base import OperatorVariant
from repro.operators.partition import (
    SCHEME_HIGH_BITS,
    SCHEME_LOW_BITS,
    destination_map,
    distribute_cost,
    histogram_cost,
    run_partitioning,
)
from repro.shuffle import get_interleave, write_traces

P = 8


def variant(permutable=False, simd=False, radix=6):
    return OperatorVariant(
        radix_bits=radix, probe_algorithm="sort", permutable=permutable,
        simd=simd, num_partitions=P,
    )


def relation(keys):
    keys = np.array(keys, dtype=np.uint64)
    return Relation.from_arrays(keys, keys)


class TestDestinationMap:
    def test_low_bits_fold_onto_partitions(self):
        rel = relation([0, 1, 7, 8, 9, 63])
        dests = destination_map(rel, variant(radix=6), SCHEME_LOW_BITS, 48)
        assert list(dests) == [0, 1, 7, 0, 1, 7]  # bucket % 8

    def test_low_bits_equal_keys_colocate(self):
        rel = relation([42, 42, 42])
        dests = destination_map(rel, variant(radix=16), SCHEME_LOW_BITS, 48)
        assert len(set(dests)) == 1

    def test_high_bits_order_preserving(self):
        # Range partitioning: partition ids must be monotone in key.
        keys = np.sort(
            np.random.default_rng(1).integers(0, 1 << 48, 500, dtype=np.uint64)
        )
        dests = destination_map(relation(keys), variant(), SCHEME_HIGH_BITS, 48)
        assert all(dests[i] <= dests[i + 1] for i in range(len(dests) - 1))

    def test_high_bits_cover_all_partitions(self):
        keys = np.linspace(0, (1 << 48) - 1, 1000).astype(np.uint64)
        dests = destination_map(relation(keys), variant(), SCHEME_HIGH_BITS, 48)
        assert set(dests) == set(range(P))

    def test_high_bits_in_range(self):
        keys = np.array([(1 << 48) - 1], dtype=np.uint64)
        dests = destination_map(relation(keys), variant(), SCHEME_HIGH_BITS, 48)
        assert 0 <= dests[0] < P

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            destination_map(relation([1]), variant(), "middle", 48)

    @given(st.integers(1, 1000))
    @settings(max_examples=25, deadline=None)
    def test_property_low_bits_deterministic_colocation(self, n):
        rng = np.random.default_rng(n)
        keys = rng.integers(0, 1 << 30, n, dtype=np.uint64)
        dests = destination_map(relation(keys), variant(radix=6), SCHEME_LOW_BITS, 48)
        # Equal keys always share a destination.
        for key in np.unique(keys)[:20]:
            assert len(set(dests[keys == key])) == 1


class TestPhaseCosts:
    def test_histogram_cost_region_tracks_radix(self):
        small = histogram_cost(1000, variant(radix=6))
        big = histogram_cost(1000, variant(radix=16))
        assert small.rand_region_b == 64 * 8
        assert big.rand_region_b == 65536 * 8

    def test_histogram_simd_fully_vectorized(self):
        scalar = histogram_cost(1000, variant(simd=False))
        simd = histogram_cost(1000, variant(simd=True))
        assert scalar.simd_ops == 0
        assert simd.simd_ops == simd.instructions

    def test_distribute_permutable_fewer_instructions(self):
        addr = distribute_cost(1000, variant(permutable=False))
        perm = distribute_cost(1000, variant(permutable=True))
        assert perm.instructions < addr.instructions
        # Paper: ~1.7x simpler code.
        assert 1.3 < addr.instructions / perm.instructions < 3.0

    def test_distribute_shuffle_bytes(self):
        cost = distribute_cost(1000, variant(permutable=True))
        assert cost.shuffle_b == 1000 * 16
        assert cost.permutable_writes

    def test_distribute_addressed_partial_simd_only(self):
        addr = distribute_cost(1000, variant(permutable=False, simd=True))
        assert 0 < addr.simd_ops < addr.instructions
        perm = distribute_cost(1000, variant(permutable=True, simd=True))
        assert perm.simd_ops == perm.instructions


class TestRunPartitioning:
    def test_functional_and_costed(self):
        w = make_sort_workload(2000, P, seed=1)
        outcome = run_partitioning(w.flat, variant(), SCHEME_HIGH_BITS, 48)
        assert len(outcome.partitions) == P
        assert sum(len(p) for p in outcome.partitions) == 2000
        assert [p.category for p in outcome.phases] == ["histogram", "distribute"]

    def test_model_scale_scales_costs_only(self):
        w = make_sort_workload(1000, P, seed=2)
        base = run_partitioning(w.flat, variant(), SCHEME_LOW_BITS, 48)
        scaled = run_partitioning(
            w.flat, variant(), SCHEME_LOW_BITS, 48, model_scale=50.0
        )
        assert sum(len(p) for p in scaled.partitions) == 1000  # data unchanged
        assert scaled.phases[1].shuffle_b == pytest.approx(base.phases[1].shuffle_b * 50)

    def test_permutable_and_addressed_same_multisets(self):
        w = make_sort_workload(1500, P, seed=3)
        addr = run_partitioning(w.flat, variant(False), SCHEME_LOW_BITS, 48)
        perm = run_partitioning(w.flat, variant(True), SCHEME_LOW_BITS, 48)
        for a, p in zip(addr.partitions, perm.partitions):
            assert a.multiset_equal(p)

    def test_rejects_bad_scale(self):
        w = make_sort_workload(100, P, seed=4)
        with pytest.raises(ValueError):
            run_partitioning(w.flat, variant(), SCHEME_LOW_BITS, 48, model_scale=0)

    def test_shuffle_traces_exported(self):
        w = make_sort_workload(500, P, seed=5)
        v = variant(True)
        outcome = run_partitioning(w.flat, v, SCHEME_LOW_BITS, 48)
        traces = write_traces(
            outcome.shuffle.histogram, v.permutable, get_interleave(v.interleave)
        )
        assert len(traces) == P
        total = sum(len(t) for t in traces)
        assert total == 500
