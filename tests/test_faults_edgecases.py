"""Edge cases of the fault-tolerant barrier and delivery protocol.

The corners the property sweep is unlikely to weight: zero-row
relations, single-machine topologies, empty segments inside otherwise
populated shuffles, and the fully adversarial ``drop_prob=1.0``
schedule where *every* delivery is dropped ``max_retries`` times before
the forced final success -- the bounded protocol's convergence
guarantee, exercised end to end through ``announce_all``.
"""

import numpy as np
import pytest

from repro.analytics.tuples import Relation
from repro.faults.plan import NULL_FAULTS, FaultPlan, FaultSpec
from repro.faults.protocol import (
    DeliverySession,
    FaultTolerantShuffleBarrier,
    ResilienceStats,
    combine_stats,
)
from repro.shuffle.engine import ShuffleEngine
from tests.shuffle_helpers import assert_shuffles_identical, make_sources

HOSTILE = FaultSpec(seed=2, straggler_prob=1.0, drop_prob=1.0,
                    duplicate_prob=1.0, timeout_prob=1.0)


def run_pair(sources, dest_maps, num_dest, spec, **kwargs):
    faulted = ShuffleEngine(num_dest, faults=spec, **kwargs).run(
        sources, dest_maps
    )
    clean = ShuffleEngine(num_dest, **kwargs).run(sources, dest_maps)
    return faulted, clean


class TestDegenerateShapes:
    def test_zero_row_relations(self):
        empty = [Relation.empty("a"), Relation.empty("b")]
        maps = [np.empty(0, dtype=np.int64)] * 2
        faulted, clean = run_pair(empty, maps, 4, HOSTILE, permutable=True)
        assert_shuffles_identical(faulted, clean)
        assert faulted.barrier.all_complete()
        # Nothing moved, so nothing could be disrupted.
        assert faulted.resilience.retries == 0
        assert faulted.resilience.degraded_destinations == 0
        assert faulted.resilience.shuffle_b == 0.0

    def test_single_machine_topology(self):
        """One source, one destination: the minimal barrier."""
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 1 << 30, 50, dtype=np.uint64)
        sources = [Relation.from_arrays(keys, keys, "only")]
        maps = [np.zeros(50, dtype=np.int64)]
        faulted, clean = run_pair(sources, maps, 1, HOSTILE, permutable=True)
        assert_shuffles_identical(faulted, clean)
        assert faulted.barrier.all_complete()
        # The single stream is dropped max_retries times, then lands.
        assert faulted.resilience.retries == HOSTILE.max_retries

    def test_empty_segments_between_populated_ones(self):
        """Some sources empty, some destinations receive nothing."""
        rng = np.random.default_rng(4)
        keys = rng.integers(0, 1 << 30, 90, dtype=np.uint64)
        sources = [
            Relation.from_arrays(keys[:40], keys[:40], "s0"),
            Relation.empty("s1"),
            Relation.from_arrays(keys[40:], keys[40:], "s2"),
        ]
        # Only destinations 0 and 3 of 5 ever receive tuples.
        maps = [
            np.where(np.arange(40) % 2 == 0, 0, 3).astype(np.int64),
            np.empty(0, dtype=np.int64),
            np.full(50, 3, dtype=np.int64),
        ]
        faulted, clean = run_pair(sources, maps, 5, HOSTILE, permutable=True)
        assert_shuffles_identical(faulted, clean)
        assert faulted.barrier.all_complete()

    def test_all_dropped_then_retried_accounting(self):
        """drop_prob=1.0: every non-empty stream retries exactly
        max_retries times, and the shuffle still converges."""
        spec = FaultSpec(seed=1, drop_prob=1.0, max_retries=4)
        rng = np.random.default_rng(8)
        sources, maps = make_sources(rng, 3, 4, 120, skew=False)
        faulted, clean = run_pair(sources, maps, 4, spec, permutable=True)
        assert_shuffles_identical(faulted, clean)
        sizes = np.zeros((3, 4), dtype=np.int64)
        for s, dests in enumerate(maps):
            sizes[s] = np.bincount(dests, minlength=4)
        nonzero_streams = int(np.count_nonzero(sizes))
        assert faulted.resilience.retries == nonzero_streams * spec.max_retries
        assert faulted.resilience.degraded_destinations == int(
            np.count_nonzero(sizes.sum(axis=0))
        )


class TestFaultTolerantBarrier:
    def barrier(self, sizes):
        """A sealed barrier announced via ``announce_all``."""
        sizes = np.asarray(sizes, dtype=np.int64)
        b = FaultTolerantShuffleBarrier(sizes.shape[1])
        b.announce_all(sizes)
        b.seal()
        return b

    def test_duplicate_does_not_corrupt_byte_count(self):
        b = self.barrier([[32, 16], [0, 48]])
        b.deliver(0, 32)
        b.discard_duplicate(0, 32)  # the copy is recognized and dropped
        assert b.vault_complete(0)  # not over-delivered
        assert b.duplicates_discarded == 1
        assert b.duplicate_bytes == 32
        # A genuine over-delivery still trips the guard.
        with pytest.raises(ValueError):
            b.deliver(0, 1)

    def test_duplicate_requires_sealed_barrier(self):
        b = FaultTolerantShuffleBarrier(2)
        b.announce(0, 0, 8)
        with pytest.raises(RuntimeError):
            b.discard_duplicate(0, 8)
        with pytest.raises(ValueError):
            self.barrier([[8]]).discard_duplicate(0, -1)

    def test_timeouts_recorded_not_raised(self):
        b = self.barrier([[16]])
        b.record_timeout(0)
        b.record_timeout(0)
        assert b.timeouts == 2
        b.deliver_batch(0, 16)
        assert b.all_complete()

    def test_vault_bounds_checked(self):
        b = self.barrier([[16, 16]])
        with pytest.raises(ValueError):
            b.discard_duplicate(5, 8)
        with pytest.raises(ValueError):
            b.record_timeout(-1)


class TestDeliverySession:
    def test_shape_mismatch_rejected(self):
        plan = FaultPlan.build(FaultSpec(seed=1, drop_prob=0.5), 2, 3)
        with pytest.raises(ValueError):
            DeliverySession(plan, np.zeros((3, 2), dtype=np.int64))
        with pytest.raises(ValueError):
            plan.disrupted_destinations(np.zeros((1, 1)))

    def test_plan_validation(self):
        spec = FaultSpec(seed=1, drop_prob=0.5)
        with pytest.raises(ValueError):
            FaultPlan.build(spec, -1, 3)
        with pytest.raises(ValueError):
            FaultPlan.build(spec, 2, 0)
        with pytest.raises(ValueError):
            FaultPlan.build(spec, 2, 3, salt=-1)

    def test_session_exposes_its_plan(self):
        plan = FaultPlan.build(FaultSpec(seed=1, drop_prob=0.5), 2, 3)
        session = DeliverySession(plan, np.zeros((2, 3), dtype=np.int64))
        assert session.plan is plan
        assert plan.active
        assert not FaultPlan.build(NULL_FAULTS, 2, 3).active


class TestSpecAndStats:
    @pytest.mark.parametrize("bad", [
        {"seed": -1},
        {"drop_prob": 1.5},
        {"duplicate_prob": -0.1},
        {"straggler_slowdown": 0.5},
        {"max_retries": 0},
        {"backoff_base": -1.0},
    ])
    def test_spec_validation(self, bad):
        with pytest.raises(ValueError):
            FaultSpec(**bad)

    def test_spec_dict_round_trip(self):
        spec = FaultSpec(seed=9, drop_prob=0.25, max_retries=5)
        assert FaultSpec.from_dict(spec.to_dict()) == spec
        assert spec.to_dict() == {"seed": 9, "drop_prob": 0.25,
                                  "max_retries": 5}
        with pytest.raises(ValueError):
            FaultSpec.from_dict({"nope": 1})
        assert not NULL_FAULTS.active
        assert NULL_FAULTS.to_dict() == {}

    def test_combine_stats(self):
        assert combine_stats(None, None) is None
        a = ResilienceStats(retries=2, shuffle_b=10.0)
        b = ResilienceStats(retries=3, shuffle_b=5.0)
        merged = combine_stats(a, None, b)
        assert merged.retries == 5
        assert merged.shuffle_b == 15.0
        # Merging never mutates the inputs.
        assert a.retries == 2 and b.retries == 3

    def test_straggler_share_bounds(self):
        stats = ResilienceStats()
        assert stats.straggler_share == 0.0
        stats.shuffle_b = 100.0
        stats.straggler_stall_b = 50.0
        assert 0.0 < stats.straggler_share < 1.0
        meta = stats.to_metadata()
        assert meta["straggler_share"] == stats.straggler_share
        assert isinstance(meta["retries"], int)
