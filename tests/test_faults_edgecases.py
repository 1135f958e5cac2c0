"""Edge cases of the shuffle barrier's fault delivery protocol.

The corners the property sweep is unlikely to weight: zero-row
relations, single-machine topologies, empty segments inside otherwise
populated shuffles, and the fully adversarial ``drop_prob=1.0``
schedule where *every* delivery is dropped ``max_retries`` times before
the forced final success -- the bounded protocol's convergence
guarantee, exercised end to end through ``announce_all``.  Each
schedule replays over a finished fault-free shuffle's histogram
(:func:`~repro.shuffle.engine.replay_faults`) and must match the
reference shuffle that replays it inline.
"""

import numpy as np
import pytest

from repro.analytics.tuples import TUPLE_B, Relation
from repro.faults.plan import NULL_FAULTS, FaultPlan, FaultSpec
from repro.faults.protocol import DeliverySession, ResilienceStats, combine_stats
from repro.memctrl.permutable import ShuffleBarrier
from repro.operators.reference import reference_shuffle
from repro.shuffle.engine import ShuffleEngine, replay_faults
from tests.shuffle_helpers import assert_shuffles_identical, flatten, make_sources

HOSTILE = FaultSpec(seed=2, straggler_prob=1.0, drop_prob=1.0,
                    duplicate_prob=1.0, timeout_prob=1.0)


def run_pair(sources, dest_maps, num_dest, spec):
    """The fault-free permutable shuffle and the stats of ``spec``
    replayed over its histogram.  The reference, which replays the
    schedule inline, must produce the same bytes, barrier state and
    stats."""
    clean = ShuffleEngine(num_dest, permutable=True).run(
        *flatten(sources, dest_maps)
    )
    stats = replay_faults(clean.histogram, spec, 0)
    faulted, traces, ref_stats = reference_shuffle(
        sources, dest_maps, num_dest, permutable=True, faults=spec
    )
    assert_shuffles_identical(clean, faulted, ref_traces=traces)
    assert faulted.barrier.all_complete()
    assert stats == ref_stats
    return stats


class TestDegenerateShapes:
    def test_zero_row_relations(self):
        empty = [Relation.empty("a"), Relation.empty("b")]
        maps = [np.empty(0, dtype=np.int64)] * 2
        stats = run_pair(empty, maps, 4, HOSTILE)
        # Nothing moved, so nothing could be disrupted.
        assert stats.retries == 0
        assert stats.degraded_destinations == 0
        assert stats.shuffle_b == 0.0

    def test_single_machine_topology(self):
        """One source, one destination: the minimal barrier."""
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 1 << 30, 50, dtype=np.uint64)
        sources = [Relation.from_arrays(keys, keys, "only")]
        maps = [np.zeros(50, dtype=np.int64)]
        stats = run_pair(sources, maps, 1, HOSTILE)
        # The single stream is dropped max_retries times, then lands.
        assert stats.retries == HOSTILE.max_retries

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
        stats = run_pair(sources, maps, 5, HOSTILE)
        assert stats.degraded_destinations == 2

    def test_all_dropped_then_retried_accounting(self):
        """drop_prob=1.0: every non-empty stream retries exactly
        max_retries times, and the shuffle still converges."""
        spec = FaultSpec(seed=1, drop_prob=1.0, max_retries=4)
        rng = np.random.default_rng(8)
        sources, maps = make_sources(rng, 3, 4, 120, skew=False)
        stats = run_pair(sources, maps, 4, spec)
        sizes = np.zeros((3, 4), dtype=np.int64)
        for s, dests in enumerate(maps):
            sizes[s] = np.bincount(dests, minlength=4)
        nonzero_streams = int(np.count_nonzero(sizes))
        assert stats.retries == nonzero_streams * spec.max_retries
        assert stats.degraded_destinations == int(
            np.count_nonzero(sizes.sum(axis=0))
        )


class TestDeliveryCalls:
    """How many barrier updates one shuffle makes: one bulk delivery of
    every destination when fault-free; replaying a schedule, one bulk
    delivery of the healthy destinations plus one of the destinations a
    fault disrupted (if any); never a scalar delivery."""

    @staticmethod
    def spy(monkeypatch):
        calls = {"deliver": [], "deliver_all": 0}
        deliver, deliver_all = ShuffleBarrier.deliver, ShuffleBarrier.deliver_all

        def spy_deliver(self, dest, size_b):
            calls["deliver"].append(dest)
            deliver(self, dest, size_b)

        def spy_deliver_all(self, sizes_b):
            calls["deliver_all"] += 1
            deliver_all(self, sizes_b)

        monkeypatch.setattr(ShuffleBarrier, "deliver", spy_deliver)
        monkeypatch.setattr(ShuffleBarrier, "deliver_all", spy_deliver_all)
        return calls

    def test_fault_free_shuffle_delivers_in_bulk_once(self, monkeypatch):
        sources, maps = make_sources(np.random.default_rng(3), 4, 8, 200, skew=False)
        columns, dest = flatten(sources, maps)
        calls = self.spy(monkeypatch)
        result = ShuffleEngine(8).run(columns, dest)
        assert calls == {"deliver": [], "deliver_all": 1}
        assert result.barrier.all_complete()

    def test_disrupted_destinations_retire_in_a_second_bulk_call(self, monkeypatch):
        spec = FaultSpec(seed=3, drop_prob=0.3)
        sources, maps = make_sources(np.random.default_rng(5), 4, 8, 200, skew=False)
        result = ShuffleEngine(8).run(*flatten(sources, maps))
        calls = self.spy(monkeypatch)
        stats = replay_faults(result.histogram, spec, 0)
        plan = FaultPlan.build(spec, 4, 8)
        disrupted = np.flatnonzero(
            plan.disrupted_destinations(result.histogram * TUPLE_B)
        ).tolist()
        assert 0 < len(disrupted) < 8  # some destinations healthy, some not
        assert calls == {"deliver": [], "deliver_all": 2}
        assert stats.degraded_destinations == len(disrupted)


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

    def test_plan_is_active_when_a_fault_can_fire(self):
        plan = FaultPlan.build(FaultSpec(seed=1, drop_prob=0.5), 2, 3)
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
