"""Production-against-reference equivalence matrix.

Each production execution path has exactly one slow reference in
:mod:`repro.operators.reference`; this matrix pins them byte-identical.

- **Shuffle**: write discipline x interleave model x fault schedule x
  input shape, comparing destinations, the (source, destination)
  histogram, barrier state and the write traces
  :func:`~repro.shuffle.engine.write_traces` derives from the histogram
  against the ones the reference records per arriving tuple.  The
  reference replays the schedule inline; its ``ResilienceStats`` must
  equal :func:`~repro.shuffle.engine.replay_faults` over the fault-free
  production shuffle's histogram.
  The engine routes one relation's flat columns in one pass; the
  reference walks the same relation cut into per-source pieces at
  random, empty pieces included.
- **Operators**: operator x preset x fault schedule x workload, each
  production run (priced by ``Machine.run_operator``) and its reference
  (which replays the schedule inline) costed by the same
  ``Machine.evaluate_run`` and compared phase by phase.
- **Skew planning**: histogram shape x capacity, comparing the columnar
  rebalance plan field by field against the dict-building loop (or the
  same ``ValueError``), and the one-call plan applier over a whole
  relation against the reference applied to random per-source pieces.

The file also carries the pieces the production shuffle and sort are
built from (frozen barrier totals, the vectorized merge pass) and the
check that the parallel experiment runtime (``run_all --jobs N``)
reproduces the sequential report.
"""

import os
import subprocess
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics.tuples import TUPLE_DTYPE, Relation
from repro.analytics.workload import (
    make_groupby_workload,
    make_join_workload,
    make_scan_workload,
    make_sort_workload,
)
from repro.columnar.soa import SegmentedColumns
from repro.config.system import get_preset
from repro.experiments import common
from repro.faults.plan import NULL_FAULTS, FaultPlan, FaultSpec
from repro.faults.protocol import DeliverySession
from repro.memctrl.permutable import ShuffleBarrier
from repro.operators.groupby import AGGREGATE_NAMES
from repro.analytics.skew import make_skewed_groupby_workload
from repro.analytics.hashing import bucket_of_low_bits
from repro.operators.reference import (
    REFERENCE_RUNNERS,
    ReferencePlanApplier,
    ScalarDeliverySession,
    merge_pass_scalar,
    reference_plan_rebalance,
    reference_shuffle,
)
from repro.operators.skew import apply_plan, plan_rebalance
from repro.operators.sort_algos import merge_pass, mergesort
from repro.shuffle.engine import ShuffleEngine
from repro.shuffle.interleave import random_interleave, round_robin_interleave
from repro.systems.machine import Machine
from tests.shuffle_helpers import (
    assert_shuffles_identical,
    fault_specs,
    flatten,
    make_sources,
    replayed_stats,
)

ROOT = Path(__file__).resolve().parents[1]

#: Every stream dropped max_retries times, duplicated, timed out and
#: straggling: every destination with inbound traffic degrades.
HOSTILE = FaultSpec(seed=2, straggler_prob=1.0, drop_prob=1.0,
                    duplicate_prob=1.0, timeout_prob=1.0)

#: Some streams dropped or duplicated: healthy and degraded
#: destinations side by side.
MIXED = FaultSpec(seed=13, straggler_prob=0.4, drop_prob=0.35,
                  duplicate_prob=0.25, timeout_prob=0.3)

FAULTS = {"none": NULL_FAULTS, "mixed": MIXED, "hostile": HOSTILE}

def reverse_drain_interleave(histogram):
    """Each source's stream whole, last source first, at every
    destination: a FIFO model that is neither round-robin nor random,
    so it takes the generic arrival path of
    :func:`repro.shuffle.engine.arrival_slots`."""
    reversed_hist = np.asarray(histogram, dtype=np.int64)[::-1]
    num_src, num_dest = reversed_hist.shape
    sources = np.arange(num_src, dtype=np.int64)[::-1]
    return np.repeat(np.tile(sources, num_dest), reversed_hist.T.reshape(-1))


INTERLEAVES = {
    "round-robin": round_robin_interleave,
    "random": partial(random_interleave, seed=11),
    "reverse-drain": reverse_drain_interleave,
}


def shuffle_shape(name):
    """``(sources, dest_maps, num_destinations)`` for one input shape."""
    rng = np.random.default_rng(7)
    if name == "empty-sources":
        empty = [Relation.empty("a"), Relation.empty("b")]
        return empty, [np.empty(0, dtype=np.int64)] * 2, 4
    if name == "singleton":
        keys = np.array([5, 9, 12], dtype=np.uint64)
        sources = [
            Relation.from_arrays(keys[i : i + 1], keys[i : i + 1], f"s{i}")
            for i in range(3)
        ] + [Relation.empty("s3")]
        maps = [np.array([d], dtype=np.int64) for d in (0, 2, 2)]
        return sources, maps + [np.empty(0, dtype=np.int64)], 4
    if name == "sparse-64":
        return (*make_sources(rng, 5, 64, 40, skew=False), 64)
    assert name == "skewed-2000"
    return (*make_sources(rng, 5, 8, 2000, skew=True), 8)


@pytest.mark.parametrize(
    "shape", ["empty-sources", "singleton", "sparse-64", "skewed-2000"]
)
@pytest.mark.parametrize("faults", FAULTS)
@pytest.mark.parametrize("interleave", INTERLEAVES)
@pytest.mark.parametrize("permutable", [False, True])
def test_shuffle_matches_reference(permutable, interleave, faults, shape):
    sources, dest_maps, num_dest = shuffle_shape(shape)
    config = dict(permutable=permutable, interleave=INTERLEAVES[interleave])
    prod = ShuffleEngine(num_dest, **config).run(*flatten(sources, dest_maps))
    ref, ref_traces, ref_stats = reference_shuffle(
        sources, dest_maps, num_dest, faults=FAULTS[faults], fault_salt=3,
        **config,
    )
    # The reference replays the schedule inline; production shuffles
    # fault-free and the schedule replays over its histogram.
    assert_shuffles_identical(prod, ref, config["interleave"], ref_traces)
    assert replayed_stats(prod, FAULTS[faults], 3) == ref_stats
    assert (ref_stats is None) == (faults == "none")
    assert prod.barrier.all_complete()
    # The SoA view mirrors the destinations without copying.
    flat = np.concatenate([d.data for d in prod.destinations])
    assert np.array_equal(prod.columns.keys, flat["key"])
    assert np.array_equal(prod.columns.payloads, flat["payload"])
    if prod.total_tuples:
        full = max(range(num_dest), key=lambda d: len(prod.destinations[d]))
        assert np.shares_memory(prod.columns.keys, prod.destinations[full].data)


@settings(max_examples=40, deadline=None)
@given(spec=fault_specs, rng_seed=st.integers(0, 2**20), permutable=st.booleans())
def test_shuffle_matches_reference_under_any_schedule(spec, rng_seed, permutable):
    rng = np.random.default_rng(rng_seed)
    sources, dest_maps = make_sources(rng, 4, 6, 150, skew=True)
    prod = ShuffleEngine(6, permutable=permutable).run(
        *flatten(sources, dest_maps)
    )
    ref, ref_traces, ref_stats = reference_shuffle(
        sources, dest_maps, 6, permutable=permutable, faults=spec, fault_salt=1
    )
    assert_shuffles_identical(prod, ref, ref_traces=ref_traces)
    assert replayed_stats(prod, spec, 1) == ref_stats


def random_split(rng, n, pieces):
    """Cut ``[0, n)`` at ``pieces - 1`` random points (repeats allowed,
    so some pieces are empty); returns the ``pieces + 1`` bounds."""
    cuts = np.sort(rng.integers(0, n + 1, pieces - 1))
    return np.concatenate(([0], cuts, [n])).astype(np.int64)


class TestOnePassShuffle:
    """One relation routed whole against the reference walking it as
    per-source pieces: the engine's segments are the reference's
    sources, so the two must agree byte for byte."""

    @pytest.mark.parametrize("faults", ["none", "mixed"])
    @pytest.mark.parametrize("interleave", ["round-robin", "random"])
    @pytest.mark.parametrize("permutable", [False, True])
    @pytest.mark.parametrize("n, pieces, seed", [
        (0, 5, 0),  # an all-empty relation
        (1, 4, 1),
        (600, 9, 2),
        (2500, 64, 3),  # most cuts far apart, a few repeated
    ])
    def test_matches_reference_over_random_splits(
        self, permutable, interleave, faults, n, pieces, seed
    ):
        rng = np.random.default_rng(seed)
        keys = rng.integers(0, 1 << 40, n, dtype=np.uint64)
        table = Relation.from_arrays(keys, keys * np.uint64(3), "table")
        bounds = random_split(rng, n, pieces)
        num_dest = 7
        dest = rng.integers(0, num_dest, n).astype(np.int64)
        sources = [
            Relation(table.data[int(lo):int(hi)], f"table/p{i}")
            for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))
        ]
        columns = SegmentedColumns.from_relations(sources)
        assert np.array_equal(columns.segments, bounds)
        config = dict(permutable=permutable, interleave=INTERLEAVES[interleave])
        prod = ShuffleEngine(num_dest, **config).run(columns, dest)
        ref, ref_traces, ref_stats = reference_shuffle(
            sources,
            [dest[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])],
            num_dest,
            faults=FAULTS[faults],
            fault_salt=5,
            **config,
        )
        assert_shuffles_identical(prod, ref, config["interleave"], ref_traces)
        assert replayed_stats(prod, FAULTS[faults], 5) == ref_stats
        assert (ref_stats is None) == (faults == "none")
        assert prod.histogram.shape == (pieces, num_dest)
        assert np.array_equal(prod.buffer, ref.buffer)
        assert [d.name for d in prod.destinations] == [
            d.name for d in ref.destinations
        ]

    def test_length_mismatch_rejected(self):
        columns = SegmentedColumns.from_relations(
            [Relation.from_arrays(np.arange(3, dtype=np.uint64),
                                  np.arange(3, dtype=np.uint64))]
        )
        for dest in (np.zeros(2, dtype=np.int64), np.zeros(4, dtype=np.int64)):
            with pytest.raises(ValueError, match="destination map length "
                               "must match relation"):
                ShuffleEngine(2).run(columns, dest)

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_out_of_range_destination_rejected(self, bad):
        columns = SegmentedColumns.from_relations(
            [Relation.from_arrays(np.arange(3, dtype=np.uint64),
                                  np.arange(3, dtype=np.uint64))]
        )
        with pytest.raises(ValueError, match="bucket ids out of range"):
            ShuffleEngine(2).run(columns, np.array([0, bad, 1], dtype=np.int64))


#: Functional workload per (shape, operator).  "sparse" leaves most of
#: 64 partitions empty; "singleton" is one- or two-tuple relations;
#: "large-group" puts many tuples on one key (a narrow key space, or
#: ~75 rows per group / per R key).
WORKLOADS = {
    "sparse": {
        "scan": lambda: make_scan_workload(150, 64, seed=3),
        "sort": lambda: make_sort_workload(150, 64, seed=3),
        "groupby": lambda: make_groupby_workload(150, 64, seed=3),
        "join": lambda: make_join_workload(40, 150, 64, seed=3),
    },
    "singleton": {
        "scan": lambda: make_scan_workload(1, 1, seed=4),
        "sort": lambda: make_sort_workload(2, 2, seed=4),
        "groupby": lambda: make_groupby_workload(1, 1, seed=4),
        "join": lambda: make_join_workload(1, 2, 2, seed=4),
    },
    "large-group": {
        "scan": lambda: make_scan_workload(2000, 4, seed=5, key_space_bits=8),
        "sort": lambda: make_sort_workload(2000, 4, seed=5, key_space_bits=8),
        "groupby": lambda: make_groupby_workload(
            150, 64, avg_group_size=75.0, seed=5
        ),
        "join": lambda: make_join_workload(40, 3000, 64, seed=5),
    },
}


def operator_workload(name, operator):
    """``(workload, scale_factor)``; "default" is the experiments' own
    memoized workload at a paper-like model scale."""
    if name == "default":
        return common.make_workload(operator), 500.0
    return WORKLOADS[name][operator](), 1.0


def _assert_results_identical(operator, prod, ref):
    assert [p.phase for p in prod.phase_perfs] == [p.phase for p in ref.phase_perfs]
    assert [p.time_s for p in prod.phase_perfs] == [p.time_s for p in ref.phase_perfs]
    assert prod.energy.total_j == ref.energy.total_j
    if operator == "sort":
        assert np.array_equal(prod.output.data, ref.output.data)
        assert prod.output.name == ref.output.name
    elif operator == "groupby":
        # Same keys in the same order, byte-identical aggregate columns.
        assert prod.output.keys.dtype == ref.output.keys.dtype == np.uint64
        assert prod.output.keys.tolist() == ref.output.keys.tolist()
        for name in AGGREGATE_NAMES:
            got, want = getattr(prod.output, name), getattr(ref.output, name)
            assert got.dtype == want.dtype == np.float64
            assert got.tobytes() == want.tobytes(), name
    else:
        assert prod.output == ref.output
    assert prod.metadata == ref.metadata


@pytest.mark.parametrize("workload", ["default", "sparse", "singleton", "large-group"])
@pytest.mark.parametrize("faults", FAULTS)
@pytest.mark.parametrize("preset", ["cpu", "nmp-rand", "nmp-seq", "mondrian"])
@pytest.mark.parametrize("operator", ["scan", "sort", "groupby", "join"])
def test_operator_matches_reference(operator, preset, faults, workload):
    machine = Machine(replace(get_preset(preset), faults=FAULTS[faults]))
    data, scale = operator_workload(workload, operator)
    prod = machine.run_operator(operator, data, scale)
    ref = machine.evaluate_run(
        REFERENCE_RUNNERS[operator](
            data, machine.variant(data.num_partitions), model_scale=scale
        )
    )
    _assert_results_identical(operator, prod, ref)
    shuffles = operator != "scan"
    assert ("resilience" in prod.metadata) == (shuffles and faults != "none")


def replay(session_cls, plan, sizes_b):
    """Retire every destination of ``sizes_b`` through ``session_cls``;
    returns its stats and the barrier's completion vector."""
    barrier = ShuffleBarrier(max(sizes_b.shape))
    barrier.announce_all(sizes_b)
    barrier.seal()
    session = session_cls(plan, sizes_b)
    session.deliver(barrier)
    stats = session.finalize()
    return stats, barrier.completion_vector()


class TestFaultReplayEdgeCases:
    """The array replay against the stream-by-stream scalar oracle."""

    @staticmethod
    def plan(spec, drop_rounds, duplicates, timeout_rounds=None):
        drop_rounds = np.asarray(drop_rounds, dtype=np.int64)
        num_src, num_dest = drop_rounds.shape
        if timeout_rounds is None:
            timeout_rounds = np.zeros(num_dest, dtype=np.int64)
        return FaultPlan(
            spec=spec,
            num_sources=num_src,
            num_destinations=num_dest,
            salt=0,
            straggler_factor=np.ones(num_src),
            drop_rounds=drop_rounds,
            duplicates=np.asarray(duplicates, dtype=np.int64),
            timeout_rounds=np.asarray(timeout_rounds, dtype=np.int64),
        )

    def assert_replays_match(self, plan, sizes_b):
        sizes_b = np.asarray(sizes_b, dtype=np.int64)
        prod, prod_barrier = replay(DeliverySession, plan, sizes_b)
        ref, ref_barrier = replay(ScalarDeliverySession, plan, sizes_b)
        assert prod == ref
        assert prod_barrier == ref_barrier
        return prod

    def test_drops_capped_at_max_retries(self):
        spec = FaultSpec(seed=1, drop_prob=0.5, max_retries=2, backoff_base=0.3)
        plan = self.plan(spec, [[9, 1], [2, 0]], [[0, 0], [0, 0]])
        stats = self.assert_replays_match(plan, [[96, 32], [48, 16]])
        assert stats.retries == 2 + 1 + 2  # the 9 drops stop at max_retries
        assert stats.backoff_stalls == stats.retries

    def test_drops_and_duplicates_on_one_destination(self):
        spec = FaultSpec(seed=1, drop_prob=0.5, duplicate_prob=0.5,
                         backoff_base=0.7)
        plan = self.plan(spec, [[3], [0], [1]], [[1], [1], [0]])
        stats = self.assert_replays_match(plan, [[24], [40], [56]])
        assert stats.degraded_destinations == 1
        assert (stats.retries, stats.duplicates_discarded) == (4, 2)
        assert stats.duplicate_b == 24 + 40

    def test_zero_byte_stream_is_not_replayed(self):
        # Source 1 sends nothing to destination 0: its scheduled drops
        # and duplicate have nothing to act on.
        spec = FaultSpec(seed=1, drop_prob=0.5, duplicate_prob=0.5)
        plan = self.plan(spec, [[1, 0], [3, 3], [0, 2]], [[0, 1], [1, 0], [1, 0]])
        stats = self.assert_replays_match(plan, [[8, 16], [0, 24], [32, 8]])
        assert stats.retries == 1 + 3 + 2
        assert stats.duplicates_discarded == 2

    def test_timeouts_and_drops_on_several_destinations(self):
        # Destinations 0, 2 and 3 are disrupted, 1 and 4 healthy;
        # destinations 0, 1 and 3 time out, 4 would but receives
        # nothing.  These sizes and backoff make the float totals differ
        # under a source-major, a reversed or a timeout-reversed fold.
        spec = FaultSpec(seed=1, drop_prob=0.5, duplicate_prob=0.5,
                         timeout_prob=0.5, max_retries=3, backoff_base=0.29)
        plan = self.plan(
            spec,
            [[2, 0, 1, 0, 0], [0, 0, 3, 1, 0], [3, 0, 0, 2, 0]],
            [[0, 0, 1, 0, 0], [1, 0, 0, 0, 0], [0, 0, 1, 1, 0]],
            timeout_rounds=[2, 1, 0, 3, 1],
        )
        sizes_b = [[2528, 2800, 256, 0, 0], [1072, 0, 480, 2752, 0],
                   [2864, 2544, 0, 736, 0]]
        stats = self.assert_replays_match(plan, sizes_b)
        assert stats.degraded_destinations == 3
        assert stats.retries == 2 + 3 + 1 + 3 + 1 + 2
        assert stats.duplicates_discarded == 1 + 1 + 1
        assert stats.timeout_rounds == 2 + 1 + 3
        assert stats.backoff_stalls == stats.retries + stats.timeout_rounds

    @pytest.mark.parametrize("max_retries", [1, 4])
    def test_every_attempt_dropped(self, max_retries):
        spec = FaultSpec(seed=5, drop_prob=1.0, duplicate_prob=0.3,
                         max_retries=max_retries, backoff_base=0.1)
        rng = np.random.default_rng(max_retries)
        sizes_b = rng.integers(0, 50, (6, 5)) * 16
        sizes_b[2] = 0  # one silent source
        plan = FaultPlan.build(spec, 6, 5, salt=9)
        stats = self.assert_replays_match(plan, sizes_b)
        assert stats.retries == np.count_nonzero(sizes_b) * max_retries


class TestBarrierFrozenTotals:
    def test_expected_bytes_before_and_after_seal(self):
        barrier = ShuffleBarrier(2)
        assert barrier.expected_bytes(1) == 0  # nothing announced yet
        barrier.announce_all(np.array([[0, 48], [0, 16]]))
        assert barrier.expected_bytes(1) == 64  # pre-seal: announced sum
        barrier.seal()
        assert barrier.expected_bytes(1) == 64  # post-seal: frozen
        with pytest.raises(RuntimeError):
            barrier.announce_all(np.array([[8, 0], [0, 0]]))  # never stale


def skew_histogram(name):
    """``(bucket_histogram, num_vaults, capacity_tuples)`` for one shape."""
    if name == "all-zero":
        return np.zeros(64, dtype=np.int64), 8, 1
    if name == "all-tied":
        return np.full(64, 5, dtype=np.int64), 8, 40
    if name == "hot-across-every-vault":
        # One bucket larger than seven vaults' room: its shares land on
        # all eight vaults.
        hist = np.zeros(64, dtype=np.int64)
        hist[17] = 750
        hist[40:48] = 6
        return hist, 8, 100
    if name == "capacity-met-exactly":
        # Total equals num_vaults * capacity: every vault fills up.
        hist = np.zeros(32, dtype=np.int64)
        hist[[3, 9]] = [90, 30]
        hist[10:30] = 1
        return hist, 4, 35
    if name == "cpu-radix-zipf":
        # A 2**16-bucket CPU histogram of a zipf group-by, as query
        # suites plan it.
        w = make_skewed_groupby_workload(6000, 16, alpha=1.3, seed=4)
        keys = w.flat.keys
        hist = np.bincount(bucket_of_low_bits(keys, 16), minlength=1 << 16)
        return hist.astype(np.int64), 16, int(np.ceil(6000 / 16 * 1.5))
    if name == "lpt-headroom-error":
        return np.array([6, 6, 6], dtype=np.int64), 2, 10
    assert name == "aggregate-capacity-error"
    return np.full(4, 100, dtype=np.int64), 2, 10


def plan_assignment(plan, hist):
    """The columnar plan as the reference's ``bucket -> shares`` dict."""
    assignment = {
        b: [(int(vault), int(hist[b]))] for b, vault in enumerate(plan.bucket_vault)
    }
    for i, b in enumerate(plan.split_buckets):
        lo, hi = plan.share_offsets[i], plan.share_offsets[i + 1]
        assignment[b] = list(
            zip(plan.share_vault[lo:hi].tolist(), plan.share_take[lo:hi].tolist())
        )
    return assignment


def assert_plans_identical(hist, num_vaults, capacity):
    """Both planners give the same plan, or the same ``ValueError``."""
    try:
        ref = reference_plan_rebalance(hist, num_vaults, capacity)
    except ValueError as err:
        with pytest.raises(ValueError) as prod_err:
            plan_rebalance(hist, num_vaults, capacity)
        assert str(prod_err.value) == str(err)
        return None, None
    prod = plan_rebalance(hist, num_vaults, capacity)
    assert plan_assignment(prod, hist) == ref.assignment
    assert prod.split_buckets == ref.split_buckets
    assert prod.imbalance_before == ref.imbalance_before
    assert prod.imbalance_after == ref.imbalance_after
    for column in (prod.bucket_vault, prod.share_offsets, prod.share_vault,
                   prod.share_take):
        assert column.dtype == np.int64
    return prod, ref


def random_sources(rng, hist, pieces):
    """Every bucket's tuples in random order, cut into ``pieces``."""
    buckets = np.repeat(np.arange(len(hist)), hist)
    rng.shuffle(buckets)
    cuts = np.sort(rng.integers(0, len(buckets) + 1, pieces - 1))
    return np.split(buckets, cuts)


class TestSkewPlanEquivalence:
    @pytest.mark.parametrize("shape", [
        "all-zero", "all-tied", "hot-across-every-vault",
        "capacity-met-exactly", "cpu-radix-zipf",
        "lpt-headroom-error", "aggregate-capacity-error",
    ])
    def test_plan_matches_reference(self, shape):
        hist, num_vaults, capacity = skew_histogram(shape)
        prod, _ = assert_plans_identical(hist, num_vaults, capacity)
        if shape == "hot-across-every-vault":
            assert prod.split_buckets == [17]
            assert sorted(prod.share_vault.tolist()) == list(range(8))
        if shape == "capacity-met-exactly":
            assert prod.imbalance_after == 1.0
        if shape.endswith("-error"):
            assert prod is None

    @given(
        st.lists(st.integers(0, 60), min_size=1, max_size=96),
        st.integers(1, 9),
        st.floats(1.0, 2.0),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_plan_matches_reference_on_any_histogram(
        self, sizes, num_vaults, slack, hot
    ):
        hist = np.array(sizes, dtype=np.int64)
        hist[hot % len(hist)] += hot % 400  # sometimes a bucket to split
        capacity = max(1, int(np.ceil(hist.sum() / num_vaults * slack)))
        assert_plans_identical(hist, num_vaults, capacity)

    @pytest.mark.parametrize("shape", [
        "all-zero", "all-tied", "hot-across-every-vault",
        "capacity-met-exactly", "cpu-radix-zipf",
    ])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_applier_matches_reference_over_random_splits(self, shape, seed):
        hist, num_vaults, capacity = skew_histogram(shape)
        prod_plan, ref_plan = assert_plans_identical(hist, num_vaults, capacity)
        ref = ReferencePlanApplier(ref_plan)
        rng = np.random.default_rng(seed)
        sources = random_sources(rng, hist, pieces=seed + 3)
        expected = [ref.apply(source) for source in sources]
        dest = apply_plan(prod_plan, np.concatenate(sources))
        for routed in expected:
            assert routed.dtype == np.int64
        assert dest.dtype == np.int64
        assert np.array_equal(dest, np.concatenate(expected))
        loads = np.bincount(dest, minlength=num_vaults)
        assert loads.max(initial=0) <= capacity

    def test_applier_rejects_tuples_beyond_the_shares(self):
        hist, num_vaults, capacity = skew_histogram("hot-across-every-vault")
        prod_plan, ref_plan = assert_plans_identical(hist, num_vaults, capacity)
        ref = ReferencePlanApplier(ref_plan)
        source = np.full(700, 17, dtype=np.int64)
        assert np.array_equal(apply_plan(prod_plan, source), ref.apply(source))
        with pytest.raises(ValueError, match="bucket 17: 51 tuples exceed "
                           "the planned 750 shares"):
            ref.apply(np.full(51, 17, dtype=np.int64))
        # The stateless applier sees the whole relation at once, so its
        # count is the bucket's total.
        with pytest.raises(ValueError, match="bucket 17: 751 tuples exceed "
                           "the planned 750 shares"):
            apply_plan(prod_plan, np.full(751, 17, dtype=np.int64))


class TestMergePassEquivalence:
    @staticmethod
    def sorted_runs(rng, n, run_len, key_space=64):
        data = np.empty(n, dtype=TUPLE_DTYPE)
        data["key"] = rng.integers(0, key_space, n)  # narrow space: many dups
        data["payload"] = rng.integers(0, 1 << 60, n)
        for pos in range(0, n, run_len):
            chunk = data[pos : pos + run_len]
            data[pos : pos + run_len] = chunk[np.argsort(chunk["key"], kind="stable")]
        return data

    @pytest.mark.parametrize("n", [0, 1, 7, 64, 1000, 4097])
    @pytest.mark.parametrize("run_len", [1, 3, 16, 64])
    def test_vectorized_matches_scalar(self, n, run_len):
        rng = np.random.default_rng(n + run_len)
        data = self.sorted_runs(rng, n, run_len)
        assert np.array_equal(merge_pass(data, run_len), merge_pass_scalar(data, run_len))

    def test_max_key_values_survive_padding(self):
        # Keys equal to the pad sentinel must still merge stably ahead
        # of the pads (they appear earlier in the pair row).
        data = np.empty(5, dtype=TUPLE_DTYPE)
        data["key"] = [1, np.iinfo(np.uint64).max, 0, np.iinfo(np.uint64).max, 2]
        data["payload"] = [10, 11, 12, 13, 14]
        for run_len in (1, 2, 4):
            arranged = data.copy()
            for pos in range(0, len(arranged), run_len):
                chunk = arranged[pos : pos + run_len]
                arranged[pos : pos + run_len] = chunk[
                    np.argsort(chunk["key"], kind="stable")
                ]
            assert np.array_equal(
                merge_pass(arranged, run_len), merge_pass_scalar(arranged, run_len)
            )

    def test_full_mergesort_still_sorts(self):
        rng = np.random.default_rng(5)
        data = self.sorted_runs(rng, 3000, 1, key_space=1 << 40)
        out, stats = mergesort(data)
        assert np.array_equal(np.sort(out["key"]), out["key"])
        assert stats.merge_passes == 12  # ceil(log2(3000))


class TestParallelRunAll:
    """``run_all --jobs N`` must reproduce the sequential report."""

    @staticmethod
    def run_report(*flags):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.experiments.run_all", "--fast", *flags],
            capture_output=True,
            text=True,
            cwd=ROOT,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        assert proc.returncode == 0, proc.stderr
        # Drop the wall-clock line; everything else must be stable.
        return "\n".join(
            line for line in proc.stdout.splitlines() if not line.startswith("Done in")
        )

    def test_jobs4_matches_jobs1(self):
        assert self.run_report("--jobs", "1") == self.run_report("--jobs", "4")

    def test_no_cache_matches_cached(self):
        assert self.run_report() == self.run_report("--no-cache")
