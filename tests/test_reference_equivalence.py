"""Production-against-reference equivalence matrix.

Each production execution path has exactly one slow reference in
:mod:`repro.operators.reference`; this matrix pins them byte-identical.

- **Shuffle**: write discipline x interleave model x fault schedule x
  input shape, comparing destinations, the (source, destination)
  histogram, barrier state, the ``ResilienceStats`` and the write
  traces :func:`~repro.shuffle.engine.write_traces` derives from the
  histogram against the ones the reference records per arriving tuple.
- **Operators**: operator x preset x fault schedule x workload, each
  production run and its reference costed by the same
  ``Machine.evaluate_run`` and compared phase by phase.

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
from repro.config.system import get_preset
from repro.experiments import common
from repro.faults.plan import NULL_FAULTS, FaultPlan, FaultSpec
from repro.faults.protocol import DeliverySession, FaultTolerantShuffleBarrier
from repro.memctrl.permutable import ShuffleBarrier
from repro.operators.groupby import AGGREGATE_NAMES
from repro.operators.reference import (
    REFERENCE_RUNNERS,
    ScalarDeliverySession,
    merge_pass_scalar,
    reference_shuffle,
)
from repro.operators.sort_algos import merge_pass, mergesort
from repro.shuffle.engine import ShuffleEngine
from repro.shuffle.interleave import random_interleave, round_robin_interleave
from repro.systems.machine import Machine
from tests.shuffle_helpers import (
    assert_shuffles_identical,
    fault_specs,
    make_sources,
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

INTERLEAVES = {
    "round-robin": round_robin_interleave,
    "random": partial(random_interleave, seed=11),
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
    config = dict(
        permutable=permutable,
        interleave=INTERLEAVES[interleave],
        faults=FAULTS[faults],
        fault_salt=3,
    )
    prod = ShuffleEngine(num_dest, **config).run(sources, dest_maps)
    ref, ref_traces = reference_shuffle(sources, dest_maps, num_dest, **config)
    assert_shuffles_identical(prod, ref, config["interleave"], ref_traces)
    assert prod.resilience == ref.resilience
    assert (prod.resilience is None) == (faults == "none")
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
    config = dict(permutable=permutable, faults=spec, fault_salt=1)
    prod = ShuffleEngine(6, **config).run(sources, dest_maps)
    ref, ref_traces = reference_shuffle(sources, dest_maps, 6, **config)
    assert_shuffles_identical(prod, ref, ref_traces=ref_traces)
    assert prod.resilience == ref.resilience


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
    returns its stats and the barrier's duplicate and completion state."""
    barrier = FaultTolerantShuffleBarrier(max(sizes_b.shape))
    barrier.announce_all(sizes_b)
    barrier.seal()
    session = session_cls(plan, sizes_b)
    for dest in range(sizes_b.shape[1]):
        session.deliver_dest(barrier, dest)
    stats = session.finalize(barrier)
    return stats, (
        barrier.duplicates_discarded,
        barrier.duplicate_bytes,
        barrier.completion_vector(),
    )


class TestFaultReplayEdgeCases:
    """The array replay against the stream-by-stream scalar oracle."""

    @staticmethod
    def plan(spec, drop_rounds, duplicates):
        drop_rounds = np.asarray(drop_rounds, dtype=np.int64)
        num_src, num_dest = drop_rounds.shape
        return FaultPlan(
            spec=spec,
            num_sources=num_src,
            num_destinations=num_dest,
            salt=0,
            straggler_factor=np.ones(num_src),
            drop_rounds=drop_rounds,
            duplicates=np.asarray(duplicates, dtype=np.int64),
            timeout_rounds=np.zeros(num_dest, dtype=np.int64),
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
        barrier.announce(0, 1, 48)
        assert barrier.expected_bytes(1) == 48  # pre-seal: live sum
        barrier.announce(1, 1, 16)
        assert barrier.expected_bytes(1) == 64
        barrier.seal()
        assert barrier.expected_bytes(1) == 64  # post-seal: frozen
        with pytest.raises(RuntimeError):
            barrier.announce(0, 0, 8)  # totals can never go stale


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
