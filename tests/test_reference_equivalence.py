"""Production-against-reference equivalence matrix.

Each production execution path has exactly one slow reference in
:mod:`repro.operators.reference`; this matrix pins them byte-identical.

- **Shuffle**: write discipline x interleave model x fault schedule x
  input shape, comparing destinations, write traces, inbound
  histograms, barrier state and the ``ResilienceStats``.
- **Operators**: operator x preset x fault schedule x workload, each
  production run and its reference costed by the same
  ``Machine.evaluate_run`` and compared phase by phase.

The file also carries the pieces the production shuffle and sort are
built from (batched permutable writes, frozen barrier totals, the
vectorized merge pass) and the check that the parallel experiment
runtime (``run_all --jobs N``) reproduces the sequential report.
"""

import os
import re
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
from repro.faults.plan import NULL_FAULTS, FaultSpec
from repro.memctrl.permutable import (
    PermutableRegionConfig,
    PermutableWriteEngine,
    ShuffleBarrier,
)
from repro.operators.reference import (
    REFERENCE_RUNNERS,
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
    ref = reference_shuffle(sources, dest_maps, num_dest, **config)
    assert_shuffles_identical(prod, ref)
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
    ref = reference_shuffle(sources, dest_maps, 6, **config)
    assert_shuffles_identical(prod, ref)
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
        # Same keys, same insertion order, byte-identical floats.
        assert list(prod.output.groups) == list(ref.output.groups)
        assert prod.output.groups == ref.output.groups
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


def test_no_production_module_imports_the_reference():
    pattern = re.compile(
        r"^\s*(from\s+repro\.operators\.reference\s+import"
        r"|import\s+repro\.operators\.reference"
        r"|from\s+repro\.operators\s+import\s+.*\breference\b)",
        re.MULTILINE,
    )
    offenders = [
        str(path.relative_to(ROOT))
        for path in (ROOT / "src").rglob("*.py")
        if pattern.search(path.read_text())
    ]
    assert offenders == []


class TestWriteBatch:
    def config(self, objects=8, object_b=16):
        return PermutableRegionConfig(base=64, size_b=objects * object_b,
                                      object_b=object_b)

    def test_matches_scalar_writes(self):
        batch = PermutableWriteEngine(self.config())
        scalar = PermutableWriteEngine(self.config())
        addrs = batch.write_batch(payloads=["a", "b", "c"])
        expected = [scalar.write(p) for p in ("a", "b", "c")]
        assert addrs.tolist() == expected
        assert batch.drain() == scalar.drain()
        assert batch.bytes_written == scalar.bytes_written

    def test_count_only_batch(self):
        engine = PermutableWriteEngine(self.config())
        addrs = engine.write_batch(count=4, marked_addrs=np.full(4, 64))
        assert addrs.tolist() == [64, 80, 96, 112]
        assert engine.objects_written == 4

    def test_batch_overflow_fills_then_raises(self):
        engine = PermutableWriteEngine(self.config(objects=3))
        with pytest.raises(MemoryError):
            engine.write_batch(count=5)
        # Same state a scalar loop leaves: buffer full, flag raised.
        assert engine.objects_written == 3
        assert engine.overflowed

    def test_batch_rejects_out_of_region_marks(self):
        engine = PermutableWriteEngine(self.config())
        with pytest.raises(ValueError):
            engine.write_batch(count=2, marked_addrs=np.array([64, 4096]))
        with pytest.raises(ValueError):
            engine.write_batch(payloads=["x"], count=2)

    def test_empty_batch(self):
        engine = PermutableWriteEngine(self.config())
        assert engine.write_batch(count=0).tolist() == []
        assert engine.objects_written == 0


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

    def test_deliver_batch_equals_repeated_deliver(self):
        a, b = ShuffleBarrier(2), ShuffleBarrier(2)
        for barrier in (a, b):
            barrier.announce(0, 1, 64)
            barrier.seal()
        a.deliver_batch(1, 64)
        for _ in range(4):
            b.deliver(1, 16)
        assert a.completion_vector() == b.completion_vector() == (True, True)

    def test_deliver_batch_over_delivery_rejected(self):
        barrier = ShuffleBarrier(1)
        barrier.announce(0, 0, 16)
        barrier.seal()
        with pytest.raises(ValueError):
            barrier.deliver_batch(0, 32)


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
