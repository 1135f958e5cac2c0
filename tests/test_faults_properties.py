"""Property suite: fault injection never changes functional output.

The tentpole invariant of ``repro.faults``: for *any* seeded fault
schedule, the shuffle's materialized destinations (and therefore every
operator's output) are byte-identical to the fault-free run -- faults
only change what the protocol paid.  Pinned two ways:

- randomized fault schedules x shapes x write disciplines at the
  shuffle-engine level (hypothesis plus a 200+ schedule bulk sweep;
  every assertion message carries the seeds to reproduce a failure);
- machine-level operator runs across presets, and the service codec
  round-trip of the resilience metadata.

``tests/test_reference_equivalence.py`` pins the shuffle and the
operators under fault schedules against their slow references.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics.workload import (
    make_groupby_workload,
    make_join_workload,
    make_sort_workload,
)
from repro.config.system import get_preset
from repro.faults.plan import FaultPlan, FaultSpec
from repro.service.codec import result_from_document, result_to_document
from repro.shuffle.engine import ShuffleEngine
from repro.systems.machine import Machine
from tests.shuffle_helpers import (
    assert_shuffles_identical,
    fault_specs,
    make_sources,
)


def engine(num_dest, faults=None, salt=0, **kwargs):
    return ShuffleEngine(num_dest, faults=faults, fault_salt=salt, **kwargs)


def run_pair(rng_seed, fault_spec, num_src=4, num_dest=6, n_per_src=200,
             skew=True, permutable=True, **engine_kwargs):
    """One shuffle under ``fault_spec`` and its fault-free twin."""
    rng = np.random.default_rng(rng_seed)
    sources, dest_maps = make_sources(rng, num_src, num_dest, n_per_src, skew)
    faulted = engine(
        num_dest, faults=fault_spec, permutable=permutable, **engine_kwargs
    ).run(sources, dest_maps)
    clean = engine(
        num_dest, permutable=permutable, **engine_kwargs
    ).run(sources, dest_maps)
    return faulted, clean


class TestShuffleInvariance:
    @settings(max_examples=60, deadline=None)
    @given(spec=fault_specs, rng_seed=st.integers(0, 2**20),
           permutable=st.booleans())
    def test_output_identical_under_any_schedule(self, spec, rng_seed,
                                                 permutable):
        faulted, clean = run_pair(rng_seed, spec, permutable=permutable)
        assert_shuffles_identical(faulted, clean)

    def test_bulk_schedule_sweep(self):
        """200+ generated schedules, seeds printed on any failure."""
        master = np.random.default_rng(2024)
        checked = 0
        for trial in range(200):
            rng_seed = int(master.integers(0, 2**30))
            spec = FaultSpec(
                seed=int(master.integers(0, 2**30)),
                straggler_prob=float(master.random()),
                straggler_slowdown=1.0 + 7.0 * float(master.random()),
                drop_prob=float(master.random()),
                duplicate_prob=float(master.random()),
                timeout_prob=float(master.random()),
                max_retries=int(master.integers(1, 6)),
                backoff_base=2.0 * float(master.random()),
            )
            permutable = bool(trial % 2)
            n_per_src = (0, 5, 80, 400)[trial % 4]
            ctx = (f"trial={trial} rng_seed={rng_seed} spec={spec} "
                   f"permutable={permutable} n_per_src={n_per_src}")
            try:
                faulted, clean = run_pair(
                    rng_seed, spec, num_src=3 + trial % 4,
                    num_dest=2 + trial % 7, n_per_src=n_per_src,
                    permutable=permutable,
                )
                assert_shuffles_identical(faulted, clean)
            except AssertionError as exc:  # pragma: no cover
                raise AssertionError(f"{ctx}: {exc}") from exc
            if faulted.resilience is not None:
                assert faulted.resilience.overhead_b >= 0.0, ctx
            checked += 1
        assert checked == 200

    def test_null_spec_collects_no_stats(self):
        faulted, clean = run_pair(5, FaultSpec())
        assert faulted.resilience is None
        assert clean.resilience is None


OPERATORS = (
    ("join", lambda: make_join_workload(1500, 3000, num_partitions=8, seed=9)),
    ("sort", lambda: make_sort_workload(2500, num_partitions=8, seed=9)),
    ("groupby", lambda: make_groupby_workload(2500, num_partitions=8, seed=9)),
)


class TestMachineInvariance:
    @pytest.mark.parametrize("preset", ["cpu", "nmp-perm", "mondrian"])
    @pytest.mark.parametrize("op,make", OPERATORS, ids=[o for o, _ in OPERATORS])
    def test_operator_output_identical(self, preset, op, make):
        workload = make()
        spec = FaultSpec(seed=13, straggler_prob=0.4, drop_prob=0.35,
                         duplicate_prob=0.25, timeout_prob=0.3)
        clean = Machine(get_preset(preset)).run_operator(op, workload)
        faulty_cfg = replace(get_preset(preset), faults=spec)
        faulty = Machine(faulty_cfg).run_operator(op, workload)
        assert faulty.output == clean.output
        assert "resilience" in faulty.metadata
        assert "resilience" not in clean.metadata
        clean_t = sum(p.time_ns for p in clean.phase_perfs)
        faulty_t = sum(p.time_ns for p in faulty.phase_perfs)
        assert faulty_t >= clean_t

    def test_resilience_survives_codec_round_trip(self):
        spec = FaultSpec(seed=11, drop_prob=0.4, straggler_prob=0.5,
                         timeout_prob=0.5)
        cfg = replace(get_preset("mondrian"), faults=spec)
        result = Machine(cfg).run_operator(
            "join", make_join_workload(1000, 2000, num_partitions=8, seed=4)
        )
        restored = result_from_document(result_to_document(result))
        assert restored.metadata["resilience"] == result.metadata["resilience"]
        for orig, back in zip(result.phase_perfs, restored.phase_perfs):
            assert back.phase.retry_shuffle_b == orig.phase.retry_shuffle_b
            assert back.phase.backoff_stall_b == orig.phase.backoff_stall_b
