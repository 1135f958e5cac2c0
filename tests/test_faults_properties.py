"""Property suite: fault injection never changes functional output.

The tentpole invariant of ``repro.faults``: for *any* seeded fault
schedule, the shuffle's materialized destinations (and therefore every
operator's output) are byte-identical to the fault-free run -- faults
only change what the protocol paid.  Pinned two ways:

- randomized fault schedules x shapes x write disciplines at the
  shuffle-engine level (hypothesis plus a 200+ schedule bulk sweep;
  every assertion message carries the seeds to reproduce a failure);
- machine-level operator runs across presets, and the service codec
  round-trip of the resilience metadata;
- the pricing step (:func:`~repro.operators.partition.price_faults`):
  a schedule priced onto the fault-free run equals the run under the
  faulted variant and the inline replay of its shuffles.

``tests/test_reference_equivalence.py`` pins the shuffle and the
operators under fault schedules against their slow references.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics.tuples import Relation
from repro.analytics.workload import (
    make_groupby_workload,
    make_join_workload,
    make_scan_workload,
    make_sort_workload,
)
from repro.config.system import get_preset
from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.protocol import combine_stats
from repro.operators import OPERATOR_RUNNERS
from repro.operators.partition import (
    SCHEME_HIGH_BITS,
    SCHEME_LOW_BITS,
    price_faults,
    run_partitioning,
)
from repro.service.codec import result_from_document, result_to_document
from repro.shuffle.engine import ShuffleEngine
from repro.systems.machine import Machine
from tests.shuffle_helpers import (
    assert_shuffles_identical,
    fault_specs,
    flatten,
    make_sources,
)


def engine(num_dest, faults=None, salt=0, **kwargs):
    return ShuffleEngine(num_dest, faults=faults, fault_salt=salt, **kwargs)


def run_pair(rng_seed, fault_spec, num_src=4, num_dest=6, n_per_src=200,
             skew=True, permutable=True, **engine_kwargs):
    """One shuffle under ``fault_spec`` and its fault-free twin."""
    rng = np.random.default_rng(rng_seed)
    columns, dest = flatten(
        *make_sources(rng, num_src, num_dest, n_per_src, skew)
    )
    faulted = engine(
        num_dest, faults=fault_spec, permutable=permutable, **engine_kwargs
    ).run(columns, dest)
    clean = engine(
        num_dest, permutable=permutable, **engine_kwargs
    ).run(columns, dest)
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


#: The two schedules the pricing step is pinned under: drops alone, and
#: every fault kind at once with timeouts on.
PRICING_SPECS = {
    "drops": FaultSpec(seed=5, drop_prob=0.3),
    "mixed": FaultSpec(seed=13, straggler_prob=0.4, drop_prob=0.35,
                       duplicate_prob=0.25, timeout_prob=0.3),
}
PRICING_SCALE = 50.0


def pricing_workload(operator, partitions):
    if operator == "join":
        return make_join_workload(600, 1800, num_partitions=partitions, seed=21)
    if operator == "sort":
        return make_sort_workload(1800, num_partitions=partitions, seed=21)
    return make_groupby_workload(1800, num_partitions=partitions, seed=21)


def inline_passes(operator, workload, variant):
    """The run's partitioning passes, each replaying the schedule inside
    its shuffle."""
    if operator == "join":
        inputs = ((workload.r_flat, SCHEME_LOW_BITS, "R-"),
                  (workload.s_flat, SCHEME_LOW_BITS, "S-"))
    else:
        scheme = SCHEME_HIGH_BITS if operator == "sort" else SCHEME_LOW_BITS
        inputs = ((workload.flat, scheme, ""),)
    return [
        run_partitioning(columns, variant, scheme, workload.key_space_bits,
                         label_prefix=prefix, model_scale=PRICING_SCALE)
        for columns, scheme, prefix in inputs
    ]


def assert_same_output(a, b):
    if isinstance(a, Relation):
        assert a.name == b.name
        assert a.data.dtype == b.data.dtype
        assert a.data.tobytes() == b.data.tobytes()
    else:
        assert a == b  # JoinOutput / byte-comparing GroupByOutput


class TestFaultPricing:
    """A fault schedule priced onto the fault-free run equals the run
    under the faulted variant, and the inline replay of its shuffles."""

    @pytest.mark.parametrize("partitions", [8, 64])
    @pytest.mark.parametrize("spec", sorted(PRICING_SPECS))
    @pytest.mark.parametrize("preset", ["cpu", "nmp-rand", "nmp-perm", "mondrian"])
    @pytest.mark.parametrize("operator", ["sort", "groupby", "join"])
    def test_priced_run_equals_faulted_runner(self, operator, preset, spec,
                                              partitions):
        workload = pricing_workload(operator, partitions)
        config = replace(get_preset(preset), faults=PRICING_SPECS[spec])
        variant = Machine(config).variant(partitions)
        runner = OPERATOR_RUNNERS[operator]
        clean = runner(workload, variant.fault_free, model_scale=PRICING_SCALE)
        priced = price_faults(clean, variant, PRICING_SCALE)
        faulted = runner(workload, variant, model_scale=PRICING_SCALE)

        assert priced.phases == faulted.phases
        assert list(priced.metadata.items()) == list(faulted.metadata.items())
        assert list(priced.metadata)[-1] == "resilience"
        assert_same_output(priced.output, faulted.output)
        assert_same_output(priced.output, clean.output)
        assert "resilience" not in clean.metadata  # the shared run is untouched
        assert priced.metadata["resilience"]["retries"] > 0
        assert priced.phases != clean.phases

        inline = inline_passes(operator, workload, variant)
        assert priced.phases[: 2 * len(inline)] == [
            phase for outcome in inline for phase in outcome.phases
        ]
        resilience = combine_stats(*(outcome.resilience for outcome in inline))
        assert priced.metadata["resilience"] == resilience.to_metadata()

    def test_inactive_schedule_or_no_pass_returns_the_run(self):
        machine = Machine(replace(get_preset("mondrian"),
                                  faults=PRICING_SPECS["mixed"]))
        variant = machine.variant(8)
        sort = OPERATOR_RUNNERS["sort"](pricing_workload("sort", 8),
                                        variant.fault_free)
        assert price_faults(sort, variant.fault_free, 1.0) is sort
        scan = machine.execute("scan", make_scan_workload(500, 8, seed=2))
        assert not scan.passes
        assert price_faults(scan, variant, 1.0) is scan
