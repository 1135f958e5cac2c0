"""Tests for the query-pipeline subsystem.

Covers the three properties the pipeline must guarantee:

1. **Functional fidelity** -- a chained plan produces exactly the output
   an independent numpy oracle (and the standalone operators) computes.
2. **Cost fidelity** -- per-stage phase lists concatenate into the
   pipeline totals with nothing added or lost, and stage phases equal
   the wrapped operator's phases.
3. **Cross-machine behaviour** -- NMP/Mondrian keep a positive
   end-to-end speedup over the CPU on the FK-join pipeline.

A fault schedule is priced onto each finished stage, equal to the
reference's inline replay.
"""

import inspect
from dataclasses import replace

import numpy as np
import pytest

from repro.analytics.tuples import Relation
from repro.analytics.workload import JoinWorkload
from repro.columnar import SegmentedColumns
from repro.faults.plan import FaultSpec, stream_salt
from repro.operators.join import run_join
from repro.operators.reference import REFERENCE_RUNNERS, scalar_replay
from repro.pipeline import (
    FilterStage,
    GroupByStage,
    JoinStage,
    PartitionStage,
    QueryPlan,
    ScanStage,
    SortStage,
    bottleneck_report,
    comparison_table,
    fk_join_aggregate,
    pipeline_speedup,
    skewed_partition_join,
    sort_then_scan,
    stage_breakdown_table,
)
from repro.pipeline.queries import CANONICAL_QUERIES, CANONICAL_QUERY_SIZES
from repro.pipeline.stage import _fk_join_relation
from repro.systems import build_system

PARTITIONS = 8
SCALE = 50.0


@pytest.fixture(scope="module")
def fk_plan():
    return fk_join_aggregate(n_r=500, n_s=2_000, num_partitions=PARTITIONS, seed=5)


@pytest.fixture(scope="module")
def machines():
    return {name: build_system(name) for name in ("cpu", "nmp-perm", "mondrian")}


@pytest.fixture(scope="module")
def fk_perfs(fk_plan, machines):
    return {
        name: m.run_pipeline(fk_plan, scale_factor=SCALE)
        for name, m in machines.items()
    }


def _random_table():
    """A small table of random keys and payloads."""
    rng = np.random.default_rng(11)
    return Relation.from_arrays(
        rng.integers(0, 1 << 32, 1000, dtype=np.uint64),
        rng.integers(0, 1 << 32, 1000, dtype=np.uint64),
        "t",
    )


def _reference_spend(plan):
    """Independent numpy oracle for the fk-join-aggregate query."""
    users = plan.tables["users"]
    events = plan.tables["events"]
    lookup = dict(zip(users.keys.tolist(), users.payloads.tolist()))
    spend = {}
    for k, p in zip(events.keys.tolist(), events.payloads.tolist()):
        spend[k] = spend.get(k, 0) + lookup[k] + p
    keys = np.array(sorted(spend), dtype=np.uint64)
    payloads = np.array([spend[int(k)] for k in keys], dtype=np.uint64)
    return Relation.from_arrays(keys, payloads, "expected")


class TestFunctionalFidelity:
    def test_chained_plan_matches_numpy_oracle(self, fk_plan, machines):
        run = fk_plan.execute(
            machines["mondrian"].variant(PARTITIONS), model_scale=SCALE
        )
        expected = _reference_spend(fk_plan)
        assert np.array_equal(run.output.keys, expected.keys)
        assert np.array_equal(run.output.payloads, expected.payloads)
        assert run.output.is_sorted()
        grouped = run.stage("groupby:spend_per_user")
        enriched = run.stage("join:enriched").relation
        assert grouped.metadata["groups"] == len(np.unique(enriched.keys))

    def test_same_output_on_every_machine(self, fk_plan, machines):
        outputs = [
            fk_plan.execute(m.variant(PARTITIONS), model_scale=SCALE).output
            for m in machines.values()
        ]
        assert all(np.array_equal(outputs[0].data, o.data) for o in outputs[1:])

    def test_join_stage_phases_match_standalone_operator(self, fk_plan, machines):
        variant = machines["cpu"].variant(PARTITIONS)
        run = fk_plan.execute(variant, model_scale=SCALE)
        workload = JoinWorkload(
            r_flat=SegmentedColumns.split(fk_plan.tables["users"], PARTITIONS),
            s_flat=SegmentedColumns.split(fk_plan.tables["events"], PARTITIONS),
            key_space_bits=fk_plan.key_space_bits,
        )
        standalone = run_join(workload, variant, model_scale=SCALE)
        stage_phases = run.stages[0].phases
        assert [p.name for p in stage_phases] == [p.name for p in standalone.phases]
        assert sum(p.instructions for p in stage_phases) == pytest.approx(
            sum(p.instructions for p in standalone.phases)
        )

    def test_sort_then_scan_finds_all_hits(self, machines):
        plan = sort_then_scan(n=2_000, num_partitions=PARTITIONS, seed=3)
        run = plan.execute(machines["mondrian"].variant(PARTITIONS), model_scale=SCALE)
        sorted_stage = run.stage("sort:sorted_events")
        assert sorted_stage.relation.is_sorted()
        hits = run.output
        key = plan.stages[-1].key
        assert len(hits) >= 1
        assert np.all(hits.keys == np.uint64(key))
        expected = int(np.count_nonzero(plan.tables["events"].keys == np.uint64(key)))
        assert len(hits) == expected

    def test_skewed_partition_join_rebalances(self, machines):
        plan = skewed_partition_join(
            n_r=500, n_s=2_000, num_partitions=PARTITIONS, seed=3
        )
        run = plan.execute(machines["mondrian"].variant(PARTITIONS), model_scale=SCALE)
        meta = run.stages[0].metadata
        assert meta["rebalanced"]
        assert meta["imbalance_after"] <= meta["imbalance_before"]
        assert len(run.output) == 2_000  # FK: every event joins

    @pytest.mark.parametrize("skew_aware", [False, True])
    def test_partition_stage_records_low_bits(self, machines, skew_aware):
        plan = QueryPlan(
            name="partition-only",
            tables={"t": _random_table()},
            stages=[PartitionStage("t", "spread", skew_aware=skew_aware)],
            num_partitions=PARTITIONS,
        )
        run = plan.execute(machines["cpu"].variant(PARTITIONS), model_scale=SCALE)
        assert run.stages[0].metadata["scheme"] == "low"
        assert run.output.multiset_equal(plan.tables["t"])

    def test_canonical_sizes_are_the_builders_only_sizes(self):
        assert CANONICAL_QUERY_SIZES.keys() == CANONICAL_QUERIES.keys()
        for name, builder in CANONICAL_QUERIES.items():
            params = inspect.signature(builder).parameters.values()
            assert all(p.default is p.empty for p in params), name
            sizes = {p.name for p in params} - {"num_partitions", "seed"}
            assert sizes == CANONICAL_QUERY_SIZES[name].keys(), name

    def test_filter_stage_selectivity(self, machines):
        rng = np.random.default_rng(0)
        rel = Relation.from_arrays(
            rng.integers(0, 1 << 32, 1000, dtype=np.uint64),
            rng.integers(0, 1 << 32, 1000, dtype=np.uint64),
            "t",
        )
        plan = QueryPlan(
            name="filter-only",
            tables={"t": rel},
            stages=[FilterStage("t", "kept", predicate=lambda k: k % 2 == 0)],
            num_partitions=PARTITIONS,
        )
        run = plan.execute(machines["cpu"].variant(PARTITIONS))
        assert np.all(run.output.keys % 2 == 0)
        assert len(run.output) == int(np.count_nonzero(rel.keys % 2 == 0))


def _unsorted_probe_fk_join(r, s, name):
    """The FK join materialized by probing R with S in S's row order."""
    if len(r) == 0 or len(s) == 0:
        return Relation.empty(name)
    order = np.argsort(r.keys, kind="stable")
    r_keys, r_payloads = r.keys[order], r.payloads[order]
    idx = np.minimum(np.searchsorted(r_keys, s.keys), len(r_keys) - 1)
    found = r_keys[idx] == s.keys
    with np.errstate(over="ignore"):
        payloads = r_payloads[idx[found]] + s.payloads[found]
    return Relation.from_arrays(s.keys[found], payloads, name)


class TestFkJoinRelation:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n_r,n_s", [(0, 50), (40, 0), (0, 0), (1, 30), (300, 2000)])
    def test_sorted_probe_matches_unsorted_probe(self, seed, n_r, n_s):
        rng = np.random.default_rng(seed)
        r_keys = rng.choice(1 << 12, n_r, replace=False).astype(np.uint64)
        # S draws from R's keys (duplicates included), keys R lacks and
        # keys above R's maximum.
        s_keys = rng.integers(0, 1 << 13, n_s, dtype=np.uint64)
        if n_r:
            s_keys[::3] = rng.choice(r_keys, len(s_keys[::3]))
        top = np.uint64(np.iinfo(np.uint64).max)
        r = Relation.from_arrays(
            r_keys, rng.integers(0, top, n_r, dtype=np.uint64, endpoint=True), "r"
        )
        s = Relation.from_arrays(
            s_keys, rng.integers(0, top, n_s, dtype=np.uint64, endpoint=True), "s"
        )
        out = _fk_join_relation(r, s, "joined")
        expected = _unsorted_probe_fk_join(r, s, "joined")
        assert out.name == expected.name
        assert out.data.tobytes() == expected.data.tobytes()
        if n_r and n_s:
            assert 0 < len(out) < n_s  # some S keys match, some do not


class TestCostFidelity:
    def test_phase_counts_sum_across_stages(self, fk_plan, machines):
        run = fk_plan.execute(machines["cpu"].variant(PARTITIONS), model_scale=SCALE)
        assert len(run.phases) == sum(len(s.phases) for s in run.stages)
        # join (2x partition + probe) + groupby + sort all contribute
        assert len(run.stages) == 3
        assert all(s.phases for s in run.stages)

    def test_pipeline_totals_are_stage_sums(self, fk_perfs):
        for perf in fk_perfs.values():
            assert perf.runtime_s == pytest.approx(
                sum(s.runtime_s for s in perf.stages)
            )
            assert perf.energy_j == pytest.approx(
                sum(s.energy_j for s in perf.stages)
            )
            assert perf.energy.total_j == pytest.approx(perf.energy_j)

    def test_time_fractions_normalized(self, fk_perfs):
        for perf in fk_perfs.values():
            assert sum(perf.time_fractions().values()) == pytest.approx(1.0)

    def test_bottleneck_is_slowest_stage(self, fk_perfs):
        perf = fk_perfs["cpu"]
        assert perf.bottleneck().runtime_s == max(s.runtime_s for s in perf.stages)


class TestCrossMachine:
    def test_nmp_speedup_positive_on_fk_join(self, fk_perfs):
        assert pipeline_speedup(fk_perfs["cpu"], fk_perfs["mondrian"]) > 1.0
        assert pipeline_speedup(fk_perfs["cpu"], fk_perfs["nmp-perm"]) > 1.0

    def test_mondrian_less_energy_than_cpu(self, fk_perfs):
        assert fk_perfs["mondrian"].energy_j < fk_perfs["cpu"].energy_j

    def test_reports_render(self, fk_perfs):
        table = stage_breakdown_table(fk_perfs["mondrian"])
        assert "TOTAL" in table and "join:enriched" in table
        line = bottleneck_report(fk_perfs["mondrian"])
        assert "bottleneck" in line and "mondrian" in line
        comp = comparison_table(fk_perfs, baseline="cpu")
        assert "1.0x" in comp


class TestFaultPricing:
    """The stages run fault-free; ``QueryPlan.execute`` prices the
    variant's schedule onto each stage from its recorded passes."""

    def test_stages_priced_like_the_inline_replay(self, machines):
        spec = FaultSpec(seed=13, straggler_prob=0.4, drop_prob=0.35,
                         duplicate_prob=0.25, timeout_prob=0.3)
        variant = replace(machines["mondrian"].variant(PARTITIONS), faults=spec)
        plan = skewed_partition_join(
            n_r=500, n_s=2_000, num_partitions=PARTITIONS, seed=3
        )
        clean = plan.execute(variant.fault_free, model_scale=SCALE)
        faulted = plan.execute(variant, model_scale=SCALE)
        assert np.array_equal(faulted.output.data, clean.output.data)
        assert [s.metadata for s in faulted.stages] == [
            s.metadata for s in clean.stages
        ]

        # The skew protocol's pass keeps its own "skew"-salted schedule.
        skew, join = faulted.stages
        (record,) = skew.passes
        assert (record.label, record.salt) == ("", stream_salt("skew"))
        _, stats = scalar_replay(
            record.histogram.astype(np.int64), spec, stream_salt("skew")
        )
        distribute = skew.phases[-1]
        assert distribute == replace(
            clean.stages[0].phases[-1],
            retry_shuffle_b=(stats.retried_b + stats.duplicate_b) * SCALE,
            backoff_stall_b=(stats.backoff_stall_b + stats.straggler_stall_b)
            * SCALE,
        )
        assert skew.phases[:-1] == clean.stages[0].phases[:-1]

        workload = JoinWorkload(
            r_flat=SegmentedColumns.split(plan.tables["users"], PARTITIONS),
            s_flat=SegmentedColumns.split(skew.relation, PARTITIONS),
            key_space_bits=plan.key_space_bits,
        )
        inline = REFERENCE_RUNNERS["join"](workload, variant, model_scale=SCALE)
        assert join.phases == inline.phases
        assert join.phases != clean.stages[1].phases


class TestPlanValidation:
    def test_missing_input_table_rejected(self):
        with pytest.raises(ValueError, match="before any stage"):
            QueryPlan(
                name="bad",
                tables={},
                stages=[SortStage("nope", "out")],
                num_partitions=2,
            )

    def test_duplicate_output_rejected(self):
        rel = Relation.from_pairs([(1, 1)], "t")
        with pytest.raises(ValueError, match="produced twice"):
            QueryPlan(
                name="bad",
                tables={"t": rel},
                stages=[SortStage("t", "out"), SortStage("out", "out")],
                num_partitions=2,
            )

    def test_empty_plan_rejected(self):
        with pytest.raises(ValueError, match="at least one stage"):
            QueryPlan(name="bad", tables={}, stages=[], num_partitions=2)

    def test_unknown_aggregate_rejected(self):
        with pytest.raises(ValueError, match="unknown aggregate"):
            GroupByStage("a", "b", aggregate="median")

    def test_scan_stage_requires_valid_scale(self, machines):
        plan = sort_then_scan(n=200, num_partitions=2, seed=1)
        with pytest.raises(ValueError, match="scale factor"):
            machines["cpu"].run_pipeline(plan, scale_factor=0.0)


class TestExperiment:
    def test_pipeline_queries_driver(self):
        from repro.experiments import pipeline_queries

        out = pipeline_queries.run(scale=SCALE, num_partitions=PARTITIONS)
        assert set(out["speedups"]) == {
            "fk-join-aggregate",
            "sort-then-scan",
            "skewed-partition-join",
        }
        for query, series in out["speedups"].items():
            assert series["cpu"] == pytest.approx(1.0)
            for system in ("nmp-perm", "mondrian"):
                assert series[system] > 1.0, (query, system)
        # Per-stage breakdowns for every query on every machine.
        for query in out["perfs"]:
            for system in ("cpu", "nmp-perm", "mondrian"):
                assert out["perfs"][query][system].stages
        assert "Pipeline speedup vs CPU" in out["table"]

    def test_run_all_pipelines_flag(self, capsys):
        from repro.experiments import run_all

        parser = run_all.build_parser()
        args = parser.parse_args(["--pipelines", "--fast"])
        assert args.pipelines and args.fast
