"""Tests for the scenario API: SystemSpec derivation and round-trips,
Scenario/Sweep execution, ResultSet verbs, the sweep-smoke golden file,
and the CLI entry points."""

import contextlib
import io
from pathlib import Path

import pytest

from repro.api import (
    ResultSet,
    Scenario,
    Sweep,
    SystemSpec,
    as_spec,
    run_plan,
)
from repro.api.__main__ import main as api_main
from repro.config.system import (
    EVALUATED_PRESETS,
    SYSTEM_PRESETS,
    get_preset,
)
from repro.experiments import common, run_all
from repro.experiments.common import ALL_SYSTEMS
from repro.service import BatchScheduler
from repro.suites import SuiteRun
from repro.systems import build_system

DATA = Path(__file__).parent / "data"

#: Small, fast scenario parameters shared across the module.
FAST = dict(model_scale=50.0, num_partitions=8)


def _smoke_sweep() -> Sweep:
    return Sweep.from_json((DATA / "sweep_smoke.json").read_text())


def _paper_report(jobs: int) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run_all.run_paper_report(run_all.FAST_SCALE, jobs=jobs)
    return out.getvalue()


#: Every entry point that fans evaluations out over ``jobs`` processes,
#: as ``jobs -> exported text``.
PARITY_RUNS = {
    "sweep": lambda jobs: _smoke_sweep().run(jobs=jobs).to_json(),
    "suite_run": lambda jobs: SuiteRun(
        suites=("dict-products", "skew-hotspot"), systems=("cpu", "mondrian")
    ).run(jobs=jobs).to_json(),
    "scheduler": lambda jobs: BatchScheduler(jobs=jobs)
    .submit_sweep(_smoke_sweep()).to_json(),
    "paper_report": _paper_report,
}


class TestSystemSpecRoundTrips:
    def test_every_preset_round_trips(self):
        # preset -> spec -> config must reproduce get_preset exactly.
        for name in SYSTEM_PRESETS:
            assert SystemSpec.from_preset(name).to_config() == get_preset(name)

    def test_spec_dict_round_trip(self):
        spec = (
            SystemSpec("mondrian")
            .with_cores(32)
            .with_topology("star")
            .with_geometry(row_size_b=2048)
            .with_timing(t_cas_ns=13.0)
        )
        assert SystemSpec.from_dict(spec.to_dict()) == spec

    def test_overrides_apply(self):
        cfg = (
            SystemSpec("mondrian")
            .with_cores(32)
            .with_topology("star")
            .with_interleave("random")
            .to_config()
        )
        assert cfg.num_cores == 32
        assert cfg.topology == "star"
        assert cfg.interleave_model == "random"
        # Untouched fields inherit from the preset.
        assert cfg.probe_algorithm == get_preset("mondrian").probe_algorithm

    def test_original_spec_untouched_by_fluent_calls(self):
        base = SystemSpec("mondrian")
        base.with_cores(32)
        assert base.to_config() == get_preset("mondrian")

    def test_core_model_override(self):
        cfg = SystemSpec("nmp-perm").with_core_model(
            "cortex-a35", simd_width_bits=512
        ).to_config()
        assert cfg.core.simd_width_bits == 512
        assert cfg.core.has_stream_buffers

    def test_core_model_keeps_prior_simd_override(self):
        # with_core_model without a width must not reset an earlier
        # with_simd back to the model's default.
        spec = SystemSpec("mondrian").with_simd(512).with_core_model("cortex-a35")
        assert spec.to_config().core.simd_width_bits == 512

    def test_simd_override_keeps_a35_naming_convention(self):
        cfg = SystemSpec("mondrian").with_simd(256).to_config()
        assert cfg.core.name == "cortex-a35-simd256"

    def test_geometry_and_timing_overrides(self):
        cfg = (
            SystemSpec("mondrian")
            .with_geometry(row_size_b=2048)
            .with_timing(t_cas_ns=13.0)
            .to_config()
        )
        assert cfg.geometry.row_size_b == 2048
        assert cfg.timing.t_cas_ns == 13.0

    def test_label_is_deterministic_and_names_overrides(self):
        spec = SystemSpec("mondrian").with_cores(32).with_topology("star")
        assert spec.label == "mondrian[num_cores=32;topology=star]"
        assert spec.named("m32").label == "m32"
        assert SystemSpec("cpu").label == "cpu"

    def test_is_preset(self):
        assert SystemSpec("cpu").is_preset
        assert not SystemSpec("cpu").with_cores(8).is_preset

    def test_as_spec_coercions(self):
        assert as_spec("cpu") == SystemSpec("cpu")
        spec = SystemSpec("mondrian")
        assert as_spec(spec) is spec
        with pytest.raises(TypeError):
            as_spec(42)

    def test_spec_is_hashable_cache_key(self):
        a = SystemSpec("mondrian").with_cores(32)
        b = SystemSpec("mondrian").with_cores(32)
        assert a.cache_key == b.cache_key
        assert len({a, b}) == 1


class TestSystemSpecValidation:
    def test_unknown_base_preset(self):
        with pytest.raises(KeyError, match="valid presets"):
            SystemSpec("cray")

    def test_unknown_core_model(self):
        with pytest.raises(ValueError, match="core model"):
            SystemSpec("cpu", core_model="pentium")

    def test_invalid_core_count_rejected_at_derivation(self):
        with pytest.raises(ValueError, match="num_cores"):
            SystemSpec("cpu").with_cores(0).to_config()

    def test_invalid_topology(self):
        with pytest.raises(ValueError, match="topology"):
            SystemSpec("cpu", topology="ring").to_config()

    def test_invalid_probe_and_partition_vocabulary(self):
        with pytest.raises(ValueError, match="probe"):
            SystemSpec("cpu").with_probe("btree").to_config()
        with pytest.raises(ValueError, match="partition"):
            SystemSpec("cpu").with_partitioning("range?").to_config()

    def test_cpu_cannot_use_permutable_partitioning(self):
        # Cross-field rule: permutable stores live in the vault
        # controllers, so the CPU-centric system cannot use them.
        with pytest.raises(ValueError, match="near-memory"):
            SystemSpec("cpu").with_partitioning("permutable").to_config()

    def test_unknown_geometry_field(self):
        with pytest.raises(ValueError, match="geometry"):
            SystemSpec("cpu").with_geometry(warp_factor=9).to_config()

    def test_unknown_interleave_model(self):
        with pytest.raises(ValueError, match="interleave"):
            SystemSpec("cpu").with_interleave("adversarial").to_config()

    def test_unknown_spec_field_in_dict(self):
        with pytest.raises(ValueError, match="unknown SystemSpec field"):
            SystemSpec.from_dict({"base": "cpu", "cores": 8})


class TestScenario:
    def test_preset_scenario_matches_direct_run(self):
        from repro.experiments.common import make_workload

        result = Scenario("mondrian", "join", seed=17, **FAST).result()
        direct = build_system("mondrian").run_operator(
            "join", make_workload("join", 17, 8), scale_factor=50.0
        )
        assert result.runtime_s == direct.runtime_s
        assert result.energy.total_j == direct.energy.total_j

    def test_custom_spec_runs_end_to_end(self):
        spec = SystemSpec("mondrian").with_cores(32).with_topology("star")
        result = Scenario(spec, "join", **FAST).result()
        assert result.runtime_s > 0
        # Fewer cores on a narrower network: not faster than the preset.
        preset = Scenario("mondrian", "join", **FAST).result()
        assert result.runtime_s >= preset.runtime_s

    def test_records_shape(self):
        records = Scenario("cpu", "join", **FAST).records()
        assert records, "no records emitted"
        for record in records:
            assert record["system"] == "cpu"
            assert record["workload"] == "join"
            assert record["time_s"] >= 0
            # Component energies sum to the record's total.
            components = (
                record["dram_dynamic_j"] + record["dram_static_j"]
                + record["core_j"] + record["llc_j"] + record["serdes_noc_j"]
            )
            assert components == pytest.approx(record["energy_j"])

    def test_phase_records_sum_to_system_result(self):
        scenario = Scenario("mondrian", "join", **FAST)
        records = scenario.records()
        result = scenario.result()
        assert sum(r["time_s"] for r in records) == pytest.approx(result.runtime_s)
        assert sum(r["energy_j"] for r in records) == pytest.approx(
            result.energy.total_j
        )

    def test_query_scenario(self):
        rs = Scenario("mondrian", "sort-then-scan", **FAST).run()
        stages = rs.unique("stage")
        assert len(stages) == 2
        assert all(rs.filter(stage=s).total("time_s") > 0 for s in stages)

    def test_unknown_workload(self):
        with pytest.raises(ValueError, match="unknown workload"):
            Scenario("cpu", "cartesian")

    def test_result_perf_guardrails(self):
        with pytest.raises(ValueError, match="query scenario"):
            Scenario("cpu", "sort-then-scan").result()
        with pytest.raises(ValueError, match="operator scenario"):
            Scenario("cpu", "join").perf()

    def test_run_plan_custom_pipeline(self):
        from repro.pipeline.queries import fk_join_aggregate

        plan = fk_join_aggregate(n_r=400, n_s=1600, num_partitions=8, seed=1)
        perf = run_plan(SystemSpec("mondrian").with_cores(32), plan, model_scale=50.0)
        assert perf.runtime_s > 0


class TestSweep:
    def test_grid_order_and_size(self):
        sweep = Sweep(systems=("cpu", "mondrian"), workloads=("scan", "join"),
                      scales=(50.0,), num_partitions=(8,))
        assert sweep.size == 4
        labels = [(s.system_label, s.operator) for s in sweep.scenarios()]
        assert labels == [("cpu", "scan"), ("cpu", "join"),
                          ("mondrian", "scan"), ("mondrian", "join")]

    def test_json_round_trip(self):
        sweep = Sweep.from_json((DATA / "sweep_smoke.json").read_text())
        assert Sweep.from_json(sweep.to_json()) == sweep
        assert sweep.size == 4

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="must not be empty"):
            Sweep(systems=())

    def test_scalar_axes_normalize(self):
        # A bare string/number axis means a one-element axis -- both in
        # the constructor and through from_dict -- never an iterable of
        # characters.
        for sweep in (
            Sweep(systems="cpu", workloads="join", scales=500.0, seeds=3,
                  num_partitions=8),
            Sweep.from_dict({"systems": "cpu", "workloads": "join",
                             "scales": 500.0, "seeds": 3, "num_partitions": 8}),
            Sweep.from_dict({"systems": {"base": "cpu"}, "workloads": "join",
                             "scales": 500.0, "seeds": 3, "num_partitions": 8}),
        ):
            assert sweep.workloads == ("join",)
            assert sweep.size == 1

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep field"):
            Sweep.from_dict({"machines": ["cpu"]})

    def test_sweep_smoke_matches_golden(self):
        """The committed 2x2 sweep grid reproduces its golden export
        byte-for-byte (also enforced by `make sweep-smoke`)."""
        sweep = Sweep.from_json((DATA / "sweep_smoke.json").read_text())
        golden = (DATA / "sweep_smoke_golden.json").read_text()
        assert sweep.run().to_json() + "\n" == golden

    @pytest.mark.parametrize("entry_point", sorted(PARITY_RUNS))
    def test_parallel_run_identical(self, entry_point, tmp_path):
        """Every fan-out entry point exports the same bytes at jobs=1 and
        jobs=2, and the workers' store traffic reaches the parent."""
        outputs, stats, objects = {}, {}, {}
        for jobs in (1, 2):
            common.clear_caches()
            previous = common.store_selection()
            store = common.configure_store(tmp_path / f"jobs{jobs}")
            try:
                outputs[jobs] = PARITY_RUNS[entry_point](jobs)
                stats[jobs] = store.stats()
            finally:
                common.restore_store_selection(previous)
            objects[jobs] = sorted(
                p.name for p in (tmp_path / f"jobs{jobs}" / "objects").rglob("*")
                if p.is_file()
            )
        assert outputs[2] == outputs[1]
        assert objects[2] == objects[1]
        for counters in stats.values():
            assert counters["entries"] == len(objects[1]) > 0
            assert counters["puts"] == counters["misses"] >= counters["entries"]
        if entry_point != "paper_report":
            # Paper-report sections overlap, so each worker's private
            # memory tier turns some sequential memory hits into store
            # hits, and concurrent workers may write one digest twice.
            assert stats[2] == stats[1]


#: Mondrian plus derived specs: three that only re-cost Mondrian's run
#: (cores, SIMD width, topology), one that prices a fault schedule onto
#: it and one that changes the variant (interleave).
MEMO_SYSTEMS = (
    "mondrian",
    SystemSpec("mondrian").with_cores(16),
    SystemSpec("mondrian").with_simd(256),
    SystemSpec("mondrian").with_topology("star"),
    SystemSpec("mondrian").with_interleave("random"),
    SystemSpec("mondrian").with_faults(seed=7, drop_prob=0.1, straggler_prob=0.1),
)


def _memo_sweep() -> Sweep:
    return Sweep(systems=MEMO_SYSTEMS, workloads=common.OPERATORS,
                 scales=(50.0,), seeds=(17, 23), num_partitions=(8,))


def _cold_export(sweep: Sweep) -> str:
    """The memo-free oracle: each scenario evaluated alone, after
    ``clear_caches()``, so no run or result is shared between points."""
    records = []
    for scenario in sweep.scenarios():
        common.clear_caches()
        records.extend(scenario.records())
    return ResultSet(records).to_json()


class TestOperatorRunMemo:
    def test_shared_runs_export_the_cold_bytes(self):
        sweep = _memo_sweep()
        common.clear_caches()
        shared = sweep.run().to_json()
        runs = common.cache_stats()["tiers"]["operator-run"]
        assert shared == _cold_export(sweep)
        variants = {
            common.machine_for(s).variant(8).fault_free for s in MEMO_SYSTEMS
        }
        assert len(variants) == 2
        distinct = len(variants) * len(common.OPERATORS) * len(sweep.seeds)
        assert runs == {
            "hits": sweep.size - distinct, "misses": distinct,
            "entries": distinct,
        }

    def test_faulted_baselines_export_the_cold_bytes(self):
        """Faulted CPU and NMP-perm points price the fault-free points'
        runs and export the bytes they export run on their own."""
        faults = dict(seed=3, drop_prob=0.2, duplicate_prob=0.1,
                      timeout_prob=0.2)
        sweep = Sweep(
            systems=("cpu", "nmp-perm",
                     SystemSpec("cpu").with_faults(**faults),
                     SystemSpec("nmp-perm").with_faults(**faults)),
            workloads=common.OPERATORS, scales=(50.0,), num_partitions=(8,),
        )
        common.clear_caches()
        shared = sweep.run().to_json()
        runs = common.cache_stats()["tiers"]["operator-run"]
        assert shared == _cold_export(sweep)
        distinct = 2 * len(common.OPERATORS)
        assert runs == {"hits": distinct, "misses": distinct, "entries": distinct}
        assert '"retries"' in shared

    def test_results_sharing_a_run_are_distinct_objects(self):
        common.clear_caches()
        a = common.run_cached_result("mondrian", "join", 50.0, num_partitions=8)
        b = common.run_cached_result(
            SystemSpec("mondrian").with_cores(16), "join", 50.0, num_partitions=8
        )
        assert common.cache_stats()["tiers"]["operator-run"]["hits"] == 1
        assert a is not b
        assert a.metadata is not b.metadata
        assert a.metadata == b.metadata
        assert a.runtime_s != b.runtime_s  # the same run, costed twice

    def test_run_key_ignores_costing_axes(self):
        keys = {
            common.operator_run_key(common.machine_for(s), "sort", 50.0, 17, 8)
            for s in MEMO_SYSTEMS
        }
        assert len(keys) == 2

    def test_tier_is_reported_and_cleared(self):
        common.clear_caches()
        common.run_cached_result("mondrian", "scan", 50.0, num_partitions=8)
        assert common.cache_stats()["tiers"]["operator-run"]["entries"] == 1
        common.clear_caches()
        assert common.cache_stats()["tiers"]["operator-run"] == {
            "hits": 0, "misses": 0, "entries": 0,
        }

    def test_grouped_parallel_sweep_matches_sequential(self):
        sweep = Sweep(systems=MEMO_SYSTEMS[:3], workloads=("scan", "join"),
                      scales=(50.0,), num_partitions=(8,))
        common.clear_caches()
        sequential = sweep.run(jobs=1).to_json()
        common.clear_caches()
        assert sweep.run(jobs=2).to_json() == sequential


class TestResultSet:
    @pytest.fixture(scope="class")
    def rs(self):
        return Sweep(
            systems=("cpu", "mondrian"), workloads=("scan", "join"),
            scales=(50.0,), num_partitions=(8,),
        ).run()

    def test_filter_and_unique(self, rs):
        assert set(rs.unique("system")) == {"cpu", "mondrian"}
        cpu_only = rs.filter(system="cpu")
        assert set(cpu_only.unique("system")) == {"cpu"}
        assert len(cpu_only) < len(rs)

    def test_filter_predicate(self, rs):
        slow = rs.filter(lambda r: r["time_s"] > 0)
        assert len(slow) == len(rs)

    def test_pivot_runtime(self, rs):
        pivot = rs.pivot(index="system", columns="workload", values="time_s")
        assert set(pivot) == {"cpu", "mondrian"}
        assert pivot["cpu"]["join"] == pytest.approx(
            rs.total("time_s", system="cpu", workload="join")
        )
        # Mondrian wins the join at any scale.
        assert pivot["mondrian"]["join"] < pivot["cpu"]["join"]

    def test_json_round_trip(self, rs):
        again = ResultSet.from_json(rs.to_json())
        assert again.to_records() == rs.to_records()

    def test_csv_header_and_rows(self, rs):
        lines = rs.to_csv().strip().splitlines()
        assert lines[0].split(",")[:2] == ["system", "workload"]
        assert len(lines) == len(rs) + 1

    def test_table_renders(self, rs):
        text = rs.table(columns=["system", "workload", "phase"])
        assert "system" in text and "mondrian" in text

    def test_concatenation(self, rs):
        assert len(rs + rs) == 2 * len(rs)

    def test_pivot_non_numeric_values(self):
        # Suite records carry string-typed label columns (suite, family,
        # stage); pivoting them must pass labels through, not raise
        # float-conversion errors.
        rs = ResultSet(
            [
                {"suite": "a", "system": "cpu", "family": "skew", "t": 1.0},
                {"suite": "a", "system": "cpu", "family": "skew", "t": 2.0},
                {"suite": "a", "system": "mondrian", "family": "skew", "t": 3.0},
            ]
        )
        labels = rs.pivot("suite", "system", "family")
        assert labels == {"a": {"cpu": "skew", "mondrian": "skew"}}
        # Numeric columns still reduce as floats.
        assert rs.pivot("suite", "system", "t")["a"]["cpu"] == pytest.approx(3.0)

    def test_csv_handles_missing_and_string_columns(self):
        # Heterogeneous records (suite rows carry columns operator rows
        # lack, and vice versa): the header is the union, absent cells
        # serialize as empty -- pinned so exports of mixed grids stay
        # loadable.
        rs = ResultSet(
            [
                {"system": "cpu", "suite": "skew-mild", "time_s": 1.0},
                {"system": "cpu", "workload": "join", "time_s": 2.0},
            ]
        )
        lines = rs.to_csv().strip().splitlines()
        assert lines[0] == "system,suite,time_s,workload"
        assert lines[1] == "cpu,skew-mild,1.0,"
        assert lines[2] == "cpu,,2.0,join"


class TestCli:
    def test_api_cli_exports(self, tmp_path, capsys):
        json_out = tmp_path / "out.json"
        csv_out = tmp_path / "out.csv"
        api_main([
            "--sweep", str(DATA / "sweep_smoke.json"),
            "--json", str(json_out), "--csv", str(csv_out),
        ])
        golden = (DATA / "sweep_smoke_golden.json").read_text()
        assert json_out.read_text() == golden
        assert csv_out.read_text().startswith("system,workload,")

    def test_api_cli_inline_grid(self, capsys):
        api_main(["--system", "cpu", "--workload", "scan",
                  "--scale", "50", "--partitions", "8"])
        out = capsys.readouterr().out
        assert "1 scenarios" in out and "cpu" in out

    def test_api_cli_requires_input(self):
        with pytest.raises(SystemExit, match="nothing to run"):
            api_main([])


class TestSharedConstants:
    def test_all_systems_is_the_shared_constant(self):
        assert ALL_SYSTEMS is EVALUATED_PRESETS
        assert all(name in SYSTEM_PRESETS for name in EVALUATED_PRESETS)

class TestWorkloadPartitionProtocol:
    def test_every_workload_declares_num_partitions(self):
        from repro.experiments.common import make_workload

        for op in ("scan", "sort", "groupby", "join"):
            assert make_workload(op, 17, 8).num_partitions == 8

    def test_machine_rejects_partitionless_workloads(self):
        with pytest.raises(TypeError, match="num_partitions"):
            build_system("cpu").run_operator("scan", object())
