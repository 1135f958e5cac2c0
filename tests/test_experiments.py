"""Tests for the experiment drivers: every table/figure driver runs and
reproduces the paper's qualitative claims at reduced scale, and the run
scaffold the grid CLIs share works the same under each of them."""

import argparse
import json

import pytest

from repro.experiments import (
    ablations,
    common,
    fig6_probe,
    fig7_overall,
    fig8_energy,
    fig9_efficiency,
    sec31_activation,
    sec32_mlp,
    skew_partitioning,
    table1_operators,
    table2_phases,
    table5_partition,
)
from repro.api import format_table
from repro.api.__main__ import main as api_main
from repro.experiments import run_all
from repro.experiments.common import make_workload
from repro.suites import __main__ as suites_cli
from repro.telemetry import trace as _trace

#: Reduced scale so the whole experiment suite runs quickly in CI.
SCALE = 500.0


@pytest.fixture(scope="module")
def seed():
    return 17


class TestCommon:
    def test_make_workload_all_operators(self):
        for op in ("scan", "sort", "groupby", "join"):
            assert make_workload(op, num_partitions=8) is not None
        with pytest.raises(ValueError):
            make_workload("cross-product")

    def test_format_table(self):
        out = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "333" in lines[3]


@pytest.fixture
def no_store(monkeypatch):
    """No persistent tier before or after; cold memory caches after."""
    monkeypatch.delenv(common.STORE_ENV, raising=False)
    common.configure_store(None)
    yield
    common.configure_store(None)
    common.clear_caches()


def _cli_args(**overrides):
    """The flags ``common.cli_run`` reads, with their parser defaults."""
    return argparse.Namespace(**{"jobs": 1, "store": None, "trace": None, **overrides})


#: One small run per grid CLI, each going through ``common.cli_run``.
GRID_CLIS = {
    "api": lambda extra: api_main(
        ["--system", "cpu", "--workload", "scan", "--scale", "50",
         "--partitions", "8", "--json", "-", *extra]
    ),
    "suites": lambda extra: suites_cli.main(
        ["run", "--suite", "windowed-clicks", "--system", "cpu",
         "--json", "-", *extra]
    ),
    "run_all": lambda extra: run_all.main(["--fast", *extra]),
}


class TestCliRun:
    def test_jobs_below_one_is_rejected_before_the_block(self, no_store):
        ran = []
        with pytest.raises(SystemExit, match="--jobs must be >= 1"):
            with common.cli_run(_cli_args(jobs=0)):
                ran.append(True)
        assert ran == []

    def test_store_counters_follow_the_block_on_stderr(
        self, no_store, tmp_path, capsys
    ):
        with common.cli_run(_cli_args(store=str(tmp_path))):
            common.run_cached_result("cpu", "scan", 50.0, num_partitions=8)
            print("result")
        captured = capsys.readouterr()
        assert captured.out == "result\n"
        assert captured.err == "store: hits=0 misses=1 puts=1 entries=1\n"

    def test_without_store_or_trace_stderr_stays_empty(self, no_store, capsys):
        with common.cli_run(_cli_args()):
            print("result")
        assert capsys.readouterr() == ("result\n", "")

    def test_trace_is_exported_when_the_block_raises(
        self, no_store, tmp_path, capsys
    ):
        trace_file = tmp_path / "trace.json"
        with pytest.raises(RuntimeError, match="mid-run"):
            with common.cli_run(_cli_args(trace=str(trace_file))):
                with _trace.span("work", category="test"):
                    pass
                raise RuntimeError("mid-run")
        assert _trace.active_tracer() is None
        assert capsys.readouterr().err == f"trace: 1 events -> {trace_file}\n"
        events = json.loads(trace_file.read_text())["traceEvents"]
        assert [e["name"] for e in events if e.get("ph") == "X"] == ["work"]

    @pytest.mark.parametrize("cli", sorted(GRID_CLIS))
    def test_every_grid_cli_rejects_jobs_below_one(self, no_store, cli):
        with pytest.raises(SystemExit, match="--jobs must be >= 1"):
            GRID_CLIS[cli](["--jobs", "0"])

    @pytest.mark.parametrize("cli", ["api", "suites"])
    def test_grid_cli_prints_the_store_line_last(
        self, no_store, tmp_path, capsys, cli
    ):
        GRID_CLIS[cli](["--store", str(tmp_path)])
        cold = capsys.readouterr()
        common.clear_caches()
        GRID_CLIS[cli](["--store", str(tmp_path)])
        warm = capsys.readouterr()
        assert json.loads(cold.out) == json.loads(warm.out)
        # Each --store opens a fresh handle, so the counters are per run.
        assert cold.err.splitlines()[-1] == "store: hits=0 misses=1 puts=1 entries=1"
        assert warm.err.splitlines()[-1] == "store: hits=1 misses=0 puts=0 entries=1"

    def test_run_all_prints_the_store_line_after_the_report(
        self, no_store, tmp_path, capsys, monkeypatch
    ):
        def one_result(scale, jobs):
            common.run_cached_result("cpu", "scan", scale, num_partitions=8)
            print("report")

        monkeypatch.setattr(run_all, "run_paper_report", one_result)
        run_all.main(["--fast", "--store", str(tmp_path)])
        captured = capsys.readouterr()
        assert "report\n" in captured.out
        assert captured.err == "store: hits=0 misses=1 puts=1 entries=1\n"

    def test_run_all_has_only_its_own_modes(self):
        help_text = run_all.build_parser().format_help()
        assert "--pipelines" in help_text
        for borrowed in ("--suites", "--sweep", "--no-cache"):
            assert borrowed not in help_text


class TestTable1:
    def test_all_operators_verified(self):
        out = table1_operators.run()
        assert all(out["verified"].values())
        assert set(out["map"]) == {"scan", "groupby", "join", "sort"}
        assert "GroupByKey" in out["map"]["groupby"]
        assert "ok" in out["table"]
        # The four basic operators cover all listed Spark transformations.
        assert sum(len(ops) for ops in out["map"].values()) == 14


class TestTable2:
    def test_phase_structure(self):
        out = table2_phases.run()
        s = out["structure"]
        assert s["scan"]["histogram"] == []
        assert s["scan"]["distribute"] == []
        for op in ("join", "groupby", "sort"):
            assert s[op]["histogram"], op
            assert s[op]["distribute"], op
        assert "hash-build" in s["join"]["probe"]
        assert "hash-aggregate" in s["groupby"]["probe"]
        assert s["sort"]["probe"] == ["mergesort"]  # local sort only


class TestTable5:
    def test_partition_ordering(self):
        out = table5_partition.run(scale=SCALE)
        s = out["speedups"]
        assert 1 < s["nmp-rand"] < s["nmp-perm"] < s["mondrian-noperm"] < s["mondrian"]
        # Permutability steps (paper: 98/58 = 1.7 on NMP, 273/142 = 1.9
        # on Mondrian).
        assert 1.2 < s["nmp-perm"] / s["nmp-rand"] < 2.5
        assert 1.3 < s["mondrian"] / s["mondrian-noperm"] < 3.0

    def test_within_order_of_magnitude_of_paper(self):
        out = table5_partition.run(scale=SCALE)
        for name, paper in out["paper"].items():
            measured = out["speedups"][name]
            assert paper / 10 < measured < paper * 10, (name, measured, paper)


class TestFig6:
    @pytest.fixture(scope="class")
    def out(self):
        return fig6_probe.run(scale=SCALE)

    def test_scan_identical_for_both_nmp(self, out):
        s = out["speedups"]["scan"]
        assert s["nmp-rand"] == pytest.approx(s["nmp-seq"])
        # Magnitudes near the paper's (2.4x NMP, ~6x Mondrian).
        assert 1.5 < s["nmp-rand"] < 6.0
        assert 3.0 < s["mondrian"] < 15.0

    def test_all_nmp_beat_cpu(self, out):
        for op, series in out["speedups"].items():
            for system, value in series.items():
                assert value > 1.0, (op, system)

    def test_rand_beats_seq_on_join_and_groupby(self, out):
        for op in ("join", "groupby"):
            s = out["speedups"][op]
            assert s["nmp-rand"] > s["nmp-seq"], op

    def test_mondrian_best_probe_everywhere(self, out):
        for op, series in out["speedups"].items():
            assert series["mondrian"] >= max(
                series["nmp-rand"], series["nmp-seq"]
            ) * 0.95, op


class TestFig7:
    @pytest.fixture(scope="class")
    def out(self):
        return fig7_overall.run(scale=SCALE)

    def test_ordering_nmp_to_mondrian(self, out):
        for op, series in out["speedups"].items():
            assert series["nmp"] <= series["nmp-perm"] * 1.01, op
            assert series["mondrian"] > series["nmp"], op
            assert series["nmp"] > 1.0, op

    def test_mondrian_peak_band(self, out):
        # Paper: up to 49x.  Accept the same order of magnitude.
        assert 5 < out["mondrian_peak"] < 49 * 4

    def test_mondrian_vs_best_nmp_band(self, out):
        # Paper: up to 5x.
        assert 5 / 4 < out["mondrian_vs_best_nmp_peak"] < 10


class TestFig8:
    @pytest.fixture(scope="class")
    def out(self):
        return fig8_energy.run(scale=SCALE)

    def test_fractions_normalized(self, out):
        for system, fr in out["fractions"].items():
            assert sum(fr.values()) == pytest.approx(1.0), system

    def test_cpu_cores_dominate(self, out):
        fr = out["fractions"]["cpu"]
        assert fr["cores"] == max(fr.values())

    def test_nmp_and_nmp_perm_profiles_close(self, out):
        # Paper: "the energy profiles of NMP and NMP-perm are near-identical".
        a, b = out["fractions"]["nmp-rand"], out["fractions"]["nmp-perm"]
        for component in a:
            assert a[component] == pytest.approx(b[component], abs=0.1), component

    def test_mondrian_shrinks_static_share(self, out):
        mon = out["fractions"]["mondrian"]
        nmp = out["fractions"]["nmp-rand"]
        static_mon = mon["dram_static"] + mon["serdes_noc"]
        static_nmp = nmp["dram_static"] + nmp["serdes_noc"]
        # Relative to its dynamic share, Mondrian is less static-dominated.
        assert static_mon / mon["dram_dyn"] < static_nmp / nmp["dram_dyn"]
        assert mon["dram_dyn"] > nmp["dram_dyn"]

    def test_total_energy_ordering(self, out):
        t = out["totals_j"]
        assert t["mondrian"] < t["nmp-perm"] <= t["nmp-rand"] < t["cpu"]


class TestFig9:
    @pytest.fixture(scope="class")
    def out(self):
        return fig9_efficiency.run(scale=SCALE)

    def test_everyone_beats_cpu(self, out):
        for op, series in out["improvements"].items():
            for system, value in series.items():
                assert value > 1.0, (op, system)

    def test_mondrian_most_efficient(self, out):
        for op, series in out["improvements"].items():
            assert series["mondrian"] >= series["nmp-perm"] >= series["nmp"] * 0.99, op

    def test_peak_band_vs_paper(self, out):
        # Paper: up to 28x.
        assert 8 < out["mondrian_peak"] < 100

    def test_gains_smaller_than_fig7_performance(self, out):
        # Paper: "the gains are smaller than the performance
        # improvements, reflecting Mondrian's high utilization of
        # system resources".
        perf = fig7_overall.run(scale=SCALE)
        assert out["mondrian_peak"] <= perf["mondrian_peak"] * 1.5


class TestSec31:
    def test_hmc_endpoints_match_paper(self):
        out = sec31_activation.run()
        assert out["hmc_full_row"] == pytest.approx(0.14, abs=0.04)
        assert out["hmc_8b"] == pytest.approx(0.80, abs=0.08)

    def test_monotone_in_granularity(self):
        out = sec31_activation.run()
        hmc = out["fractions"]["HMC"]
        grans = sorted(hmc)
        assert all(hmc[a] > hmc[b] for a, b in zip(grans, grans[1:]))

    def test_larger_rows_worse(self):
        out = sec31_activation.run()
        assert out["fractions"]["HBM"][64] > out["fractions"]["HMC"][64]
        assert out["fractions"]["WideIO2"][64] > out["fractions"]["HBM"][64]


class TestSec32:
    def test_a57_matches_paper_arithmetic(self):
        out = sec32_mlp.run()
        assert out["a57_mlp"] == pytest.approx(21.3, abs=1.5)
        assert out["a57_bw_gbps"] == pytest.approx(5.3, abs=0.5)

    def test_power_budget_verdicts(self):
        out = sec32_mlp.run()
        d = out["details"]
        assert not d["cortex-a57 (OoO)"]["fits_vault_budget"]
        assert d["krait400 (OoO)"]["fits_vault_budget"]
        assert d["mondrian A35+SIMD"]["fits_vault_budget"]

    def test_mondrian_saturates_peak(self):
        out = sec32_mlp.run()
        assert out["details"]["mondrian A35+SIMD"]["bw_gbps"] == pytest.approx(8.0)


class TestAblations:
    def test_simd_width_monotone(self):
        sweep = ablations.simd_width_sweep(scale=SCALE)
        runtimes = [sweep[w] for w in sorted(sweep)]
        # Wider SIMD never hurts, and 1024b beats 128b outright.
        assert all(a >= b * 0.999 for a, b in zip(runtimes, runtimes[1:]))
        assert sweep[1024] < sweep[128]

    def test_row_buffer_saving_grows(self):
        sweep = ablations.row_buffer_sweep()
        savings = {rb: sweep[rb]["saving"] for rb in sweep}
        # Permutability always saves, and saves more on larger rows.
        assert all(s > 2 for s in savings.values())
        assert savings[256] < savings[2048] < savings[4096]

    def test_window_sweep_monotone_and_low(self):
        sweep = ablations.scheduler_window_sweep()
        hit_rates = [sweep[w] for w in sorted(sweep)]
        assert all(a <= b + 1e-9 for a, b in zip(hit_rates, hit_rates[1:]))
        # Practical windows (<= 64) cannot recover the locality that
        # permutability provides by construction (hit rate ~15/16).
        assert sweep[16] < 0.5
        assert sweep[64] < 0.94


class TestSkewPartitioning:
    @pytest.fixture(scope="class")
    def out(self):
        return skew_partitioning.run()

    def test_uniform_data_is_not_retried(self, out):
        uniform = out["points"][0.0]
        assert not uniform["retried"]
        assert uniform["final_imbalance"] < out["capacity_factor"] + 0.1

    def test_heavy_skew_overflows_and_retries(self, out):
        points = out["points"]
        heavy = points[max(points)]
        assert heavy["naive_imbalance"] > out["capacity_factor"]
        assert heavy["retried"]

    def test_retry_restores_capacity_at_every_skew(self, out):
        cap = out["capacity_factor"]
        for alpha, p in out["points"].items():
            assert p["final_imbalance"] <= cap + 0.1, alpha
