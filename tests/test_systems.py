"""System-level tests: machines run operators correctly and reproduce the
paper's qualitative orderings at small scale."""

import pytest

from repro.analytics.workload import (
    make_groupby_workload,
    make_join_workload,
    make_scan_workload,
    make_sort_workload,
)
from repro.operators.oracle import oracle_join, oracle_scan, oracle_sort
from repro.perf.result import partition_speedup, probe_speedup
from repro.systems import Machine, build_system

P = 16
SCALE = 500.0


@pytest.fixture(scope="module")
def join_results():
    w = make_join_workload(2000, 8000, P, seed=31)
    return {
        name: build_system(name).run_operator("join", w, scale_factor=SCALE)
        for name in ("cpu", "nmp-rand", "nmp-seq", "nmp-perm", "mondrian-noperm", "mondrian")
    }


class TestMachineBasics:
    def test_all_presets_build_machines(self):
        for name in ("cpu", "nmp", "nmp-rand", "nmp-seq", "nmp-perm",
                     "mondrian-noperm", "mondrian"):
            assert build_system(name).name == name

    def test_unknown_operator_rejected(self):
        m = build_system("cpu")
        with pytest.raises(KeyError, match="unknown operator"):
            m.run_operator("cartesian", make_scan_workload(100, P))

    def test_bad_scale_rejected(self):
        m = build_system("cpu")
        with pytest.raises(ValueError):
            m.run_operator("scan", make_scan_workload(100, P), scale_factor=0)

    def test_variant_selection(self):
        cpu = build_system("cpu").variant(64)
        assert cpu.radix_bits == 16
        assert cpu.local_sort == "quicksort"
        assert not cpu.simd
        mon = build_system("mondrian").variant(64)
        assert mon.radix_bits == 6
        assert mon.simd and mon.permutable
        assert mon.local_sort == "mergesort"

    def test_functional_output_correct_on_machine(self):
        w = make_scan_workload(2000, P, seed=32)
        for name in ("cpu", "mondrian"):
            r = build_system(name).run_operator("scan", w)
            assert (r.output.matches, r.output.payload_sum) == oracle_scan(w)

    def test_join_output_same_across_machines(self, join_results):
        oracle = oracle_join(make_join_workload(2000, 8000, P, seed=31))
        for name, result in join_results.items():
            assert (result.output.matches, result.output.checksum) == oracle, name

    def test_sort_output_sorted_everywhere(self):
        w = make_sort_workload(2000, P, seed=33)
        for name in ("cpu", "nmp-seq", "mondrian"):
            r = build_system(name).run_operator("sort", w)
            assert r.output.is_sorted()
            assert r.output.multiset_equal(oracle_sort(w))


class TestPaperOrderings:
    """The qualitative shape of the paper's evaluation (section 7)."""

    def test_partition_ordering_table5(self, join_results):
        cpu = join_results["cpu"]
        s = {
            name: partition_speedup(cpu, join_results[name])
            for name in ("nmp-rand", "nmp-perm", "mondrian-noperm", "mondrian")
        }
        # Strict Table 5 ordering.
        assert 1 < s["nmp-rand"] < s["nmp-perm"] < s["mondrian-noperm"] < s["mondrian"]

    def test_permutability_step_ratio(self, join_results):
        # Paper: NMP-perm ~1.7x over NMP from simpler code.
        ratio = (
            join_results["nmp-rand"].partition_time_s
            / join_results["nmp-perm"].partition_time_s
        )
        assert 1.2 < ratio < 2.5

    def test_probe_nmp_rand_beats_nmp_seq_on_join(self, join_results):
        # Paper figure 6: the log n of sort-based probing is not paid
        # back on scalar hardware.
        assert join_results["nmp-rand"].probe_time_s < join_results["nmp-seq"].probe_time_s

    def test_probe_mondrian_absorbs_logn(self, join_results):
        # Mondrian's wide SIMD makes the sort-based probe the fastest.
        assert join_results["mondrian"].probe_time_s < join_results["nmp-seq"].probe_time_s
        assert join_results["mondrian"].probe_time_s <= join_results["nmp-rand"].probe_time_s * 1.1

    def test_overall_mondrian_fastest(self, join_results):
        times = {n: r.runtime_s for n, r in join_results.items()}
        assert times["mondrian"] == min(times.values())
        assert times["cpu"] == max(times.values())

    def test_energy_ordering(self, join_results):
        # Mondrian spends the least energy; the CPU the most.
        energies = {n: r.energy.total_j for n, r in join_results.items()}
        assert energies["mondrian"] == min(energies.values())
        assert energies["cpu"] == max(energies.values())

    def test_permutability_cuts_activations(self, join_results):
        def activations(result):
            return sum(
                p.events.dram_activations
                for p in result.phase_perfs
                if p.phase.is_partitioning
            )
        assert activations(join_results["mondrian"]) * 2 < activations(
            join_results["mondrian-noperm"]
        )

    def test_cpu_cores_dominate_cpu_energy(self, join_results):
        fr = join_results["cpu"].energy.fractions()
        assert fr["cores"] == max(fr.values())

    def test_mondrian_dram_dynamic_share_exceeds_nmp(self, join_results):
        # Aggressive bandwidth use shifts the profile toward dynamic DRAM.
        mon = join_results["mondrian"].energy.fractions()["dram_dyn"]
        nmp = join_results["nmp-rand"].energy.fractions()["dram_dyn"]
        assert mon > nmp


class TestScaling:
    def test_larger_scale_longer_runtime(self):
        w = make_scan_workload(1000, P, seed=35)
        m = build_system("mondrian")
        small = m.run_operator("scan", w, scale_factor=10.0)
        large = m.run_operator("scan", w, scale_factor=100.0)
        assert large.runtime_s == pytest.approx(small.runtime_s * 10, rel=0.05)

    def test_scan_speedup_scale_invariant(self):
        w = make_scan_workload(1000, P, seed=36)
        cpu, mon = build_system("cpu"), build_system("mondrian")
        s_small = (
            cpu.run_operator("scan", w, scale_factor=10).runtime_s
            / mon.run_operator("scan", w, scale_factor=10).runtime_s
        )
        s_large = (
            cpu.run_operator("scan", w, scale_factor=1000).runtime_s
            / mon.run_operator("scan", w, scale_factor=1000).runtime_s
        )
        assert s_small == pytest.approx(s_large, rel=0.05)


class TestBandwidthClaims:
    """Per-vault bandwidth figures from section 7.1."""

    def test_mondrian_scan_near_peak(self):
        w = make_scan_workload(2000, 64, seed=37)
        r = build_system("mondrian").run_operator("scan", w, scale_factor=SCALE)
        perf = r.phase_perfs[0]
        per_vault = perf.achieved_bw_bps / 64
        # Paper: 6.7 GB/s of the 8 GB/s peak.
        assert per_vault > 5e9

    def test_nmp_scan_below_mondrian(self):
        w = make_scan_workload(2000, 64, seed=37)
        nmp = build_system("nmp-rand").run_operator("scan", w, scale_factor=SCALE)
        mon = build_system("mondrian").run_operator("scan", w, scale_factor=SCALE)
        assert (
            nmp.phase_perfs[0].achieved_bw_bps
            < mon.phase_perfs[0].achieved_bw_bps
        )
