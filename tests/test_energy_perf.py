"""Tests for the energy model, memory environments, phase evaluation and
result metrics."""

import pytest

from repro.config.system import SYSTEM_PRESETS, get_preset
from repro.energy import EnergyBreakdown, EnergyEvents, EnergyModel
from repro.interconnect.topology import build_topology
from repro.operators.base import PHASE_DISTRIBUTE, PHASE_PROBE, PhaseCost
from repro.perf.memenv import derive_mem_environment, rand_region_cache_level
from repro.perf.model import PhaseEvaluator
from repro.perf.result import (
    SystemResult,
    efficiency_improvement,
    partition_speedup,
    speedup,
)


#: Presets whose compute units stream through the section 5.2 stream
#: buffers.
STREAM_BUFFER_PRESETS = [
    name for name, cfg in SYSTEM_PRESETS.items() if cfg.core.has_stream_buffers
]


def make_topology(preset):
    cfg = get_preset(preset)
    return cfg, build_topology(cfg.topology, cfg.geometry, cfg.interconnect)


def probe_phase(**kwargs):
    defaults = dict(name="p", category=PHASE_PROBE, instructions=1e6)
    defaults.update(kwargs)
    return PhaseCost(**defaults)


class TestEnergyEvents:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            EnergyEvents(dram_bytes=-1)


class TestEnergyBreakdown:
    def test_total_and_fractions(self):
        bd = EnergyBreakdown(
            dram_dynamic_j=1.0, dram_static_j=1.0, core_j=1.5, llc_j=0.5,
            serdes_noc_j=1.0,
        )
        assert bd.total_j == pytest.approx(5.0)
        fr = bd.fractions()
        assert sum(fr.values()) == pytest.approx(1.0)
        assert fr["cores"] == pytest.approx(0.4)  # core + llc

    def test_empty_fractions(self):
        assert sum(EnergyBreakdown().fractions().values()) == 0.0

    def test_accumulate(self):
        a = EnergyBreakdown(core_j=1.0)
        a.accumulate(EnergyBreakdown(core_j=2.0, dram_static_j=1.0))
        assert a.core_j == 3.0
        assert a.dram_static_j == 1.0


class TestEnergyModel:
    def test_activation_energy_charged(self):
        cfg = get_preset("mondrian")
        model = EnergyModel(cfg, num_serdes_links=6)
        e1 = model.phase_energy(EnergyEvents(dram_activations=1e6), 0.0, 0.3)
        assert e1.dram_dynamic_j == pytest.approx(1e6 * 0.65e-9)

    def test_static_scales_with_runtime(self):
        cfg = get_preset("mondrian")
        model = EnergyModel(cfg, 6)
        short = model.phase_energy(EnergyEvents(), 0.001, 0.3)
        long = model.phase_energy(EnergyEvents(), 0.002, 0.3)
        assert long.dram_static_j == pytest.approx(2 * short.dram_static_j)
        assert long.serdes_noc_j == pytest.approx(2 * short.serdes_noc_j)

    def test_core_energy_uses_utilization(self):
        cfg = get_preset("cpu")
        model = EnergyModel(cfg, 4)
        idle = model.phase_energy(EnergyEvents(), 1.0, 0.3)
        busy = model.phase_energy(EnergyEvents(), 1.0, 1.0)
        assert busy.core_j == pytest.approx(cfg.num_cores * 2.1)
        assert idle.core_j < busy.core_j

    def test_llc_only_on_cpu(self):
        events = EnergyEvents(llc_accesses=1e6)
        cpu = EnergyModel(get_preset("cpu"), 4).phase_energy(events, 0.01, 0.5)
        mon = EnergyModel(get_preset("mondrian"), 6).phase_energy(events, 0.01, 0.5)
        assert cpu.llc_j > 0
        assert mon.llc_j == 0

    def test_serdes_idle_accrues_without_traffic(self):
        model = EnergyModel(get_preset("mondrian"), 6)
        e = model.phase_energy(EnergyEvents(), 1.0, 0.3)
        assert e.serdes_noc_j > 0

    def test_noc_energy_charged_per_bit_mm(self):
        model = EnergyModel(get_preset("mondrian"), 6)
        # 64 B x 8 bits x 6 hops x 1 mm at 0.04 pJ/bit/mm (Table 4).
        e = model.phase_energy(EnergyEvents(noc_bit_mm=64 * 8 * 6), 0.0, 0.3)
        assert e.serdes_noc_j == pytest.approx(64 * 8 * 6 * 0.04e-12)

    def test_serdes_busy_energy_charged_per_bit(self):
        model = EnergyModel(get_preset("mondrian"), 6)
        e = model.phase_energy(EnergyEvents(serdes_bytes=1), 0.0, 0.3)
        assert e.serdes_noc_j == pytest.approx(8 * 3e-12)

    def test_serdes_idle_energy_per_link_and_second(self):
        cfg = get_preset("mondrian")
        no_links = EnergyModel(cfg, 0).phase_energy(EnergyEvents(), 1.0, 0.3)
        six_links = EnergyModel(cfg, 6).phase_energy(EnergyEvents(), 1.0, 0.3)
        # NoC leakage alone without links; each link idles at 1 pJ/bit in
        # both directions at its full bandwidth.
        assert no_links.serdes_noc_j == pytest.approx(
            cfg.energy.noc_leakage_w * cfg.geometry.num_stacks
        )
        idle_bits = 6 * cfg.interconnect.serdes_bw_bps_per_dir * 8 * 2
        assert six_links.serdes_noc_j - no_links.serdes_noc_j == pytest.approx(
            idle_bits * 1e-12
        )

    def test_rejects_negative_link_count(self):
        with pytest.raises(ValueError, match="link count"):
            EnergyModel(get_preset("mondrian"), -1)

    def test_input_validation(self):
        model = EnergyModel(get_preset("cpu"), 4)
        with pytest.raises(ValueError):
            model.phase_energy(EnergyEvents(), -1.0, 0.5)
        with pytest.raises(ValueError):
            model.phase_energy(EnergyEvents(), 1.0, 1.5)


class TestMemEnvironment:
    def test_cache_level_classification(self):
        cpu = get_preset("cpu")
        assert rand_region_cache_level(cpu, 1024) == "l1"
        assert rand_region_cache_level(cpu, 100 * 1024) == "llc"
        assert rand_region_cache_level(cpu, 64 << 20) == "memory"
        mon = get_preset("mondrian")
        assert rand_region_cache_level(mon, 100 * 1024) == "memory"

    def test_llc_share_divided_by_cores(self):
        # 512 KB per-core region on a 4 MB LLC shared by 16 cores thrashes.
        cpu = get_preset("cpu")
        assert rand_region_cache_level(cpu, 512 * 1024) == "memory"

    def test_cpu_latency_exceeds_nmp(self):
        cpu_cfg, cpu_topo = make_topology("cpu")
        mon_cfg, mon_topo = make_topology("mondrian")
        phase = probe_phase(rand_reads=100, rand_region_b=1 << 29)
        cpu_env = derive_mem_environment(cpu_cfg, cpu_topo, phase)
        mon_env = derive_mem_environment(mon_cfg, mon_topo, phase)
        assert cpu_env.rand_latency_ns > mon_env.rand_latency_ns * 1.5

    def test_nmp_seq_bw_near_vault_peak(self):
        cfg, topo = make_topology("mondrian")
        env = derive_mem_environment(cfg, topo, probe_phase())
        assert env.seq_bw_bps == pytest.approx(8e9)

    def test_cpu_seq_bw_link_and_prefetch_limited(self):
        cfg, topo = make_topology("cpu")
        env = derive_mem_environment(cfg, topo, probe_phase())
        assert env.seq_bw_bps <= 80e9 / 16

    @pytest.mark.parametrize("preset", STREAM_BUFFER_PRESETS)
    def test_stream_buffers_hide_dram_latency(self, preset):
        # The in-order core streams without latency stalls (section 5.2)
        # only if each vault's stream stays under the vault's peak and one
        # stream buffer covers a row-miss round trip at that rate.
        cfg, topo = make_topology(preset)
        env = derive_mem_environment(cfg, topo, probe_phase())
        geo = cfg.geometry
        vaults_per_unit = max(1.0, geo.total_vaults / cfg.num_cores)
        per_vault_bps = env.seq_bw_bps / vaults_per_unit
        assert per_vault_bps <= geo.vault_peak_bw_bps
        covered_b = per_vault_bps * cfg.timing.row_miss_latency_ns * 1e-9
        assert covered_b <= cfg.core.stream_buffer_b


class TestPhaseEvaluator:
    def test_probe_phase_time_positive(self):
        cfg, topo = make_topology("mondrian")
        ev = PhaseEvaluator(cfg, topo)
        perf = ev.evaluate(probe_phase(seq_read_b=1e9))
        assert perf.time_ns > 0
        assert perf.events.dram_bytes == pytest.approx(1e9)
        assert perf.events.dram_activations == pytest.approx(1e9 / 256)

    def test_shuffle_caps_applied(self):
        cfg, topo = make_topology("nmp-perm")
        ev = PhaseEvaluator(cfg, topo)
        phase = PhaseCost(
            name="d", category=PHASE_DISTRIBUTE, instructions=1e6,
            seq_read_b=1e9, shuffle_b=1e9, permutable_writes=True,
        )
        perf = ev.evaluate(phase)
        assert "network" in perf.limits and "dest_dram" in perf.limits

    def test_permutable_vs_addressed_activations(self):
        cfg_a, topo_a = make_topology("nmp-rand")
        cfg_p, topo_p = make_topology("nmp-perm")
        shuffle = dict(
            name="d", category=PHASE_DISTRIBUTE, instructions=1e6,
            seq_read_b=1e8, shuffle_b=1e8, rand_writes=1e8 / 16,
        )
        addr = PhaseEvaluator(cfg_a, topo_a).evaluate(
            PhaseCost(permutable_writes=False, **shuffle)
        )
        perm = PhaseEvaluator(cfg_p, topo_p).evaluate(
            PhaseCost(permutable_writes=True, **shuffle)
        )
        assert perm.events.dram_activations * 3 < addr.events.dram_activations

    def test_shuffle_crosses_serdes_only_between_stacks(self):
        """Near memory, only the share of a shuffle bound for another
        stack crosses a SerDes link; a CPU-centric machine carries every
        shuffled byte up to the host and back down."""
        phase = PhaseCost(
            name="d", category=PHASE_DISTRIBUTE, instructions=1e6,
            shuffle_b=1e8, permutable_writes=True,
        )
        cfg, topo = make_topology("mondrian")
        near = PhaseEvaluator(cfg, topo).evaluate(phase).events
        stacks = cfg.geometry.num_stacks
        assert near.serdes_bytes == pytest.approx(1e8 * (stacks - 1) / stacks)
        cfg, topo = make_topology("cpu")
        host = PhaseEvaluator(cfg, topo).evaluate(
            PhaseCost(name="d", category=PHASE_DISTRIBUTE, instructions=1e6, shuffle_b=1e8)
        ).events
        assert host.serdes_bytes == pytest.approx(2e8)

    def test_llc_resident_region_no_dram_randoms(self):
        cfg, topo = make_topology("cpu")
        ev = PhaseEvaluator(cfg, topo)
        perf = ev.evaluate(
            probe_phase(rand_reads=1e6, rand_region_b=64 * 1024)  # fits LLC share
        )
        assert perf.events.llc_accesses >= 1e6
        assert perf.events.dram_activations == 0

    def test_utilization_bounds(self):
        cfg, topo = make_topology("cpu")
        perf = PhaseEvaluator(cfg, topo).evaluate(probe_phase())
        assert 0.3 <= perf.core_utilization <= 1.0

    def test_achieved_bw(self):
        cfg, topo = make_topology("mondrian")
        perf = PhaseEvaluator(cfg, topo).evaluate(probe_phase(seq_read_b=1e9))
        assert perf.achieved_bw_bps > 0


class TestResultMetrics:
    def _result(self, runtime_scale=1.0, energy_scale=1.0):
        cfg, topo = make_topology("cpu")
        perf = PhaseEvaluator(cfg, topo).evaluate(
            probe_phase(instructions=1e6 * runtime_scale)
        )
        return SystemResult(
            system="cpu", operator="scan", variant="v", phase_perfs=[perf],
            energy=EnergyBreakdown(core_j=1.0 * energy_scale), output=None,
        )

    def test_speedup(self):
        slow = self._result(runtime_scale=10)
        fast = self._result(runtime_scale=1)
        assert speedup(slow, fast) == pytest.approx(10.0, rel=0.01)

    def test_efficiency_improvement_is_energy_ratio(self):
        hungry = self._result(energy_scale=4.0)
        frugal = self._result(energy_scale=1.0)
        assert efficiency_improvement(hungry, frugal) == pytest.approx(4.0)

    def test_phase_lookup(self):
        r = self._result()
        assert r.phase("p").phase.name == "p"
        with pytest.raises(KeyError):
            r.phase("missing")
