"""Tests for repro.config: Table 3/4 parameters and system presets."""

import pytest

from repro.config import (
    CoreConfig,
    DramTiming,
    EnergyConfig,
    HmcGeometry,
    InterconnectConfig,
    SYSTEM_PRESETS,
    cortex_a35_mondrian,
    cortex_a57_cpu,
    default_energy_config,
    get_preset,
    krait400_nmp,
)
from repro.config.system import (
    PARTITION_ADDRESSED,
    PARTITION_PERMUTABLE,
    PROBE_HASH,
    PROBE_SORT,
    TOPOLOGY_FULL,
    TOPOLOGY_STAR,
)


class TestDramTiming:
    def test_table3_defaults(self):
        t = DramTiming()
        assert t.t_ck_ns == 1.6
        assert t.t_ras_ns == 22.4
        assert t.t_rcd_ns == 11.2
        assert t.t_cas_ns == 11.2
        assert t.t_wr_ns == 14.4
        assert t.t_rp_ns == 11.2

    def test_derived_latencies(self):
        t = DramTiming()
        assert t.row_hit_latency_ns == pytest.approx(11.2)
        assert t.row_miss_latency_ns == pytest.approx(11.2 + 11.2 + 11.2)
        assert t.row_cycle_ns == pytest.approx(22.4 + 11.2)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            DramTiming(t_ras_ns=0)
        with pytest.raises(ValueError):
            DramTiming(t_cas_ns=-1)


class TestHmcGeometry:
    def test_paper_machine(self):
        g = HmcGeometry()
        assert g.total_vaults == 64
        assert g.total_vaults * g.vault_capacity_b == 32 * 1024**3
        assert g.row_size_b == 256
        assert g.banks_per_vault == 8
        assert g.vault_peak_bw_gbps == 8.0

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            HmcGeometry(num_stacks=0)
        with pytest.raises(ValueError):
            HmcGeometry(row_size_b=-256)
        with pytest.raises(ValueError):
            HmcGeometry(vault_capacity_b=1000, row_size_b=256)
        with pytest.raises(ValueError):
            HmcGeometry(min_access_b=64, max_access_b=8)


class TestCoreConfigs:
    def test_a57(self):
        c = cortex_a57_cpu()
        assert c.frequency_hz == 2e9
        assert c.rob_entries == 128
        assert c.out_of_order
        assert c.peak_power_w == 2.1
        assert c.cycle_time_ns == pytest.approx(0.5)

    def test_krait(self):
        c = krait400_nmp()
        assert c.rob_entries == 48
        assert c.peak_power_w == pytest.approx(0.312)

    def test_mondrian_core(self):
        c = cortex_a35_mondrian()
        assert not c.out_of_order
        assert c.simd_width_bits == 1024
        assert c.simd_lanes_64b == 16
        assert c.has_stream_buffers
        assert c.num_stream_buffers == 8
        assert c.stream_buffer_b == 384
        assert c.peak_power_w == pytest.approx(0.180)

    def test_mondrian_simd_width_ablation(self):
        c = cortex_a35_mondrian(simd_width_bits=128)
        assert c.simd_lanes_64b == 2

    def test_a57_mlp_matches_paper_estimate(self):
        # Section 3.2: ~20 outstanding accesses for a 128-entry ROB.
        c = cortex_a57_cpu()
        assert c.max_outstanding_mem(6.0) == pytest.approx(128 / 6, abs=1.5)

    def test_in_order_mlp_is_stream_buffers(self):
        assert cortex_a35_mondrian().max_outstanding_mem() == 8.0

    def test_rejects_bad_cores(self):
        with pytest.raises(ValueError):
            CoreConfig(
                name="x", frequency_hz=0, issue_width=1, out_of_order=False,
                rob_entries=0, mshrs=1, simd_width_bits=0, peak_power_w=1.0,
            )
        with pytest.raises(ValueError):
            CoreConfig(
                name="x", frequency_hz=1e9, issue_width=1, out_of_order=True,
                rob_entries=0, mshrs=1, simd_width_bits=0, peak_power_w=1.0,
            )


class TestEnergyConfig:
    def test_table4_constants(self):
        e = default_energy_config()
        assert e.dram_activation_j == pytest.approx(0.65e-9)
        assert e.dram_access_j_per_bit == pytest.approx(2e-12)
        assert e.hmc_background_w_per_cube == pytest.approx(0.980)
        assert e.serdes_idle_j_per_bit == pytest.approx(1e-12)
        assert e.serdes_busy_j_per_bit == pytest.approx(3e-12)
        assert e.llc_access_j == pytest.approx(0.09e-9)

    def test_access_energy_scales_with_bits(self):
        e = default_energy_config()
        assert e.dram_access_j(64) == pytest.approx(64 * 8 * 2e-12)
        assert e.dram_access_j(0) == 0.0

    def test_activation_fraction_shape(self):
        # Section 3.1: ~14% for a full HMC row, ~80% for 8 B.
        e = default_energy_config()
        assert 0.10 < e.activation_fraction(256, 256) < 0.20
        assert 0.75 < e.activation_fraction(8, 256) < 0.90

    def test_activation_fraction_grows_with_row_size(self):
        e = default_energy_config()
        hmc = e.activation_fraction(64, 256)
        hbm = e.activation_fraction(64, 2048)
        wideio = e.activation_fraction(64, 4096)
        assert hmc < hbm < wideio

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            EnergyConfig(dram_activation_j=-1)
        with pytest.raises(ValueError):
            default_energy_config().dram_access_j(-1)


class TestInterconnectConfig:
    def test_table3_values(self):
        i = InterconnectConfig()
        assert i.noc_link_b == 16
        assert i.noc_cycles_per_hop == 3
        assert i.serdes_bw_bps_per_dir == pytest.approx(20e9)  # 160 Gb/s

    def test_serialization(self):
        i = InterconnectConfig()
        assert i.noc_serialization_ns(16) == pytest.approx(1.0)
        assert i.noc_serialization_ns(17) == pytest.approx(2.0)
        assert i.noc_serialization_ns(0) == 0.0

    def test_hop_latency(self):
        assert InterconnectConfig().noc_hop_latency_ns() == pytest.approx(3.0)


class TestSystemPresets:
    def test_all_presets_build(self):
        for name in SYSTEM_PRESETS:
            cfg = get_preset(name)
            assert cfg.name == name

    def test_paper_configurations(self):
        cpu = get_preset("cpu")
        assert cpu.num_cores == 16
        assert cpu.topology == TOPOLOGY_STAR
        assert cpu.has_cache_hierarchy
        assert cpu.llc_b == 4 * 1024 * 1024
        assert cpu.probe_algorithm == PROBE_HASH

        nmp = get_preset("nmp-rand")
        assert nmp.num_cores == 64
        assert nmp.topology == TOPOLOGY_FULL
        assert nmp.partition_scheme == PARTITION_ADDRESSED

        perm = get_preset("nmp-perm")
        assert perm.partition_scheme == PARTITION_PERMUTABLE
        assert perm.uses_permutability

        mon = get_preset("mondrian")
        assert mon.kind == "mondrian"
        assert mon.probe_algorithm == PROBE_SORT
        assert mon.uses_permutability
        assert not mon.has_cache_hierarchy

        mon_np = get_preset("mondrian-noperm")
        assert not mon_np.uses_permutability

    def test_near_memory_flag(self):
        assert not get_preset("cpu").is_near_memory
        assert get_preset("nmp-seq").is_near_memory
        assert get_preset("mondrian").is_near_memory

    def test_unknown_preset_raises_with_choices(self):
        with pytest.raises(KeyError, match="mondrian"):
            get_preset("nope")

    def test_with_overrides(self):
        cfg = get_preset("mondrian").with_overrides(num_cores=32)
        assert cfg.num_cores == 32
        assert get_preset("mondrian").num_cores == 64  # original untouched

    def test_rejects_invalid_fields(self):
        with pytest.raises(ValueError):
            get_preset("cpu").with_overrides(kind="gpu")
        with pytest.raises(ValueError):
            get_preset("cpu").with_overrides(num_cores=0)
        with pytest.raises(ValueError):
            get_preset("cpu").with_overrides(probe_algorithm="btree")
