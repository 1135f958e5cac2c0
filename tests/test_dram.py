"""Tests for the DRAM bank/vault event models and the analytic estimators,
including the cross-validation between the two."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config.dram import DramTiming, HmcGeometry
from repro.dram import (
    InterleavedWrites,
    RandomAccesses,
    SequentialStream,
    estimate_pattern,
)
from repro.dram.bank import Bank
from repro.dram.vault import VaultMemory, VaultRequest

GEO = HmcGeometry()
TIMING = DramTiming()


class TestBank:
    def make(self):
        return Bank(timing=TIMING, row_size_b=256)

    def test_first_access_activates(self):
        bank = self.make()
        done = bank.serve(0.0, row=3, size_b=64, is_write=False)
        assert bank.stats.activations == 1
        assert bank.stats.row_misses == 1
        assert bank.open_row == 3
        # Closed bank: activate (tRCD) + CAS.
        assert done == pytest.approx(TIMING.t_rcd_ns + TIMING.t_cas_ns)

    def test_row_hit_pays_cas_only(self):
        bank = self.make()
        t1 = bank.serve(0.0, row=3, size_b=64, is_write=False)
        t2 = bank.serve(t1, row=3, size_b=64, is_write=False)
        assert bank.stats.row_hits == 1
        assert t2 - t1 == pytest.approx(TIMING.t_cas_ns)

    def test_conflict_pays_precharge(self):
        bank = self.make()
        t1 = bank.serve(0.0, row=1, size_b=64, is_write=False)
        t2 = bank.serve(t1, row=2, size_b=64, is_write=False)
        assert bank.stats.activations == 2
        # Must wait out tRAS before precharging.
        assert t2 >= TIMING.t_ras_ns + TIMING.t_rp_ns + TIMING.t_rcd_ns + TIMING.t_cas_ns - 1e-9

    def test_write_extends_precharge_window(self):
        bank = self.make()
        t1 = bank.serve(0.0, row=1, size_b=64, is_write=True)
        before = bank.precharge_ok_ns
        assert before >= t1 + TIMING.t_wr_ns - 1e-9

    def test_tracks_bytes(self):
        bank = self.make()
        bank.serve(0.0, 0, 64, is_write=False)
        bank.serve(100.0, 0, 32, is_write=True)
        assert bank.stats.bytes_read == 64
        assert bank.stats.bytes_written == 32

    def test_rejects_multirow_access(self):
        with pytest.raises(ValueError):
            self.make().serve(0.0, 0, 512, is_write=False)

    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            self.make().serve(0.0, 0, 0, is_write=False)

    def test_reset_keeps_stats(self):
        bank = self.make()
        bank.serve(0.0, 1, 64, False)
        bank.reset()
        assert bank.open_row is None
        assert bank.stats.activations == 1

    def test_hit_rate(self):
        bank = self.make()
        assert bank.stats.row_hit_rate is None
        bank.serve(0.0, 0, 64, False)
        bank.serve(50.0, 0, 64, False)
        assert bank.stats.row_hit_rate == pytest.approx(0.5)


class TestVaultMemory:
    def test_sequential_stream_one_activation_per_row(self):
        vault = VaultMemory(GEO, TIMING)
        reqs = [
            VaultRequest(arrival_ns=i * 2.0, addr=i * 256, size_b=256, is_write=False)
            for i in range(32)
        ]
        vault.run_trace(reqs)
        assert vault.stats.activations == 32
        assert vault.stats.bus_bytes == 32 * 256

    def test_multirow_request_split(self):
        vault = VaultMemory(GEO, TIMING)
        vault.run_trace([VaultRequest(0.0, addr=128, size_b=256, is_write=False)])
        # Crosses one row boundary -> two activations.
        assert vault.stats.activations == 2

    def test_repeat_same_row_hits(self):
        vault = VaultMemory(GEO, TIMING)
        reqs = [VaultRequest(i * 50.0, addr=0, size_b=64, is_write=False) for i in range(10)]
        vault.run_trace(reqs)
        assert vault.stats.activations == 1
        assert vault.stats.bank.row_hits == 9

    def test_fr_fcfs_prefers_open_row(self):
        # Interleave two rows in one bank: reordering within the window
        # should recover some locality vs. strict arrival order.
        vault_frfcfs = VaultMemory(GEO, TIMING, scheduler_window=16)
        vault_fifo = VaultMemory(GEO, TIMING, scheduler_window=1)
        rows = [0, 8, 0, 8, 0, 8, 0, 8]  # same bank (8-row stride = same bank 0)
        reqs = [
            VaultRequest(0.0, addr=r * 256, size_b=64, is_write=False) for r in rows
        ]
        vault_frfcfs.run_trace(list(reqs))
        vault_fifo.run_trace(list(reqs))
        assert vault_frfcfs.stats.activations <= vault_fifo.stats.activations

    def test_bus_serialization_caps_bandwidth(self):
        vault = VaultMemory(GEO, TIMING)
        n = 64
        reqs = [VaultRequest(0.0, addr=i * 256, size_b=256, is_write=False) for i in range(n)]
        last = vault.run_trace(reqs)
        bw = vault.stats.bus_bytes / (last * 1e-9)
        assert bw <= GEO.vault_peak_bw_bps * 1.01

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            VaultMemory(GEO, TIMING, scheduler_window=0)

    def test_rejects_bad_request(self):
        with pytest.raises(ValueError):
            VaultRequest(0.0, addr=-1, size_b=64, is_write=False)
        with pytest.raises(ValueError):
            VaultRequest(0.0, addr=0, size_b=0, is_write=False)


class TestAnalyticSequential:
    def test_one_activation_per_row(self):
        est = estimate_pattern(SequentialStream(total_b=256 * 10), GEO, TIMING)
        assert est.activations == 10
        assert est.bytes == 2560

    def test_small_accesses_hit_open_row(self):
        est = estimate_pattern(SequentialStream(total_b=2560, access_b=64), GEO, TIMING)
        assert est.accesses == 40
        assert est.activations == 10
        assert est.row_hit_rate == pytest.approx(0.75)

    def test_empty_stream(self):
        est = estimate_pattern(SequentialStream(total_b=0), GEO, TIMING)
        assert est.accesses == 0
        assert est.activations == 0

    def test_sustainable_is_peak(self):
        est = estimate_pattern(SequentialStream(total_b=1 << 20), GEO, TIMING)
        assert est.sustainable_bw_bps == GEO.vault_peak_bw_bps

    @given(n_rows=st.integers(1, 64))
    @settings(max_examples=20, deadline=None)
    def test_matches_event_model(self, n_rows):
        est = estimate_pattern(SequentialStream(total_b=n_rows * 256), GEO, TIMING)
        vault = VaultMemory(GEO, TIMING)
        reqs = [
            VaultRequest(i * 2.0, addr=i * 256, size_b=256, is_write=False)
            for i in range(n_rows)
        ]
        vault.run_trace(reqs)
        assert vault.stats.activations == est.activations


class TestAnalyticRandom:
    def test_large_region_always_misses(self):
        est = estimate_pattern(
            RandomAccesses(count=1000, access_b=64, region_b=1 << 29), GEO, TIMING
        )
        assert est.row_hit_rate < 0.01
        assert est.activations >= 990

    def test_tiny_region_hits(self):
        est = estimate_pattern(
            RandomAccesses(count=1000, access_b=64, region_b=512), GEO, TIMING
        )
        assert est.row_hit_rate == 1.0
        assert est.activations == 0

    def test_latency_between_hit_and_miss(self):
        est = estimate_pattern(
            RandomAccesses(count=100, access_b=64, region_b=1 << 24), GEO, TIMING
        )
        assert TIMING.row_hit_latency_ns <= est.avg_latency_ns <= TIMING.row_miss_latency_ns

    def test_bandwidth_worse_than_sequential(self):
        rand = estimate_pattern(
            RandomAccesses(count=1000, access_b=16, region_b=1 << 29), GEO, TIMING
        )
        seq = estimate_pattern(SequentialStream(total_b=16000), GEO, TIMING)
        assert rand.sustainable_bw_bps < seq.sustainable_bw_bps


class TestAnalyticInterleaved:
    def test_permutable_matches_sequential(self):
        total = 4096 * 16
        perm = estimate_pattern(
            InterleavedWrites(total_b=total, object_b=16, num_sources=63, permutable=True),
            GEO,
            TIMING,
        )
        assert perm.activations == total // 256

    def test_addressed_mostly_misses_with_many_sources(self):
        est = estimate_pattern(
            InterleavedWrites(total_b=4096 * 16, object_b=16, num_sources=63, permutable=False),
            GEO,
            TIMING,
        )
        # 63 interleaved sources vs 8 banks and a 16-deep window.
        assert est.row_hit_rate < 0.25

    def test_few_sources_keep_rows_open(self):
        est = estimate_pattern(
            InterleavedWrites(total_b=4096 * 16, object_b=16, num_sources=4, permutable=False),
            GEO,
            TIMING,
        )
        assert est.row_hit_rate > 0.8

    def test_giant_window_recovers_locality(self):
        # Reordering alone only recovers the locality once the window
        # spans objects_per_row x num_sources messages -- far beyond
        # practical windows (paper section 4.1.2).
        est_realistic = estimate_pattern(
            InterleavedWrites(total_b=4096 * 16, object_b=16, num_sources=63, permutable=False),
            GEO,
            TIMING,
            scheduler_window=128,
        )
        est_giant = estimate_pattern(
            InterleavedWrites(total_b=4096 * 16, object_b=16, num_sources=63, permutable=False),
            GEO,
            TIMING,
            scheduler_window=16 * 63,
        )
        assert est_realistic.row_hit_rate < 0.6
        assert est_giant.row_hit_rate > 0.9

    def test_row_sized_objects_need_no_permutation(self):
        # Paper section 5.3: objects >= 256 B exploit row locality anyway.
        est = estimate_pattern(
            InterleavedWrites(total_b=1 << 16, object_b=256, num_sources=63, permutable=False),
            GEO,
            TIMING,
        )
        assert est.activations == (1 << 16) // 256

    def test_permutability_saving_factor(self):
        # 16 B objects in 256 B rows: permutability cuts activations ~14x.
        kwargs = dict(total_b=1 << 20, object_b=16, num_sources=63)
        addr = estimate_pattern(InterleavedWrites(permutable=False, **kwargs), GEO, TIMING)
        perm = estimate_pattern(InterleavedWrites(permutable=True, **kwargs), GEO, TIMING)
        assert addr.activations / perm.activations > 10

    def test_rejects_unknown_pattern(self):
        with pytest.raises(TypeError):
            estimate_pattern(object(), GEO, TIMING)


class TestEventVsAnalyticShuffle:
    """Replay shuffle-like traces on the event model and check the
    analytic interleaved-write estimator's activation counts."""

    def _trace(self, num_sources, objects_per_source, permutable):
        object_b = 16
        total = num_sources * objects_per_source
        if permutable:
            addrs = [i * object_b for i in range(total)]
        else:
            addrs = []
            for i in range(total):
                src = i % num_sources
                idx = i // num_sources
                addrs.append((src * objects_per_source + idx) * object_b)
        return [
            VaultRequest(i * 2.0, addr=a, size_b=object_b, is_write=True)
            for i, a in enumerate(addrs)
        ]

    @pytest.mark.parametrize("num_sources", [4, 16, 63])
    def test_activation_counts_bracket_event_model(self, num_sources):
        objects_per_source = 64
        total_b = num_sources * objects_per_source * 16
        for permutable in (True, False):
            vault = VaultMemory(GEO, TIMING)
            vault.run_trace(self._trace(num_sources, objects_per_source, permutable))
            est = estimate_pattern(
                InterleavedWrites(
                    total_b=total_b, object_b=16, num_sources=num_sources,
                    permutable=permutable,
                ),
                GEO,
                TIMING,
            )
            event = vault.stats.activations
            # Analytic estimate within 2x of the event model (the event
            # model's FR-FCFS recovers slightly more locality).
            assert est.activations <= event * 2 + 8
            assert est.activations >= event / 2 - 8

    def test_permutable_strictly_fewer_activations(self):
        num_sources, per_src = 32, 64
        v_perm = VaultMemory(GEO, TIMING)
        v_perm.run_trace(self._trace(num_sources, per_src, True))
        v_addr = VaultMemory(GEO, TIMING)
        v_addr.run_trace(self._trace(num_sources, per_src, False))
        assert v_perm.stats.activations * 4 < v_addr.stats.activations

    def test_permutable_finishes_faster(self):
        num_sources, per_src = 32, 64
        v_perm = VaultMemory(GEO, TIMING)
        t_perm = v_perm.run_trace(self._trace(num_sources, per_src, True))
        v_addr = VaultMemory(GEO, TIMING)
        t_addr = v_addr.run_trace(self._trace(num_sources, per_src, False))
        assert t_perm < t_addr
