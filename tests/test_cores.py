"""Tests for the analytic core models and the MLP arithmetic."""

import pytest

from repro.config.cores import cortex_a35_mondrian, cortex_a57_cpu, krait400_nmp
from repro.cores import (
    InOrderSimdCoreModel,
    MemEnvironment,
    OutOfOrderCoreModel,
    WorkProfile,
    build_core_model,
    mlp_limited_bandwidth_bps,
)

ENV = MemEnvironment(rand_latency_ns=37.6, seq_bw_bps=8e9, rand_bw_bps=4e9)


def profile(**kwargs):
    defaults = dict(name="p", instructions=1e6)
    defaults.update(kwargs)
    return WorkProfile(**defaults)


class TestMlpHelpers:
    def test_paper_a57_example(self):
        # Section 3.2: 128-entry ROB, 1 access / 6 instructions -> ~20 in
        # flight -> ~5.3 GB/s at 30 ns with 8 B accesses.
        mlp = cortex_a57_cpu().max_outstanding_mem(6.0)
        assert 20 <= mlp <= 22
        bw = mlp_limited_bandwidth_bps(20, 30.0, 8)
        assert bw == pytest.approx(5.33e9, rel=0.01)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            mlp_limited_bandwidth_bps(1, 0, 8)

    def test_mshr_cap(self):
        # One access per instruction fills the 128-entry ROB with memory
        # instructions; the MSHRs, not the window, then bound MLP.
        core = cortex_a57_cpu()
        assert core.rob_entries > core.mshrs
        assert core.max_outstanding_mem(1.0) == core.mshrs


class TestBuildCoreModel:
    def test_dispatch(self):
        assert isinstance(build_core_model(cortex_a57_cpu()), OutOfOrderCoreModel)
        assert isinstance(build_core_model(krait400_nmp()), OutOfOrderCoreModel)
        assert isinstance(build_core_model(cortex_a35_mondrian()), InOrderSimdCoreModel)


class TestOutOfOrderModel:
    def test_compute_bound_phase(self):
        model = OutOfOrderCoreModel(krait400_nmp())
        est = model.estimate(profile(instructions=3e6, dep_ilp=3.0), ENV)
        assert est.bound == "compute"
        # 3-wide at full ILP: 1e6 cycles at 1 GHz = 1 ms.
        assert est.time_ns == pytest.approx(1e6, rel=0.2)
        assert est.effective_ipc <= 3.0

    def test_dependency_limited_ipc(self):
        model = OutOfOrderCoreModel(krait400_nmp())
        fast = model.estimate(profile(dep_ilp=3.0), ENV)
        slow = model.estimate(profile(dep_ilp=1.0), ENV)
        assert slow.time_ns > fast.time_ns * 2

    def test_random_access_latency_bound(self):
        model = OutOfOrderCoreModel(krait400_nmp())
        est = model.estimate(
            profile(instructions=1e4, rand_reads=1e5, rand_access_b=64,
                    mem_parallelism=1.0),
            ENV,
        )
        assert est.bound in ("latency", "bandwidth")
        # One access in flight at 37.6 ns each.
        assert est.time_ns >= 1e5 * 37.6 * 0.9

    def test_mlp_scales_with_rob_window(self):
        # Same algorithmic parallelism: the A57's bigger window extracts
        # more overlap than the Krait's.
        p = profile(instructions=1e4, rand_reads=1e5, mem_parallelism=2.25)
        krait = OutOfOrderCoreModel(krait400_nmp()).estimate(p, ENV)
        a57 = OutOfOrderCoreModel(cortex_a57_cpu()).estimate(p, ENV)
        assert a57.memory_time_ns < krait.memory_time_ns

    def test_serialized_chains_not_scaled(self):
        # mem_parallelism == 1 means a serial chain; no window rescue.
        p = profile(instructions=1e3, rand_reads=1e4, mem_parallelism=1.0)
        krait = OutOfOrderCoreModel(krait400_nmp()).estimate(p, ENV)
        a57 = OutOfOrderCoreModel(cortex_a57_cpu()).estimate(p, ENV)
        assert a57.memory_time_ns == pytest.approx(krait.memory_time_ns)

    def test_sequential_bandwidth_bound(self):
        model = OutOfOrderCoreModel(krait400_nmp())
        est = model.estimate(profile(instructions=1e3, seq_read_b=8e6), ENV)
        assert est.bound == "bandwidth"
        assert est.time_ns == pytest.approx(1e6, rel=0.2)  # 8 MB at 8 GB/s

    def test_remote_fraction_raises_latency(self):
        env = MemEnvironment(
            rand_latency_ns=37.6, seq_bw_bps=8e9, rand_bw_bps=4e9,
            remote_extra_latency_ns=20.0,
        )
        model = OutOfOrderCoreModel(krait400_nmp())
        local = model.estimate(
            profile(rand_reads=1e5, mem_parallelism=1.0, remote_fraction=0.0), env
        )
        remote = model.estimate(
            profile(rand_reads=1e5, mem_parallelism=1.0, remote_fraction=1.0), env
        )
        assert remote.time_ns > local.time_ns


class TestInOrderSimdModel:
    def test_simd_collapses_vector_work(self):
        core = cortex_a35_mondrian()
        model = InOrderSimdCoreModel(core)
        scalar = model.estimate(
            profile(instructions=8e6, simd_ops=0, dep_ilp=1.0), ENV
        )
        simd = model.estimate(
            profile(instructions=8e6, simd_ops=8e6, simd_vectorizable=True,
                    dep_ilp=1.0),
            ENV,
        )
        assert simd.time_ns < scalar.time_ns / 4

    def test_simd_width_matters(self):
        wide = InOrderSimdCoreModel(cortex_a35_mondrian(1024))
        narrow = InOrderSimdCoreModel(cortex_a35_mondrian(128))
        p = profile(instructions=8e6, simd_ops=8e6, simd_vectorizable=True)
        assert wide.estimate(p, ENV).time_ns < narrow.estimate(p, ENV).time_ns

    def test_streaming_at_device_bandwidth(self):
        model = InOrderSimdCoreModel(cortex_a35_mondrian())
        est = model.estimate(profile(instructions=1e3, seq_read_b=8e6), ENV)
        assert est.time_ns == pytest.approx(1e6, rel=0.2)

    def test_random_access_penalized(self):
        # Random accesses stall the in-order pipe far more than streams.
        model = InOrderSimdCoreModel(cortex_a35_mondrian())
        stream = model.estimate(profile(instructions=1e4, seq_read_b=1.6e6), ENV)
        random = model.estimate(
            profile(instructions=1e4, rand_reads=1e5, rand_access_b=16,
                    mem_parallelism=1.0),
            ENV,
        )
        assert random.time_ns > stream.time_ns

    def test_partial_vectorization_scalar_remainder_dominates(self):
        model = InOrderSimdCoreModel(cortex_a35_mondrian())
        est = model.estimate(
            profile(instructions=10e6, simd_ops=5e6, simd_vectorizable=True,
                    dep_ilp=1.0),
            ENV,
        )
        # Scalar remainder: 5e6 instructions at ~1 IPC -> ~5e6 ns.
        assert est.time_ns >= 4e6


class TestCoreEstimateInvariants:
    @pytest.mark.parametrize("core", [cortex_a57_cpu(), krait400_nmp(), cortex_a35_mondrian()])
    def test_time_positive_and_components_consistent(self, core):
        model = build_core_model(core)
        est = model.estimate(
            profile(instructions=1e5, rand_reads=1e3, seq_read_b=1e5), ENV
        )
        assert est.time_ns > 0
        assert est.time_ns >= max(est.compute_time_ns, est.memory_time_ns) * 0.99
        assert est.bw_demand_bps > 0

    def test_zero_work(self):
        model = OutOfOrderCoreModel(krait400_nmp())
        est = model.estimate(profile(instructions=0), ENV)
        assert est.time_ns == 0
        assert est.bound == "idle"
