"""Tests for skewed workloads and two-round partitioning (the paper's
section 5.4 future work, implemented here)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analytics.skew import (
    make_skewed_groupby_workload,
    partition_imbalance,
    zipf_keys,
)
from repro.operators.base import OperatorVariant
from repro.operators.skew import (
    PartitionOverflowError,
    check_overflow,
    plan_rebalance,
    run_partitioning_skew_aware,
)

P = 16
VARIANT = OperatorVariant(
    radix_bits=8, probe_algorithm="sort", permutable=True, simd=True,
    num_partitions=P,
)


class TestSkewedWorkloads:
    def test_zipf_concentrates_mass(self):
        rng = np.random.default_rng(1)
        keys = zipf_keys(rng, 10_000, 1000, alpha=1.3, key_space_bits=40)
        _, counts = np.unique(keys, return_counts=True)
        top = np.sort(counts)[::-1]
        assert top[0] > len(keys) * 0.05  # hottest key holds > 5%

    def test_zipf_alpha_zero_is_uniform_ish(self):
        rng = np.random.default_rng(2)
        keys = zipf_keys(rng, 10_000, 100, alpha=0.0, key_space_bits=40)
        _, counts = np.unique(keys, return_counts=True)
        assert counts.max() < len(keys) * 0.05

    def test_skewed_groupby_workload(self):
        w = make_skewed_groupby_workload(5000, P, alpha=1.2, seed=3)
        assert w.total_tuples == 5000
        assert w.num_partitions == P

    def test_imbalance_metric(self):
        assert partition_imbalance([10, 10, 10]) == pytest.approx(1.0)
        assert partition_imbalance([30, 0, 0]) == pytest.approx(3.0)
        with pytest.raises(ValueError):
            partition_imbalance([])

    def test_rejects_bad_args(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            zipf_keys(rng, 0, 10, 1.0, 40)
        with pytest.raises(ValueError):
            zipf_keys(rng, 10, 10, -1.0, 40)


class TestOverflowDetection:
    def test_overflow_raises_with_details(self):
        inbound = np.array([10, 10, 100, 10])
        with pytest.raises(PartitionOverflowError) as err:
            check_overflow(inbound, capacity_tuples=50)
        assert err.value.vault == 2
        assert err.value.inbound_b == 100 * 16
        assert err.value.capacity_b == 50 * 16

    def test_no_overflow_passes(self):
        check_overflow(np.array([10, 10, 10]), capacity_tuples=50)


class TestRebalancePlan:
    def test_balances_hot_buckets(self):
        hist = np.zeros(64, dtype=np.int64)
        hist[:4] = 1000  # four hot buckets
        hist[4:] = 10
        plan = plan_rebalance(hist, num_vaults=8, capacity_tuples=800)
        assert plan.imbalance_after < plan.imbalance_before
        # Hot buckets exceed one vault's budget -> must split.
        assert len(plan.split_buckets) == 4

    def test_no_split_when_buckets_fit(self):
        hist = np.full(64, 10, dtype=np.int64)
        plan = plan_rebalance(hist, num_vaults=8, capacity_tuples=1000)
        assert plan.split_buckets == []
        assert len(plan.share_take) == 0
        assert (plan.bucket_vault >= 0).all()

    def test_rejects_impossible_capacity(self):
        hist = np.full(4, 100, dtype=np.int64)
        with pytest.raises(ValueError):
            plan_rebalance(hist, num_vaults=2, capacity_tuples=10)

    def test_all_buckets_assigned(self):
        hist = np.arange(32, dtype=np.int64)
        plan = plan_rebalance(hist, num_vaults=4, capacity_tuples=1000)
        assert plan.rebalanced
        assert len(plan.bucket_vault) == 32
        assert ((plan.bucket_vault >= 0) & (plan.bucket_vault < 4)).all()


class TestTwoRoundPartitioning:
    def test_uniform_data_single_round(self):
        from repro.analytics.workload import make_groupby_workload
        w = make_groupby_workload(4000, P, seed=5)
        outcome, plan = run_partitioning_skew_aware(
            w.flat, VARIANT, w.key_space_bits
        )
        names = [p.name for p in outcome.phases]
        assert "rebalance" not in names  # round one fit
        assert not plan.rebalanced

    def test_skewed_data_triggers_second_round(self):
        w = make_skewed_groupby_workload(4000, P, alpha=1.5, num_distinct=60, seed=6)
        outcome, plan = run_partitioning_skew_aware(
            w.flat, VARIANT, w.key_space_bits, capacity_factor=1.5
        )
        names = [p.name for p in outcome.phases]
        assert "rebalance" in names
        assert plan.rebalanced
        assert plan.imbalance_after < plan.imbalance_before

    def test_second_round_respects_capacity(self):
        w = make_skewed_groupby_workload(4000, P, alpha=1.5, num_distinct=60, seed=7)
        capacity_factor = 1.5
        outcome, _ = run_partitioning_skew_aware(
            w.flat, VARIANT, w.key_space_bits, capacity_factor=capacity_factor
        )
        n = w.total_tuples
        cap = int(np.ceil(n / P * capacity_factor))
        for part in outcome.partitions:
            assert len(part) <= cap

    def test_no_tuples_lost(self):
        w = make_skewed_groupby_workload(3000, P, alpha=1.4, num_distinct=50, seed=8)
        outcome, _ = run_partitioning_skew_aware(
            w.flat, VARIANT, w.key_space_bits
        )
        total = sum(len(p) for p in outcome.partitions)
        assert total == w.total_tuples
        all_in = np.sort(w.flat.keys)
        all_out = np.sort(np.concatenate([p.keys for p in outcome.partitions]))
        assert np.array_equal(all_in, all_out)

    def test_rebalance_cost_charged(self):
        w = make_skewed_groupby_workload(4000, P, alpha=1.5, num_distinct=60, seed=9)
        outcome, _ = run_partitioning_skew_aware(
            w.flat, VARIANT, w.key_space_bits, model_scale=100.0
        )
        rebalance = [p for p in outcome.phases if p.name == "rebalance"]
        assert rebalance and rebalance[0].instructions > 0

    def test_rejects_bad_capacity_factor(self):
        from repro.analytics.workload import make_groupby_workload
        w = make_groupby_workload(100, P, seed=10)
        with pytest.raises(ValueError):
            run_partitioning_skew_aware(
                w.flat, VARIANT, w.key_space_bits, capacity_factor=0.5
            )

    @given(st.floats(1.1, 1.9), st.integers(0, 5))
    @settings(max_examples=10, deadline=None)
    def test_property_balanced_after_retry(self, alpha, seed):
        w = make_skewed_groupby_workload(
            2000, P, alpha=alpha, num_distinct=80, seed=seed
        )
        outcome, _ = run_partitioning_skew_aware(
            w.flat, VARIANT, w.key_space_bits, capacity_factor=1.5
        )
        sizes = [len(p) for p in outcome.partitions]
        # Bounded by the (ceiling-rounded) per-vault capacity.
        cap = np.ceil(2000 / P * 1.5)
        assert partition_imbalance(sizes) <= cap / (2000 / P) + 1e-9
