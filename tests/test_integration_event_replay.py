"""Cross-layer integration: the *actual* write traces of the
operators' partitioning shuffle (derived from its histogram by
``write_traces``), replayed on the event-accurate DRAM bank model.

This closes the loop between three layers built independently --
operators -> shuffle engine -> DRAM banks -- and verifies the paper's
core claim end to end on real traffic: permutable vault controllers
activate each destination row about once, addressed ones activate per
object, and the analytic estimator the performance pipeline uses agrees
with the event model on this traffic.
"""

import numpy as np
import pytest

from repro.analytics.workload import make_groupby_workload, make_join_workload
from repro.config.dram import DramTiming, HmcGeometry
from repro.dram import InterleavedWrites, estimate_pattern
from repro.dram.vault import VaultMemory, VaultRequest
from repro.operators.base import OperatorVariant
from repro.operators.partition import SCHEME_LOW_BITS, run_partitioning
from repro.shuffle import get_interleave, write_traces

GEO = HmcGeometry()
TIMING = DramTiming()
P = 16
TUPLE_B = 16


def shuffle_traces(permutable, n=8000, seed=3):
    """Run a real Group-by partitioning and return per-vault traces."""
    w = make_groupby_workload(n, P, seed=seed)
    v = OperatorVariant(
        radix_bits=6, probe_algorithm="sort", permutable=permutable,
        simd=False, num_partitions=P,
    )
    outcome = run_partitioning(w.partitions, v, SCHEME_LOW_BITS, w.key_space_bits)
    return traces_of(outcome, v)


def traces_of(outcome, variant):
    """Per-vault write traces of a partitioning outcome's shuffle."""
    return write_traces(
        outcome.shuffle.histogram,
        variant.permutable,
        get_interleave(variant.interleave),
    )


def replay(trace, inter_arrival_ns=2.0):
    vault = VaultMemory(GEO, TIMING)
    reqs = [
        VaultRequest(i * inter_arrival_ns, addr=int(a), size_b=TUPLE_B, is_write=True)
        for i, a in enumerate(trace)
    ]
    done = vault.run_trace(reqs)
    return vault.stats, done


class TestOperatorTrafficOnEventModel:
    @pytest.fixture(scope="class")
    def replayed(self):
        results = {}
        for permutable in (False, True):
            traces = shuffle_traces(permutable)
            # Replay the busiest destination vault.
            busiest = max(traces, key=len)
            results[permutable] = (len(busiest), *replay(busiest))
        return results

    def test_permutable_one_activation_per_row(self, replayed):
        n_objects, stats, _ = replayed[True]
        rows = int(np.ceil(n_objects * TUPLE_B / GEO.row_size_b))
        assert stats.activations == pytest.approx(rows, rel=0.02)

    def test_addressed_activates_per_object_scale(self, replayed):
        n_objects, stats, _ = replayed[False]
        rows = int(np.ceil(n_objects * TUPLE_B / GEO.row_size_b))
        # Far more than one activation per row; the precise count depends
        # on FR-FCFS recovery, but it must be within a factor of the
        # object count and well above the row count.
        assert stats.activations > rows * 3
        assert stats.activations <= n_objects

    def test_permutable_saving_factor_on_real_traffic(self, replayed):
        _, addr_stats, addr_done = replayed[False]
        _, perm_stats, perm_done = replayed[True]
        saving = addr_stats.activations / perm_stats.activations
        # At 15 concurrent sources the sliding FR-FCFS window recovers a
        # fair amount on its own; permutability still saves several-fold
        # (the paper-scale 63-source regime saves ~14x, see test_dram).
        assert saving > 2.5
        assert perm_done < addr_done  # and it finishes sooner

    def test_analytic_estimator_agrees(self, replayed):
        for permutable in (False, True):
            n_objects, stats, _ = replayed[permutable]
            est = estimate_pattern(
                InterleavedWrites(
                    total_b=n_objects * TUPLE_B,
                    object_b=TUPLE_B,
                    num_sources=P - 1,
                    permutable=permutable,
                ),
                GEO,
                TIMING,
            )
            # Permutable: exact.  Addressed at 15 sources: the estimator
            # is deliberately conservative about FR-FCFS recovery (its
            # sliding window attracts same-row stragglers beyond the
            # nominal window), so allow it to overestimate activations by
            # a few x here; at the paper's 63 sources it is within 2x
            # (tests/test_dram.py).
            if permutable:
                assert est.activations == pytest.approx(stats.activations, rel=0.05)
            else:
                assert stats.activations <= est.activations <= stats.activations * 5
                assert est.activations > 0


class TestJoinShuffleReplay:
    def test_join_r_and_s_shuffles_both_benefit(self):
        w = make_join_workload(2000, 6000, P, seed=9)
        results = {}
        for permutable in (False, True):
            v = OperatorVariant(
                radix_bits=6, probe_algorithm="hash", permutable=permutable,
                simd=False, num_partitions=P,
            )
            outcome = run_partitioning(
                w.s_partitions, v, SCHEME_LOW_BITS, w.key_space_bits
            )
            stats, _ = replay(max(traces_of(outcome, v), key=len))
            results[permutable] = stats.activations
        assert results[True] * 3 < results[False]

    def test_row_hit_rate_shape(self):
        w = make_join_workload(1000, 4000, P, seed=10)
        v_perm = OperatorVariant(
            radix_bits=6, probe_algorithm="hash", permutable=True,
            simd=False, num_partitions=P,
        )
        outcome = run_partitioning(w.s_partitions, v_perm, SCHEME_LOW_BITS, w.key_space_bits)
        stats, _ = replay(max(traces_of(outcome, v_perm), key=len))
        # Sequential tail writes: 15 of 16 writes hit the open row.
        assert stats.row_hit_rate > 0.9
