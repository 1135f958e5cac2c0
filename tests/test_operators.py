"""Functional-correctness and cost-record tests for the four operators,
across all algorithmic variants, verified against the oracles."""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analytics.workload import (
    make_groupby_workload,
    make_join_workload,
    make_scan_workload,
    make_sort_workload,
)
from repro.columnar import SegmentedColumns
from repro.operators import (
    OperatorVariant,
    PHASE_DISTRIBUTE,
    PHASE_HISTOGRAM,
    PHASE_PROBE,
    run_groupby,
    run_join,
    run_scan,
    run_sort,
)
from repro.operators.groupby import (
    AGGREGATE_NAMES,
    _hash_groupby_segmented,
    _sort_groupby_segmented,
)
from repro.operators.oracle import (
    oracle_groupby,
    oracle_join,
    oracle_scan,
    oracle_sort,
)

P = 8


def probe_phases(run):
    """The phases of ``run`` after its partitioning passes."""
    return [p for p in run.phases if not p.is_partitioning]


VARIANTS = {
    "cpu": OperatorVariant(
        radix_bits=16, probe_algorithm="hash", permutable=False, simd=False,
        num_partitions=P, local_sort="quicksort",
    ),
    "nmp-rand": OperatorVariant(
        radix_bits=6, probe_algorithm="hash", permutable=False, simd=False,
        num_partitions=P,
    ),
    "nmp-seq": OperatorVariant(
        radix_bits=6, probe_algorithm="sort", permutable=False, simd=False,
        num_partitions=P,
    ),
    "nmp-perm": OperatorVariant(
        radix_bits=6, probe_algorithm="hash", permutable=True, simd=False,
        num_partitions=P,
    ),
    "mondrian": OperatorVariant(
        radix_bits=6, probe_algorithm="sort", permutable=True, simd=True,
        num_partitions=P,
    ),
}


class TestScan:
    @pytest.mark.parametrize("variant", VARIANTS.values(), ids=VARIANTS.keys())
    def test_matches_oracle(self, variant):
        w = make_scan_workload(3000, P, seed=1)
        r = run_scan(w, variant)
        assert (r.output.matches, r.output.payload_sum) == oracle_scan(w)

    def test_no_partitioning_phase(self):
        w = make_scan_workload(1000, P, seed=2)
        r = run_scan(w, VARIANTS["mondrian"])
        assert len(r.phases) == 1
        assert r.phases[0].category == PHASE_PROBE

    def test_streaming_cost_shape(self):
        w = make_scan_workload(1000, P, seed=2)
        r = run_scan(w, VARIANTS["cpu"])
        phase = r.phases[0]
        assert phase.seq_read_b == 1000 * 16
        assert phase.rand_reads == 0
        assert phase.shuffle_b == 0

    def test_model_scale_scales_costs_not_output(self):
        w = make_scan_workload(1000, P, seed=3)
        base = run_scan(w, VARIANTS["cpu"], model_scale=1.0)
        scaled = run_scan(w, VARIANTS["cpu"], model_scale=10.0)
        assert scaled.output == base.output
        assert scaled.phases[0].instructions == pytest.approx(
            base.phases[0].instructions * 10
        )


class TestJoin:
    @pytest.mark.parametrize("variant", VARIANTS.values(), ids=VARIANTS.keys())
    def test_matches_oracle(self, variant):
        w = make_join_workload(1000, 4000, P, seed=4)
        r = run_join(w, variant)
        assert (r.output.matches, r.output.checksum) == oracle_join(w)

    def test_foreign_key_all_matched(self):
        w = make_join_workload(500, 2000, P, seed=5)
        r = run_join(w, VARIANTS["mondrian"])
        assert r.output.matches == 2000

    def test_phase_structure_hash(self):
        w = make_join_workload(500, 2000, P, seed=6)
        r = run_join(w, VARIANTS["cpu"])
        names = [p.name for p in r.phases]
        assert names == [
            "R-histogram", "R-distribute", "S-histogram", "S-distribute",
            "hash-build", "hash-probe",
        ]

    def test_phase_structure_sort(self):
        w = make_join_workload(500, 2000, P, seed=6)
        r = run_join(w, VARIANTS["mondrian"])
        probe_names = [p.name for p in probe_phases(r)]
        assert probe_names == ["sort-R", "sort-S", "merge-join"]

    def test_permutable_distribute_is_streaming(self):
        w = make_join_workload(500, 2000, P, seed=7)
        perm = run_join(w, VARIANTS["nmp-perm"]).phase("R-distribute")
        addr = run_join(w, VARIANTS["nmp-rand"]).phase("R-distribute")
        assert perm.permutable_writes and not addr.permutable_writes
        assert perm.instructions < addr.instructions  # simpler code
        assert addr.rand_writes > 0 and perm.rand_writes == 0

    def test_sort_probe_sequential_only(self):
        w = make_join_workload(500, 2000, P, seed=8)
        r = run_join(w, VARIANTS["nmp-seq"])
        for phase in probe_phases(r):
            assert phase.rand_reads == 0 and phase.rand_writes == 0

    def test_hash_probe_randomness_recorded(self):
        w = make_join_workload(500, 2000, P, seed=8)
        probe = run_join(w, VARIANTS["nmp-rand"]).phase("hash-probe")
        assert probe.rand_reads >= 2000  # >= one access per S tuple

    def test_simd_flags(self):
        w = make_join_workload(500, 2000, P, seed=9)
        mon = run_join(w, VARIANTS["mondrian"])
        assert all(p.simd_vectorizable for p in probe_phases(mon))
        nmp = run_join(w, VARIANTS["nmp-seq"])
        assert not any(p.simd_vectorizable for p in probe_phases(nmp))

    def test_model_scale_affects_pass_counts(self):
        w = make_join_workload(1000, 4000, P, seed=10)
        small = run_join(w, VARIANTS["nmp-seq"], model_scale=1.0)
        big = run_join(w, VARIANTS["nmp-seq"], model_scale=1000.0)
        # n log n: pass count grows, so instructions grow superlinearly.
        assert big.phase("sort-S").instructions > 1000 * small.phase("sort-S").instructions


class TestGroupBy:
    @pytest.mark.parametrize(
        "variant", [VARIANTS["cpu"], VARIANTS["nmp-rand"], VARIANTS["nmp-seq"], VARIANTS["mondrian"]],
        ids=["cpu", "nmp-rand", "nmp-seq", "mondrian"],
    )
    def test_matches_oracle(self, variant):
        w = make_groupby_workload(3000, P, seed=11)
        r = run_groupby(w, variant)
        oracle = oracle_groupby(w)
        keys = r.output.keys.tolist()
        assert len(keys) == len(set(keys)) == r.output.num_groups
        assert set(keys) == set(oracle)
        for agg in AGGREGATE_NAMES:
            column = getattr(r.output, agg)
            for row, key in enumerate(keys):
                want = oracle[key][agg]
                assert column[row] == pytest.approx(want, rel=1e-9), (key, agg)

    def test_six_aggregates_present(self):
        w = make_groupby_workload(500, P, seed=12)
        r = run_groupby(w, VARIANTS["mondrian"])
        assert r.output.keys.dtype == np.uint64
        for agg in ("count", "sum", "min", "max", "avg", "sumsq"):
            column = getattr(r.output, agg)
            assert column.dtype == np.float64
            assert column.shape == r.output.keys.shape

    @pytest.mark.parametrize(
        "group",
        [
            _hash_groupby_segmented,
            partial(_sort_groupby_segmented, simd=False),
            partial(_sort_groupby_segmented, simd=True),
        ],
        ids=["hash", "sort", "sort-simd"],
    )
    def test_key_in_two_partitions_is_a_misroute(self, group):
        # Key 7 sits in segments 0 and 2: the shuffle misrouted tuples.
        columns = SegmentedColumns(
            keys=np.array([7, 3, 5, 7, 9], dtype=np.uint64),
            payloads=np.arange(5, dtype=np.uint64),
            segments=np.array([0, 2, 3, 5], dtype=np.int64),
        )
        with pytest.raises(AssertionError, match=r"split across partitions: \{7\}"):
            group(columns)

    def test_average_group_size_metadata(self):
        w = make_groupby_workload(4000, P, avg_group_size=4.0, seed=13)
        r = run_groupby(w, VARIANTS["cpu"])
        assert 2.5 < r.metadata["tuples"] / r.metadata["groups"] < 6.0

    def test_hash_probe_random_sort_probe_sequential(self):
        w = make_groupby_workload(1000, P, seed=14)
        hash_r = run_groupby(w, VARIANTS["nmp-rand"])
        sort_r = run_groupby(w, VARIANTS["nmp-seq"])
        assert any(p.rand_reads > 0 for p in probe_phases(hash_r))
        assert all(p.rand_reads == 0 for p in probe_phases(sort_r))


class TestSort:
    @pytest.mark.parametrize("variant", VARIANTS.values(), ids=VARIANTS.keys())
    def test_globally_sorted(self, variant):
        w = make_sort_workload(3000, P, seed=15)
        r = run_sort(w, variant)
        assert r.output.is_sorted()
        assert r.output.multiset_equal(oracle_sort(w))

    def test_quicksort_vs_mergesort_selection(self):
        w = make_sort_workload(1000, P, seed=16)
        cpu = run_sort(w, VARIANTS["cpu"])
        nmp = run_sort(w, VARIANTS["nmp-seq"])
        assert probe_phases(cpu)[0].name == "quicksort"
        assert probe_phases(nmp)[0].name == "mergesort"

    def test_partitioning_present(self):
        w = make_sort_workload(1000, P, seed=17)
        r = run_sort(w, VARIANTS["mondrian"])
        cats = [p.category for p in r.phases]
        assert PHASE_HISTOGRAM in cats and PHASE_DISTRIBUTE in cats

    @given(st.integers(50, 2000), st.integers(1, 6))
    @settings(max_examples=20, deadline=None)
    def test_property_sorted_any_size(self, n, parts):
        w = make_sort_workload(n, parts, seed=n)
        r = run_sort(w, VARIANTS["mondrian"])
        assert r.output.is_sorted()
        assert len(r.output) == n


class TestPhaseCostInvariants:
    def test_total_instructions_positive(self):
        w = make_join_workload(500, 2000, P, seed=18)
        for variant in VARIANTS.values():
            r = run_join(w, variant)
            assert sum(p.instructions for p in r.phases) > 0
            for phase in r.phases:
                assert phase.instructions >= 0
                assert phase.total_bytes >= 0

    def test_phase_lookup(self):
        w = make_scan_workload(100, P, seed=19)
        r = run_scan(w, VARIANTS["cpu"])
        assert r.phase("scan").name == "scan"
        with pytest.raises(KeyError):
            r.phase("nope")
