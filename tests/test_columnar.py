"""Kernel-level suite for the segmented columnar layer.

Each whole-relation kernel must be **byte-identical** to running its
per-partition counterpart segment by segment, including the
empty/singleton-segment edge cases the segments invariants allow.  The
operators built on these kernels are pinned against their references in
``tests/test_reference_equivalence.py``.
"""

import numpy as np
import pytest

from repro.analytics.tuples import TUPLE_DTYPE, Relation
from repro.analytics.workload import (
    make_join_workload,
    make_scan_workload,
    split_relation,
)
from repro.columnar import (
    SegmentedColumns,
    segmented_mergesort,
    segmented_searchsorted,
    segmented_sorted_groups,
    sorted_group_aggregates,
)
from repro.columnar.hashtable import SegmentedLinearProbingTable
from repro.operators.hashtable import LinearProbingHashTable
from repro.operators.reference import _aggregate_sorted
from repro.operators.sort_algos import mergesort


def random_columns(rng, num_segments, max_len, key_space=1 << 40):
    """Random segmented columns with empty and singleton segments."""
    lens = rng.integers(0, max_len + 1, num_segments)
    if num_segments >= 3:
        lens[0] = 0  # leading empty segment
        lens[1] = 1  # singleton
        lens[-1] = 0  # trailing empty segment
    segments = np.zeros(num_segments + 1, dtype=np.int64)
    np.cumsum(lens, out=segments[1:])
    total = int(segments[-1])
    keys = rng.integers(0, key_space, total, dtype=np.uint64)
    payloads = rng.integers(0, 1 << 60, total, dtype=np.uint64)
    return SegmentedColumns(keys=keys, payloads=payloads, segments=segments)


def struct_of(columns, lo, hi):
    out = np.empty(hi - lo, dtype=TUPLE_DTYPE)
    out["key"] = columns.keys[lo:hi]
    out["payload"] = columns.payloads[lo:hi]
    return out


class TestSegmentedColumns:
    def test_split_relation_flattens_zero_copy(self):
        rng = np.random.default_rng(0)
        rel = Relation.from_arrays(
            rng.integers(0, 1 << 40, 999, dtype=np.uint64),
            rng.integers(0, 1 << 40, 999, dtype=np.uint64),
        )
        parts = split_relation(rel, 7)
        columns = SegmentedColumns.from_relations(parts)
        assert np.shares_memory(columns.keys, rel.data)
        assert np.array_equal(columns.keys, rel.keys)
        assert np.array_equal(columns.payloads, rel.payloads)
        assert columns.segments.tolist() == [0] + list(
            np.cumsum([len(p) for p in parts])
        )

    def test_independent_relations_concatenate(self):
        rng = np.random.default_rng(1)
        parts = [
            Relation.from_arrays(
                rng.integers(0, 99, n, dtype=np.uint64),
                rng.integers(0, 99, n, dtype=np.uint64),
            )
            for n in (5, 0, 1, 17)
        ]
        columns = SegmentedColumns.from_relations(parts)
        assert columns.num_segments == 4
        assert columns.segment_lengths().tolist() == [5, 0, 1, 17]
        assert np.array_equal(
            columns.keys, np.concatenate([p.keys for p in parts])
        )

    def test_empty(self):
        columns = SegmentedColumns.from_relations([])
        assert columns.num_segments == 0
        assert columns.total == 0

    def test_round_trip(self):
        columns = random_columns(np.random.default_rng(2), 9, 40)
        rels = columns.to_relations("seg")
        back = SegmentedColumns.from_relations(rels)
        assert np.array_equal(back.keys, columns.keys)
        assert np.array_equal(back.payloads, columns.payloads)
        assert np.array_equal(back.segments, columns.segments)

    def test_rejects_bad_segments(self):
        keys = np.zeros(4, dtype=np.uint64)
        with pytest.raises(ValueError):
            SegmentedColumns(keys, keys.copy(), np.array([0, 5], dtype=np.int64))
        with pytest.raises(ValueError):
            SegmentedColumns(keys, keys.copy(), np.array([0, 3, 2, 4], dtype=np.int64))


class TestSegmentedSort:
    @pytest.mark.parametrize("simd", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_partition_mergesort(self, simd, seed):
        rng = np.random.default_rng(seed)
        # Narrow key space: plenty of duplicates to exercise stability.
        columns = random_columns(rng, 12, 120, key_space=64)
        keys, payloads = segmented_mergesort(
            columns.keys, columns.payloads, columns.segments, bitonic_initial=simd
        )
        for i in range(columns.num_segments):
            lo, hi = columns.segments[i], columns.segments[i + 1]
            if hi == lo:
                continue
            ref, _ = mergesort(struct_of(columns, lo, hi), bitonic_initial=simd)
            assert np.array_equal(keys[lo:hi], ref["key"]), (i, simd)
            assert np.array_equal(payloads[lo:hi], ref["payload"]), (i, simd)

    def test_pad_sentinel_keys_survive(self):
        # Keys equal to the bitonic pad sentinel must sort like any max key.
        top = np.uint64(0xFFFFFFFFFFFFFFFF)
        keys = np.array([top, 3, top, 1, 2], dtype=np.uint64)
        payloads = np.arange(5, dtype=np.uint64)
        segments = np.array([0, 5], dtype=np.int64)
        out_keys, out_payloads = segmented_mergesort(
            keys, payloads, segments, bitonic_initial=True
        )
        data = np.empty(5, dtype=TUPLE_DTYPE)
        data["key"], data["payload"] = keys, payloads
        ref, _ = mergesort(data, bitonic_initial=True)
        assert np.array_equal(out_keys, ref["key"])
        assert np.array_equal(out_payloads, ref["payload"])


class TestSortedGroupAggregates:
    @pytest.mark.parametrize("group_scale", [4, 200])
    def test_matches_per_group_numpy(self, group_scale):
        # group_scale=200 forces groups past numpy's pairwise-summation
        # blocking threshold, the regime where association matters.
        rng = np.random.default_rng(group_scale)
        columns = random_columns(rng, 8, 400, key_space=max(2, 400 // group_scale))
        keys, payloads = segmented_mergesort(
            columns.keys, columns.payloads, columns.segments
        )
        starts, lens, segs = segmented_sorted_groups(keys, columns.segments)
        values = payloads.astype(np.float64)
        counts, sums, mins, maxs, avgs, sumsqs = sorted_group_aggregates(
            values, starts, lens
        )
        cursor = 0
        for i in range(columns.num_segments):
            lo, hi = columns.segments[i], columns.segments[i + 1]
            if hi == lo:
                continue
            ref = _aggregate_sorted(keys[lo:hi], payloads[lo:hi])
            for key, expected in ref.items():
                assert int(keys[starts[cursor]]) == key
                assert segs[cursor] == i
                got = {
                    "count": counts[cursor],
                    "sum": sums[cursor],
                    "min": mins[cursor],
                    "max": maxs[cursor],
                    "avg": avgs[cursor],
                    "sumsq": sumsqs[cursor],
                }
                for name, value in expected.items():
                    # Byte-identical floats, not approx-equal.
                    assert got[name] == value, (name, key)
                cursor += 1
        assert cursor == len(starts)


class TestSegmentedHashTable:
    def test_matches_scalar_tables(self):
        rng = np.random.default_rng(5)
        seg_sizes = [0, 1, 37, 200, 3]
        keys = [
            rng.integers(0, 1 << 40, n, dtype=np.uint64) for n in seg_sizes
        ]
        payloads = [k * np.uint64(3) for k in keys]
        active = [i for i, n in enumerate(seg_sizes) if n > 0]
        table = SegmentedLinearProbingTable(
            np.array([seg_sizes[i] for i in active])
        )
        flat_keys = np.concatenate([keys[i] for i in active])
        flat_payloads = np.concatenate([payloads[i] for i in active])
        seg_of = np.repeat(np.arange(len(active)), [seg_sizes[i] for i in active])
        table.insert_batch(flat_keys, flat_payloads, seg_of)

        probes = [
            np.concatenate([keys[i][: n // 2], rng.integers(0, 1 << 40, 20, dtype=np.uint64)])
            for i, n in ((i, seg_sizes[i]) for i in active)
        ]
        flat_probes = np.concatenate(probes)
        probe_seg = np.repeat(np.arange(len(active)), [len(p) for p in probes])
        got_payloads, got_found = table.lookup_batch(flat_probes, probe_seg)

        offset = 0
        for pos, i in enumerate(active):
            scalar = LinearProbingHashTable(seg_sizes[i])
            scalar.insert_batch(keys[i], payloads[i])
            ref_payloads, ref_found = scalar.lookup_batch(probes[pos])
            span = slice(offset, offset + len(probes[pos]))
            assert np.array_equal(got_payloads[span], ref_payloads), i
            assert np.array_equal(got_found[span], ref_found), i
            assert table.insert_probe_steps[pos] == scalar.insert_probe_steps, i
            assert table.lookup_probe_steps[pos] == scalar.lookup_probe_steps, i
            assert table.capacities[pos] == scalar.capacity, i
            offset += len(probes[pos])


class TestSegmentedSearchsorted:
    @pytest.mark.parametrize("key_space_bits", [40, 63])
    def test_matches_per_segment(self, key_space_bits):
        # 63-bit keys with >1 segment cannot use the composite code and
        # must take the per-segment fallback.
        rng = np.random.default_rng(7)
        sorted_cols = random_columns(rng, 6, 80, key_space=1 << key_space_bits)
        keys, _ = segmented_mergesort(
            sorted_cols.keys, sorted_cols.payloads, sorted_cols.segments
        )
        query = random_columns(rng, 6, 50, key_space=1 << key_space_bits)
        idx, valid = segmented_searchsorted(
            keys, sorted_cols.segments, query.keys, query.segments, key_space_bits
        )
        for seg in range(6):
            q_lo, q_hi = query.segments[seg], query.segments[seg + 1]
            r_lo, r_hi = sorted_cols.segments[seg], sorted_cols.segments[seg + 1]
            if r_hi == r_lo:
                assert not valid[q_lo:q_hi].any()
                continue
            assert valid[q_lo:q_hi].all()
            ref = np.minimum(
                np.searchsorted(keys[r_lo:r_hi], query.keys[q_lo:q_hi]),
                r_hi - r_lo - 1,
            )
            assert np.array_equal(idx[q_lo:q_hi] - r_lo, ref), seg

    @staticmethod
    def _per_segment_reference(keys, segments, q_keys, q_segments):
        idx = np.zeros(len(q_keys), dtype=np.int64)
        valid = np.zeros(len(q_keys), dtype=bool)
        for seg in range(len(segments) - 1):
            q_lo, q_hi = q_segments[seg], q_segments[seg + 1]
            r_lo, r_hi = segments[seg], segments[seg + 1]
            if r_hi == r_lo or q_hi == q_lo:
                continue
            valid[q_lo:q_hi] = True
            idx[q_lo:q_hi] = r_lo + np.minimum(
                np.searchsorted(keys[r_lo:r_hi], q_keys[q_lo:q_hi]),
                r_hi - r_lo - 1,
            )
        return idx, valid

    @pytest.mark.parametrize("num_segments", [8, 64])
    def test_three_column_composite_past_the_bit_budget(self, num_segments):
        # A (28, 20, 14)-bit packed triple: 62 bits of key. With >= 8
        # segments the composite code would need 65+ bits, so the kernel
        # must take the per-segment fallback -- and still agree with the
        # reference loop exactly.
        from repro.suites.families import ColumnSpec, pack_columns

        specs = (
            ColumnSpec("hi", 28, 1 << 28),
            ColumnSpec("mid", 20, 1 << 20),
            ColumnSpec("lo", 14, 1 << 14),
        )
        bits = 62
        rng = np.random.default_rng(11)

        def packed(n):
            return pack_columns(
                [
                    rng.integers(0, s.cardinality, size=n, dtype=np.uint64)
                    for s in specs
                ],
                specs,
            )

        n_sorted, n_query = 400, 300
        seg = np.sort(rng.integers(0, num_segments, size=n_sorted))
        segments = np.searchsorted(seg, np.arange(num_segments + 1))
        keys = packed(n_sorted)
        for s in range(num_segments):
            keys[segments[s]:segments[s + 1]].sort()
        q_seg = np.sort(rng.integers(0, num_segments, size=n_query))
        q_segments = np.searchsorted(q_seg, np.arange(num_segments + 1))
        q_keys = packed(n_query)

        seg_bits = max(1, num_segments - 1).bit_length()
        assert bits + seg_bits > 64  # really past the budget
        idx, valid = segmented_searchsorted(
            keys, segments, q_keys, q_segments, bits
        )
        ref_idx, ref_valid = self._per_segment_reference(
            keys, segments, q_keys, q_segments
        )
        assert np.array_equal(valid, ref_valid)
        assert np.array_equal(idx[valid], ref_idx[valid])

    def test_fallback_agrees_with_composite_path(self):
        # Same 20-bit data probed twice: once under the honest
        # declaration (composite path) and once under an inflated
        # key_space_bits that forces the fallback. Both paths must
        # return identical results -- the discrepancy this guards
        # against is one path clamping differently from the other.
        rng = np.random.default_rng(13)
        sorted_cols = random_columns(rng, 8, 120, key_space=1 << 20)
        keys, _ = segmented_mergesort(
            sorted_cols.keys, sorted_cols.payloads, sorted_cols.segments
        )
        query = random_columns(rng, 8, 90, key_space=1 << 20)
        composite = segmented_searchsorted(
            keys, sorted_cols.segments, query.keys, query.segments, 20
        )
        fallback = segmented_searchsorted(
            keys, sorted_cols.segments, query.keys, query.segments, 62
        )
        assert np.array_equal(composite[0], fallback[0])
        assert np.array_equal(composite[1], fallback[1])

    def test_segment_count_mismatch_raises(self):
        keys = np.arange(10, dtype=np.uint64)
        with pytest.raises(ValueError, match="probes segment i"):
            segmented_searchsorted(
                keys,
                np.array([0, 5, 10]),
                keys[:4],
                np.array([0, 2, 3, 4]),
                16,
            )


class TestImportOrders:
    @pytest.mark.parametrize(
        "module",
        [
            "repro.columnar",
            "repro.columnar.soa",
            "repro.columnar.hashtable",
            "repro.analytics.workload",
            "repro.shuffle.engine",
            "repro.operators",
        ],
    )
    def test_fresh_interpreter_can_import_first(self, module):
        """No import order closes a cycle (columnar <-> analytics <->
        operators <-> shuffle); regression test for the lazy import in
        workload.py."""
        import subprocess
        import sys
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", f"import {module}"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(root / "src")},
        )
        assert proc.returncode == 0, proc.stderr


class TestWorkloadFlatViews:
    def test_zero_copy_and_consistent(self):
        workload = make_scan_workload(777, 13, seed=9)
        flat = workload.flat
        assert flat.num_segments == workload.num_partitions
        assert flat.total == workload.total_tuples
        assert np.shares_memory(flat.keys, workload.partitions[0].data)
        join = make_join_workload(50, 120, 8, seed=9)
        assert join.r_flat.total == join.n_r
        assert join.s_flat.total == join.n_s
