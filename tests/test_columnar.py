"""Kernel-level suite for the segmented columnar layer.

Each whole-relation kernel must be **byte-identical** to running its
per-partition counterpart segment by segment, including the
empty/singleton-segment edge cases the segments invariants allow.  The
operators built on these kernels are pinned against their references in
``tests/test_reference_equivalence.py``.
"""

import numpy as np
import pytest

from repro.analytics.hashing import EMPTY_KEY
from repro.analytics.tuples import TUPLE_DTYPE, Relation
from repro.analytics.workload import make_join_workload, make_scan_workload
from repro.columnar import (
    SegmentedColumns,
    segmented_mergesort,
    segmented_searchsorted,
    segmented_sorted_groups,
    segmented_stable_argsort,
    sorted_group_aggregates,
    stable_argsort,
)
from repro.columnar import kernels
from repro.columnar.hashtable import SegmentedLinearProbingTable
from repro.operators.hashtable import LinearProbingHashTable
from repro.operators.reference import _aggregate_sorted
from repro.operators.sort_algos import mergesort

#: The largest uint64 key, equal to the sort passes' padding key.
_PAD_KEY = np.uint64(0xFFFFFFFFFFFFFFFF)


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
    @staticmethod
    def _relation(n):
        rng = np.random.default_rng(0)
        return Relation.from_arrays(
            rng.integers(0, 1 << 40, n, dtype=np.uint64),
            rng.integers(0, 1 << 40, n, dtype=np.uint64),
        )

    @pytest.mark.parametrize("n, parts", [(999, 1), (999, 7), (5, 9)])
    def test_split_bounds(self, n, parts):
        rel = self._relation(n)
        columns = SegmentedColumns.split(rel, parts)
        bounds = np.linspace(0, n, parts + 1).astype(int)
        assert columns.segments.tolist() == bounds.tolist()
        assert columns.num_segments == parts
        assert np.array_equal(columns.keys, rel.keys)
        assert np.array_equal(columns.payloads, rel.payloads)
        if parts > n:
            assert 0 in columns.segment_lengths()

    def test_split_is_zero_copy(self):
        rel = self._relation(999)
        columns = SegmentedColumns.split(rel, 7)
        assert np.shares_memory(columns.keys, rel.data)
        assert np.shares_memory(columns.payloads, rel.data)

    def test_split_empty_relation(self):
        columns = SegmentedColumns.split(Relation.empty(), 4)
        assert columns.total == 0
        assert columns.segments.tolist() == [0, 0, 0, 0, 0]

    def test_split_rejects_zero_partitions(self):
        with pytest.raises(ValueError, match="at least one partition"):
            SegmentedColumns.split(self._relation(10), 0)

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
        # Keys equal to the bitonic pad sentinel must sort like any max
        # key: no real row may be stripped in place of a pad.
        top = _PAD_KEY
        for keys in (
            [top, 3, top, 1, 2],
            [top, 5, top, 0, top, 5, 1],
        ):
            keys = np.array(keys, dtype=np.uint64)
            n = len(keys)
            payloads = np.arange(10, 10 + n, dtype=np.uint64)
            segments = np.array([0, n], dtype=np.int64)
            out_keys, out_payloads = segmented_mergesort(
                keys, payloads, segments, bitonic_initial=True
            )
            data = np.empty(n, dtype=TUPLE_DTYPE)
            data["key"], data["payload"] = keys, payloads
            ref, _ = mergesort(data, bitonic_initial=True)
            assert np.array_equal(out_keys, ref["key"])
            assert np.array_equal(out_payloads, ref["payload"])
            assert np.array_equal(np.sort(out_keys), np.sort(keys))
            assert np.array_equal(np.sort(out_payloads), payloads)

    @pytest.mark.parametrize("run", [2, 4, 8, 16, 32])
    @pytest.mark.parametrize(
        "shape", ["tie-free", "all-equal", "short-segments", "empty-segments"]
    )
    def test_bitonic_matches_reference(self, shape, run, monkeypatch):
        # Production's block is 16 tuples; the network is generic, so the
        # other widths are checked by swapping the module constant.
        monkeypatch.setattr(kernels, "_BITONIC_RUN", run)
        rng = np.random.default_rng(run)
        if shape == "short-segments":
            # Every segment shorter than one block: only final blocks.
            lens = rng.integers(1, run, 9)
        elif shape == "empty-segments":
            lens = rng.integers(0, 3 * run, 9)
            lens[::2] = 0
        else:
            lens = rng.integers(0, 5 * run, 9)
        segments = np.zeros(len(lens) + 1, dtype=np.int64)
        np.cumsum(lens, out=segments[1:])
        n = int(segments[-1])
        if shape == "tie-free":
            keys = rng.permutation(n).astype(np.uint64)
        elif shape == "all-equal":
            keys = np.full(n, 7, dtype=np.uint64)
        else:
            keys = rng.integers(0, 4, n, dtype=np.uint64)
        payloads = np.arange(n, dtype=np.uint64)
        out_keys, out_payloads = segmented_mergesort(
            keys, payloads, segments, bitonic_initial=True
        )
        columns = SegmentedColumns(keys=keys, payloads=payloads, segments=segments)
        for lo, hi in zip(segments[:-1], segments[1:]):
            ref, _ = mergesort(
                struct_of(columns, lo, hi), bitonic_initial=True, bitonic_run=run
            )
            assert np.array_equal(out_keys[lo:hi], ref["key"])
            assert np.array_equal(out_payloads[lo:hi], ref["payload"])

    def test_bitonic_network_runs_only_on_tied_blocks(self, monkeypatch):
        widths = []
        network = kernels._bitonic_network

        def recording_network(ranks, lanes):
            widths.append(ranks.shape)
            network(ranks, lanes)

        monkeypatch.setattr(kernels, "_bitonic_network", recording_network)
        segments = np.array([0, 40, 40, 70], dtype=np.int64)
        payloads = np.arange(70, dtype=np.uint64)
        # Blocks of 16: [0,16) [16,32) [32,40) | [40,56) [56,70).
        keys = np.arange(70, dtype=np.uint64)
        segmented_mergesort(keys, payloads, segments, bitonic_initial=True)
        assert widths == []
        keys[20] = keys[31]  # tie inside block [16, 32)
        keys[60] = keys[69]  # tie inside the final, padded block [56, 70)
        keys[0] = keys[39]  # equal keys in different blocks: no tie
        segmented_mergesort(keys, payloads, segments, bitonic_initial=True)
        assert widths == [(16, 2)]

    @pytest.mark.parametrize(
        "num_segments,top_key,packed",
        [
            (1, int(_PAD_KEY), False),  # a 64-bit span leaves no offset bits
            (12, 0, True),
            (12, (1 << 60) - 1, False),  # 4 segment + 60 key bits: no offset bits
            (12, 1 << 60, False),
            (12, int(_PAD_KEY), False),
            (64, 0, True),
            (64, int(_PAD_KEY), False),
        ],
    )
    def test_stable_argsort_packed_and_fallback(
        self, monkeypatch, num_segments, top_key, packed
    ):
        rng = np.random.default_rng(num_segments)
        columns = random_columns(rng, num_segments, 80, key_space=64)
        keys = columns.keys.copy()
        keys[::7] = top_key  # ties with the top key exercise stability
        lexsorts = []
        real_lexsort = np.lexsort

        def counting_lexsort(*args, **kwargs):
            lexsorts.append(1)
            return real_lexsort(*args, **kwargs)

        monkeypatch.setattr(np, "lexsort", counting_lexsort)
        order = segmented_stable_argsort(keys, columns.segments)
        bounds = columns.segments
        expected = np.concatenate(
            [np.empty(0, dtype=np.int64)]
            + [
                lo + np.argsort(keys[lo:hi], kind="stable")
                for lo, hi in zip(bounds[:-1], bounds[1:])
            ]
        )
        assert np.array_equal(order, expected)
        assert lexsorts == ([] if packed else [1])


    def test_wide_keys_over_many_segments_pack(self, monkeypatch):
        # 64 segments of up to 1,024 rows with 48-bit keys: 6 segment
        # bits + 48 key bits + 10 offset bits fill one uint64 word.
        rng = np.random.default_rng(48)
        columns = random_columns(rng, 64, 1024, key_space=1 << 48)
        keys = columns.keys.copy()
        keys[:2] = [0, (1 << 48) - 1]  # span the full 48 bits
        keys[::9] = keys[1::9]  # ties inside segments
        bounds = columns.segments
        assert int(np.diff(bounds).max()) > 512
        expected = np.concatenate(
            [
                lo + np.argsort(keys[lo:hi], kind="stable")
                for lo, hi in zip(bounds[:-1], bounds[1:])
            ]
        )
        calls = []
        real_argsort, real_lexsort = np.argsort, np.lexsort

        def counting_argsort(*args, **kwargs):
            calls.append("argsort")
            return real_argsort(*args, **kwargs)

        def counting_lexsort(*args, **kwargs):
            calls.append("lexsort")
            return real_lexsort(*args, **kwargs)

        monkeypatch.setattr(np, "argsort", counting_argsort)
        monkeypatch.setattr(np, "lexsort", counting_lexsort)
        order = segmented_stable_argsort(keys, bounds)
        assert calls == []
        assert np.array_equal(order, expected)


class TestStableArgsort:
    @pytest.mark.parametrize(
        "codes,route",
        [
            (np.empty(0, dtype=np.uint64), None),
            (np.array([5], dtype=np.uint64), "uint32"),
            (np.full(300, 9, dtype=np.uint64), "uint32"),
            (np.arange(300, dtype=np.uint64)[::-1].copy(), "uint32"),
            (np.arange(1000, dtype=np.uint64)[::-1] % 7 + (1 << 40), "uint32"),
            (np.array([3, -2, 3, -32768, 32767, -2] * 50, dtype=np.int16), "uint32"),
            (np.array([-(1 << 40), 5, -1, 5, 1 << 40] * 60, dtype=np.int64), "uint64"),
            (np.array([0, 1 << 50, 7, 0, 7] * 60, dtype=np.uint64), "uint64"),
            (np.array([_PAD_KEY, 0, _PAD_KEY, 1 << 63, 0, _PAD_KEY], np.uint64), None),
            (np.array([-(1 << 62), 5, -1, 5, 1 << 62, -1], dtype=np.int64), None),
        ],
        ids=[
            "empty", "one", "all-equal", "all-distinct", "offset", "int16",
            "packed-int64", "packed-uint64", "top", "int64",
        ],
    )
    def test_matches_numpy_stable(self, monkeypatch, codes, route):
        # ``route`` names the packed word the value sort ran on; None is
        # the wide-code argsort fallback (or the empty input).
        expected = np.argsort(codes, kind="stable")
        routes = []
        real_word_dtype = kernels.word_dtype

        def recording_word_dtype(bits):
            routes.append(np.dtype(real_word_dtype(bits)).name)
            return real_word_dtype(bits)

        monkeypatch.setattr(kernels, "word_dtype", recording_word_dtype)
        order = stable_argsort(codes)
        assert np.array_equal(order, expected)
        assert order.dtype == expected.dtype
        assert routes == ([route] if route else [])

    @pytest.mark.parametrize("key_space", [2, 50, 1 << 20, 1 << 64])
    def test_random_codes(self, key_space):
        rng = np.random.default_rng(key_space % 1000)
        for n in (1, 17, 1000, 4097):
            codes = rng.integers(0, key_space, n, dtype=np.uint64, endpoint=False)
            assert np.array_equal(
                stable_argsort(codes), np.argsort(codes, kind="stable")
            )


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


    def test_segments_do_not_see_each_others_keys(self):
        table = SegmentedLinearProbingTable(np.array([4, 4]))
        table.insert_batch(
            np.array([7], dtype=np.uint64),
            np.array([70], dtype=np.uint64),
            np.array([0]),
        )
        payloads, found = table.lookup_batch(
            np.array([7, 8, 7], dtype=np.uint64), np.array([0, 0, 1])
        )
        assert list(found) == [True, False, False]
        assert list(payloads) == [70, 0, 0]

    def test_rejects_the_empty_sentinel_key(self):
        table = SegmentedLinearProbingTable(np.array([4]))
        with pytest.raises(ValueError, match="sentinel"):
            table.insert_batch(
                np.array([EMPTY_KEY], dtype=np.uint64),
                np.array([1], dtype=np.uint64),
                np.array([0]),
            )

    def test_rejects_overfilling_a_segment(self):
        table = SegmentedLinearProbingTable(np.array([1, 8]), load_factor=1.0)
        assert list(table.capacities) == [2, 8]
        keys = np.arange(1, 4, dtype=np.uint64)
        with pytest.raises(MemoryError):
            table.insert_batch(keys, keys, np.zeros(3, dtype=np.int64))
        with pytest.raises(ValueError, match="load factor"):
            SegmentedLinearProbingTable(np.array([4]), load_factor=0.0)


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


def assert_views_one_relation(flat):
    """Both columns are field views of one tuple array: the relation the
    workload maker generated, not a copy of it."""
    source = flat.keys.base
    assert source.dtype == TUPLE_DTYPE and len(source) == flat.total
    assert np.shares_memory(flat.payloads, source)


class TestWorkloadFlatViews:
    def test_zero_copy_and_consistent(self):
        workload = make_scan_workload(777, 13, seed=9)
        flat = workload.flat
        assert flat.num_segments == workload.num_partitions == 13
        assert flat.total == workload.total_tuples == 777
        assert_views_one_relation(flat)
        join = make_join_workload(50, 120, 8, seed=9)
        assert join.r_flat.total == join.n_r == 50
        assert join.s_flat.total == join.n_s == 120
        assert join.total_tuples == 170
        for side in (join.r_flat, join.s_flat):
            assert side.num_segments == join.num_partitions == 8
            assert_views_one_relation(side)
