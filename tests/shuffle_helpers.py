"""Shared shuffle-test helpers: random shuffle inputs, their flat
columnar form, a hypothesis strategy for fault schedules, and a
byte-level comparison of two :class:`~repro.shuffle.engine.ShuffleResult`
objects, write traces included."""

import numpy as np
from hypothesis import strategies as st

from repro.analytics.tuples import Relation
from repro.columnar.soa import SegmentedColumns
from repro.faults.plan import FaultSpec
from repro.shuffle.engine import write_traces
from repro.shuffle.interleave import round_robin_interleave

#: Arbitrary fault schedules, from harmless to fully adversarial.
fault_specs = st.builds(
    FaultSpec,
    seed=st.integers(0, 2**31 - 1),
    straggler_prob=st.floats(0.0, 1.0),
    straggler_slowdown=st.floats(1.0, 16.0),
    drop_prob=st.floats(0.0, 1.0),
    duplicate_prob=st.floats(0.0, 1.0),
    timeout_prob=st.floats(0.0, 1.0),
    max_retries=st.integers(1, 6),
    backoff_base=st.floats(0.0, 4.0),
)


def make_sources(rng, num_src, num_dest, n_per_src, skew):
    """Random relations plus destination maps, optionally skewed.

    ``skew`` concentrates destination popularity (a Dirichlet draw with
    small alpha), the regime where per-destination inbound sizes are
    maximally unequal -- the interesting case for the interleave and
    cursor logic.
    """
    sources, dest_maps = [], []
    for s in range(num_src):
        n = int(rng.integers(0, n_per_src)) if n_per_src else 0
        keys = rng.integers(0, 1 << 40, n, dtype=np.uint64)
        sources.append(Relation.from_arrays(keys, keys * np.uint64(7), f"s{s}"))
        if skew and num_dest > 1:
            weights = rng.dirichlet(np.full(num_dest, 0.25))
            dest_maps.append(rng.choice(num_dest, size=n, p=weights).astype(np.int64))
        else:
            dest_maps.append(rng.integers(0, num_dest, n).astype(np.int64))
    return sources, dest_maps


def flatten(sources, dest_maps):
    """Per-source relations and destination maps as the engine's input:
    one segment per source, one destination per row."""
    dest = np.concatenate([np.empty(0, dtype=np.int64), *dest_maps])
    return SegmentedColumns.from_relations(sources), dest


def assert_shuffles_identical(
    vec, ref, interleave=round_robin_interleave, ref_traces=None
):
    """Destinations, histogram, write traces and barrier state all
    byte-identical (resilience stats are compared by the caller).

    ``vec``'s traces are derived by :func:`write_traces` from its
    histogram; ``ref_traces`` (default: derived the same way from
    ``ref``) are the traces to match, e.g. ``reference_shuffle``'s."""
    if ref_traces is None:
        ref_traces = write_traces(ref.histogram, ref.permutable, interleave)
    traces = write_traces(vec.histogram, vec.permutable, interleave)
    assert np.array_equal(vec.histogram, ref.histogram)
    assert len(vec.destinations) == len(ref.destinations) == len(ref_traces)
    for d in range(len(vec.destinations)):
        assert np.array_equal(vec.destinations[d].data, ref.destinations[d].data)
        assert np.array_equal(traces[d], ref_traces[d])
        assert traces[d].dtype == ref_traces[d].dtype
    assert vec.barrier.completion_vector() == ref.barrier.completion_vector()
    for d in range(len(vec.destinations)):
        assert vec.barrier.expected_bytes(d) == ref.barrier.expected_bytes(d)
