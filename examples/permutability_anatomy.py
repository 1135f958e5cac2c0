#!/usr/bin/env python3
"""Anatomy of the permutability optimization (paper figure 2, section 5.3).

Walks through exactly what happens at one destination vault during the
partitioning shuffle:

1. sources interleave their writes in the memory network;
2. an *addressed* vault controller scatters them to their exact offsets,
   activating a DRAM row for almost every 16 B object;
3. a *permutable* controller appends arrivals to the sequential tail,
   activating each row exactly once -- correct because the region is an
   unordered bucket (the multiset of tuples is preserved, which this
   script verifies).

Both disciplines are replayed on the event-accurate DRAM bank model, so
the activation counts and completion times printed below come from
actual simulated row-buffer state machines, not formulas.

Run:  python examples/permutability_anatomy.py
"""

import numpy as np

from repro.analytics import Relation
from repro.columnar import SegmentedColumns
from repro.config.dram import DramTiming, HmcGeometry
from repro.dram.vault import VaultMemory, VaultRequest
from repro.shuffle import ShuffleEngine, round_robin_interleave, write_traces

NUM_SOURCES = 32
TUPLES_PER_SOURCE = 128
OBJECT_B = 16


def make_sources():
    """The sources as flat columns (one segment each) plus every
    tuple's destination."""
    rng = np.random.default_rng(3)
    sources = []
    for s in range(NUM_SOURCES):
        keys = rng.integers(0, 1 << 40, TUPLES_PER_SOURCE, dtype=np.uint64)
        sources.append(Relation.from_arrays(keys, keys, f"src{s}"))
    columns = SegmentedColumns.from_relations(sources)
    return columns, np.zeros(columns.total, dtype=np.int64)  # all -> vault 0


def replay_on_dram(trace, label):
    geometry, timing = HmcGeometry(), DramTiming()
    vault = VaultMemory(geometry, timing)
    requests = [
        VaultRequest(arrival_ns=i * 2.0, addr=int(addr), size_b=OBJECT_B, is_write=True)
        for i, addr in enumerate(trace)
    ]
    done_ns = vault.run_trace(requests)
    stats = vault.stats
    print(
        f"  {label:10s} activations={stats.activations:5d}"
        f"  row-hit rate={stats.row_hit_rate * 100:5.1f}%"
        f"  finished at {done_ns / 1e3:7.2f} us"
    )
    return stats


def main() -> None:
    columns, dests = make_sources()
    total = NUM_SOURCES * TUPLES_PER_SOURCE
    print(
        f"{NUM_SOURCES} sources shuffle {total} x {OBJECT_B} B tuples "
        f"into one destination vault\n"
    )

    addressed = ShuffleEngine(1, permutable=False).run(columns, dests)
    permutable = ShuffleEngine(1, permutable=True).run(columns, dests)

    # Correctness: both deliver the same multiset of tuples.
    assert permutable.destinations[0].multiset_equal(addressed.destinations[0])
    assert not (permutable.destinations[0] == addressed.destinations[0])
    print("same tuples delivered (multiset equal), different arrangement  [ok]\n")

    # Each vault's write trace follows from the shuffle's histogram alone.
    traces = {
        label: write_traces(result.histogram, result.permutable,
                            round_robin_interleave)[0]
        for label, result in (("addressed", addressed), ("permutable", permutable))
    }
    print("arrival order at the vault (first 8 writes, vault-local addresses):")
    for label, trace in traces.items():
        head = ", ".join(f"{a:5d}" for a in trace[:8])
        print(f"  {label:10s} {head}, ...")

    print("\nreplaying both write traces on the event-accurate DRAM model:")
    a = replay_on_dram(traces["addressed"], "addressed")
    p = replay_on_dram(traces["permutable"], "permutable")

    ideal = total * OBJECT_B // 256
    print(
        f"\n  rows touched: {ideal} -> permutable activated each exactly "
        f"{p.activations / ideal:.1f}x; addressed paid {a.activations / ideal:.1f}x"
    )
    print(
        f"  activation energy saved by permutability: "
        f"{a.activations / p.activations:.1f}x"
    )


if __name__ == "__main__":
    main()
