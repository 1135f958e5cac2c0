"""Reference (oracle) implementations the operator tests compare against.

Deliberately naive: plain numpy / Python dictionaries, no partitioning,
no custom data structures.  If an operator variant and its oracle agree
on every workload, the partitioning, shuffle, hash table and sort
substrates all composed correctly.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.analytics.tuples import Relation
from repro.analytics.workload import (
    GroupByWorkload,
    JoinWorkload,
    ScanWorkload,
    SortWorkload,
)


def oracle_scan(workload: ScanWorkload) -> Tuple[int, int]:
    """(match count, payload sum) for the searched key."""
    flat = workload.flat
    hit = flat.keys == np.uint64(workload.search_key)
    return int(np.count_nonzero(hit)), int(flat.payloads[hit].sum(dtype=np.uint64))


def oracle_sort(workload: SortWorkload) -> Relation:
    """Globally key-sorted relation."""
    return Relation(workload.flat.to_struct(), "oracle_sorted").sorted_by_key()


def oracle_join(workload: JoinWorkload) -> Tuple[int, int]:
    """(match count, checksum) of R join S.

    Checksum is the sum over matches of (R payload + S payload), the same
    order-insensitive digest the operators produce.
    """
    r = workload.r_flat
    s = workload.s_flat
    lookup = {int(k): int(p) for k, p in zip(r.keys, r.payloads)}
    matches = 0
    checksum = 0
    for k, p in zip(s.keys, s.payloads):
        r_payload = lookup.get(int(k))
        if r_payload is not None:
            matches += 1
            checksum = (checksum + r_payload + int(p)) % (1 << 64)
    return matches, checksum


def oracle_groupby(workload: GroupByWorkload) -> Dict[int, Dict[str, float]]:
    """Per-key aggregates: count, sum, min, max, avg, sumsq."""
    flat = workload.flat
    groups: Dict[int, List[float]] = {}
    for k, p in zip(flat.keys, flat.payloads):
        groups.setdefault(int(k), []).append(float(p))
    result = {}
    for key, values in groups.items():
        arr = np.array(values)
        result[key] = {
            "count": float(len(arr)),
            "sum": float(arr.sum()),
            "min": float(arr.min()),
            "max": float(arr.max()),
            "avg": float(arr.mean()),
            "sumsq": float((arr * arr).sum()),
        }
    return result
