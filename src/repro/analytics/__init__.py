"""In-memory columnar data model and workload generators.

All evaluation uses 16-byte tuples -- an 8-byte integer key plus an
8-byte integer payload -- "representing an in-memory columnar database"
(paper section 6), with uniformly distributed keys, and a foreign-key
relationship between join relations (every S tuple matches exactly one R
tuple).
"""

from repro.analytics.hashing import bucket_of_low_bits
from repro.analytics.histogram import build_histogram
from repro.analytics.skew import (
    make_skewed_groupby_workload,
    partition_imbalance,
    zipf_keys,
)
from repro.analytics.tuples import KEY_B, PAYLOAD_B, TUPLE_B, Relation
from repro.analytics.workload import (
    GroupByWorkload,
    JoinWorkload,
    ScanWorkload,
    SortWorkload,
    make_groupby_workload,
    make_join_workload,
    make_scan_workload,
    make_sort_workload,
)

__all__ = [
    "GroupByWorkload",
    "JoinWorkload",
    "KEY_B",
    "PAYLOAD_B",
    "Relation",
    "ScanWorkload",
    "SortWorkload",
    "TUPLE_B",
    "bucket_of_low_bits",
    "build_histogram",
    "make_groupby_workload",
    "make_join_workload",
    "make_scan_workload",
    "make_skewed_groupby_workload",
    "make_sort_workload",
    "partition_imbalance",
    "zipf_keys",
]
