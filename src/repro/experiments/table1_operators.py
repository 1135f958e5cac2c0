"""Table 1: characterization of Spark operators by basic data operator.

The table is a taxonomy; the experiment reproduces it as data and
additionally *verifies* the mapping is implementable: every basic
operator the table references exists in :mod:`repro.operators` and
executes correctly on a workload (checked against its oracle).
"""

from __future__ import annotations

from typing import Dict, List

from repro.analytics.workload import (
    make_groupby_workload,
    make_join_workload,
    make_scan_workload,
    make_sort_workload,
)
from repro.operators import OperatorVariant, run_groupby, run_join, run_scan, run_sort
from repro.operators.oracle import oracle_groupby, oracle_join, oracle_scan, oracle_sort
from repro.api import format_table

#: Table 1, verbatim.
SPARK_OPERATOR_MAP: Dict[str, List[str]] = {
    "scan": ["Filter", "Union", "LookupKey", "Map", "FlatMap", "MapValues"],
    "groupby": [
        "GroupByKey",
        "Cogroup",
        "ReduceByKey",
        "Reduce",
        "CountByKey",
        "AggregateByKey",
    ],
    "join": ["Join"],
    "sort": ["SortByKey"],
}


def _default_variant(num_partitions: int) -> OperatorVariant:
    return OperatorVariant(
        radix_bits=6,
        probe_algorithm="sort",
        permutable=True,
        simd=True,
        num_partitions=num_partitions,
    )


def verify_basic_operators(num_partitions: int = 8, seed: int = 5) -> Dict[str, bool]:
    """Run each basic operator and compare against its oracle."""
    variant = _default_variant(num_partitions)
    results = {}

    scan_w = make_scan_workload(3000, num_partitions, seed)
    scan_r = run_scan(scan_w, variant)
    results["scan"] = (scan_r.output.matches, scan_r.output.payload_sum) == oracle_scan(
        scan_w
    )

    join_w = make_join_workload(1500, 6000, num_partitions, seed)
    join_r = run_join(join_w, variant)
    results["join"] = (join_r.output.matches, join_r.output.checksum) == oracle_join(
        join_w
    )

    group_w = make_groupby_workload(4000, num_partitions, seed=seed)
    group_r = run_groupby(group_w, variant)
    oracle_groups = oracle_groupby(group_w)
    sums = dict(zip(group_r.output.keys.tolist(), group_r.output.sum.tolist()))
    results["groupby"] = sums.keys() == oracle_groups.keys() and all(
        abs(sums[k] - oracle_groups[k]["sum"])
        <= 1e-6 * max(1.0, abs(oracle_groups[k]["sum"]))
        for k in oracle_groups
    )

    sort_w = make_sort_workload(4000, num_partitions, seed)
    sort_r = run_sort(sort_w, variant)
    results["sort"] = sort_r.output.is_sorted() and sort_r.output.multiset_equal(
        oracle_sort(sort_w)
    )
    return results


def run(num_partitions: int = 8, seed: int = 5) -> Dict[str, object]:
    """Reproduce Table 1 and verify each basic operator."""
    verified = verify_basic_operators(num_partitions, seed)
    rows = [
        [basic, ", ".join(spark_ops), "ok" if verified[basic] else "FAIL"]
        for basic, spark_ops in SPARK_OPERATOR_MAP.items()
    ]
    return {
        "map": SPARK_OPERATOR_MAP,
        "verified": verified,
        "table": format_table(["Basic operator", "Spark operators", "Verified"], rows),
    }


def main() -> None:
    print("Table 1: characterization of Spark operators\n")
    print(run()["table"])


if __name__ == "__main__":
    main()
