"""Every metric the benchmark reports, with the layer -> metric mapping.

``BENCHMARK.json`` at the repository root lists the same names, units
and directions (``test_smoke.py`` checks that the two agree).  Each
per-layer entry also names the end-to-end metric it should move and on
which workload, so a later change can cite its prediction by name.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

WORKLOADS: Dict[str, str] = {
    "design-sweep": (
        "cold Sweep.run per seed over 6 presets + 9 derived SystemSpecs x 4 "
        "operators x 16/64 partitions: operator execution dominates and 40% of "
        "points repeat a functional run"
    ),
    "query-suites": (
        "cold SuiteRun over all 5 suites x 6 presets: suite family generators "
        "and pipeline stage chaining, which design-sweep bypasses; "
        "skew-hotspot puts 45% of its tuples on one partition"
    ),
    "service-mix": (
        "closed loop of 2 callers on a 2-shard, 2-replica serve --fleet router: "
        "85% memory-tier reads, 5% disk-store reads, 10% never-seen points "
        "that simulate and replicate"
    ),
}

#: (name, unit, better, bound): reported by every workload with --trace 0.
#: Ten seeds per workload on a 2-vCPU cloud VM gave quartile spreads of
#: at most 0.082 (throughput, service-mix) and 0.069 (latency).
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("latency_ms_p50", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

#: (name, unit, better, what it should move): reported with --trace 1.
#: Busy times are self times summed over the traced phase's fixed work.
PER_LAYER: List[Tuple[str, str, str, str]] = [
    ("analytics.make_workload.busy_ms", "ms", "lower",
     "throughput_per_s on design-sweep"),
    ("analytics.make_workload.calls", "count", "lower",
     "throughput_per_s on design-sweep"),
    ("systems.machine_for.busy_ms", "ms", "lower",
     "setup_s; throughput_per_s on design-sweep"),
    ("operators.scan.busy_ms", "ms", "lower",
     "throughput_per_s on design-sweep and query-suites; no change in "
     "service-mix read latency"),
    ("operators.sort.busy_ms", "ms", "lower", "as operators.scan.busy_ms"),
    ("operators.groupby.busy_ms", "ms", "lower", "as operators.scan.busy_ms"),
    ("operators.join.busy_ms", "ms", "lower", "as operators.scan.busy_ms"),
    ("operators.calls", "count", "lower", "as operators.scan.busy_ms"),
    ("shuffle.run.busy_ms", "ms", "lower", "as operators.scan.busy_ms"),
    ("faults.retries", "count", "lower", "as operators.scan.busy_ms"),
    ("perf.evaluate_run.busy_ms", "ms", "lower",
     "throughput_per_s on design-sweep"),
    ("perf.phases", "count", "lower", "throughput_per_s on design-sweep"),
    ("api.records.busy_ms", "ms", "lower",
     "throughput_per_s on design-sweep; read latency on service-mix"),
    ("api.export.busy_ms", "ms", "lower",
     "throughput_per_s on design-sweep"),
    ("suites.build_plan.busy_ms", "ms", "lower",
     "throughput_per_s on query-suites; no change on design-sweep"),
    ("suites.digest.busy_ms", "ms", "lower", "as suites.build_plan.busy_ms"),
    ("pipeline.execute.busy_ms", "ms", "lower", "as suites.build_plan.busy_ms"),
    ("pipeline.evaluate.busy_ms", "ms", "lower", "as suites.build_plan.busy_ms"),
    ("experiments.workload_cache.hit_ratio", "ratio", "higher",
     "throughput_per_s and peak_rss_mb"),
    ("experiments.result_cache.hit_ratio", "ratio", "higher",
     "throughput_per_s and peak_rss_mb"),
    ("service.dispatch.busy_ms", "ms", "lower",
     "latency_ms_p50 on service-mix (reads and writes)"),
    ("service.store.get_ms", "ms", "lower",
     "fleet.read_ms_p50 on service-mix"),
    ("service.store.put_ms", "ms", "lower",
     "fleet.write_ms_p50 on service-mix"),
    ("service.codec.busy_ms", "ms", "lower",
     "fleet.read_ms_p50 and fleet.write_ms_p50 on service-mix"),
    ("service.store.hits", "count", "higher", "read latency on service-mix"),
    ("service.store.misses", "count", "lower", "write latency on service-mix"),
    ("service.store.puts", "count", "lower", "write latency on service-mix"),
    ("fleet.hedges", "count", "lower",
     "fleet.read_ms_p99 and failed requests on service-mix"),
    ("fleet.hedge_wins", "count", "higher", "as fleet.hedges"),
    ("fleet.failovers", "count", "lower", "as fleet.hedges"),
    ("fleet.read_repairs", "count", "lower", "as fleet.hedges"),
    ("fleet.replica_write_failures", "count", "lower", "as fleet.hedges"),
    ("fleet.wire_ms", "ms", "lower", "latency_ms_p50 on service-mix"),
    ("fleet.read_ms_p50", "ms", "lower",
     "latency_ms_p50 on service-mix (the read share of the mix)"),
    ("fleet.read_ms_p99", "ms", "lower", "read tail on service-mix"),
    ("fleet.write_ms_p50", "ms", "lower",
     "throughput_per_s on service-mix (the write share of the mix)"),
    ("traffic.repeat_share", "ratio", "higher",
     "input property: design-sweep points repeating an earlier functional run"),
    ("traffic.disk_read_share", "ratio", "lower",
     "input property: service-mix reads served by the disk store"),
    ("traffic.hot_partition_share.composite-sales", "ratio", "lower",
     "input property: query-suites tuples in the hottest partition"),
    ("traffic.hot_partition_share.dict-products", "ratio", "lower",
     "as traffic.hot_partition_share.composite-sales"),
    ("traffic.hot_partition_share.windowed-clicks", "ratio", "lower",
     "as traffic.hot_partition_share.composite-sales"),
    ("traffic.hot_partition_share.skew-mild", "ratio", "lower",
     "as traffic.hot_partition_share.composite-sales"),
    ("traffic.hot_partition_share.skew-hotspot", "ratio", "lower",
     "as traffic.hot_partition_share.composite-sales"),
    ("trace.point_share_explained", "ratio", "higher",
     "share of traced point time spent in operators, shuffle, perf and "
     "analytics self time"),
    ("trace.overhead_pct", "%", "lower",
     "traced minus untraced repetition time (sweeps) or read p50 (service-mix)"),
    ("trace.spans", "count", "lower", "spans recorded by the traced phase"),
]
