"""Telemetry-layer tests: spans, re-parenting, codec, metrics, goldens.

Covers the contracts the observability layer promises:

- span nesting and deterministic ids within one tracer;
- re-parenting across *both* process boundaries (the sweep/suite
  process pool and the supervised worker-fleet subprocesses);
- Chrome ``trace_event`` schema validity of every export;
- metrics-registry snapshot determinism across fresh interpreters
  (distinct hash seeds) through the canonical ``telemetry/v1`` codec;
- golden exports stay byte-identical with tracing ON -- the trace goes
  to its own file and stderr, never stdout;
- disabled tracing is (nearly) free: the no-op guard stays under 2% of
  the figure-6 pipeline's runtime.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.api import Scenario, Sweep
from repro.experiments import common, fig6_probe
from repro.service.resilience import WorkerFleet
from repro.telemetry import (
    MetricsRegistry,
    Tracer,
    active_tracer,
    canonical_json,
    decode_snapshot,
    encode_snapshot,
    install_tracer,
    registry,
    runtime_snapshot,
    span,
    tracing,
    uninstall_tracer,
    validate_trace_events,
)
from repro.telemetry.trace import NOOP_SPAN

ROOT = Path(__file__).resolve().parents[1]
FAST = dict(model_scale=50.0, num_partitions=8)

#: Model scale of the overhead-budget pipeline (the experiment tests').
BUDGET_SCALE = 500.0

#: Cold fig6 runs the budget takes the minimum of.
ROUNDS = 3

#: Max tolerated slowdown of the disabled-telemetry pipeline vs itself
#: (paired cold rounds), from the instrumentation budget.
DISABLED_OVERHEAD_BUDGET = 0.02


@pytest.fixture
def tracer():
    tracer = install_tracer()
    yield tracer
    uninstall_tracer()


class TestSpans:
    def test_nesting_and_ids(self, tracer):
        with tracer.span("outer", category="t") as outer:
            with tracer.span("inner", category="t", depth=1) as inner:
                inner.set(rows=3)
        assert outer.span_id == 1 and outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert inner.attrs == {"depth": 1, "rows": 3}
        assert [s.name for s in tracer.spans] == ["inner", "outer"]
        assert all(s.duration_ns >= 0 for s in tracer.spans)

    def test_module_guard_is_noop_without_tracer(self):
        assert active_tracer() is None
        with span("anything", category="t", x=1) as sp:
            sp.set(y=2)  # must not raise, must not allocate state
        assert sp is NOOP_SPAN

    def test_module_span_routes_to_installed_tracer(self, tracer):
        with span("routed", category="t"):
            pass
        assert [s.name for s in tracer.spans] == ["routed"]

    def test_tracing_scope_restores_previous(self, tracer):
        with tracing() as inner:
            assert active_tracer() is inner
        assert active_tracer() is tracer

    def test_adopt_renumbers_and_reparents(self, tracer):
        worker = Tracer()
        with worker.span("root", category="w"):
            with worker.span("child", category="w"):
                pass
        with tracer.span("parent", category="t") as parent:
            adopted = tracer.adopt(
                worker.to_dicts(), parent_id=tracer.current_span_id()
            )
        assert adopted == 2
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["root"].parent_id == parent.span_id
        assert by_name["child"].parent_id == by_name["root"].span_id
        # Renumbered into this tracer's id space: all distinct.
        ids = [s.span_id for s in tracer.spans]
        assert len(ids) == len(set(ids))

    def test_chrome_export_is_schema_valid(self, tracer, tmp_path):
        with tracer.span("outer", category="t", label="x"):
            with tracer.span("inner", category="t"):
                pass
        out = tmp_path / "trace.json"
        assert tracer.export_chrome(out) == 2
        document = json.loads(out.read_text())
        events = validate_trace_events(document)
        assert {e["name"] for e in events} == {"outer", "inner"}
        assert all(e["ph"] == "X" and e["dur"] >= 1 for e in events)

    def test_validate_rejects_malformed_events(self):
        good = {"name": "a", "cat": "t", "ph": "X", "ts": 1, "dur": 1,
                "pid": 1, "tid": 1, "args": {}}
        validate_trace_events([good])
        for corruption in (
            {"ph": "B"}, {"dur": 0}, {"ts": -5}, {"args": []},
            {"name": 7}, {"pid": True},
        ):
            with pytest.raises(ValueError):
                validate_trace_events([{**good, **corruption}])


class TestCrossProcess:
    def test_pool_worker_spans_reparent_under_sweep(self, tracer):
        sweep = Sweep(systems=("cpu",), workloads=("scan", "join"),
                      scales=(50.0,), num_partitions=(8,))
        sweep.run(jobs=2)
        names = [s.name for s in tracer.spans]
        sweep_span = tracer.find("sweep")[0]
        assert names.count("pool_worker") == 2
        for worker_span in tracer.find("pool_worker"):
            assert worker_span.parent_id == sweep_span.span_id
        # The worker's own task spans ride under its pool_worker root.
        worker_ids = {s.span_id for s in tracer.find("pool_worker")}
        assert all(s.parent_id in worker_ids for s in tracer.find("task"))

    def test_fleet_worker_spans_cross_the_subprocess_boundary(self, tracer):
        scenarios = [Scenario("cpu", "scan", **FAST),
                     Scenario("cpu", "join", **FAST)]
        with WorkerFleet(1, task_timeout=120.0) as fleet:
            records, _, degraded = fleet.evaluate(scenarios)
        assert degraded == 0 and len(records) == 2
        batch = tracer.find("fleet_batch")[0]
        workers = tracer.find("fleet_worker")
        assert len(workers) == 2
        assert all(w.parent_id == batch.span_id for w in workers)
        assert all(w.attrs["pid"] != os.getpid() for w in workers)

    def test_export_after_adoption_is_valid(self, tracer, tmp_path):
        sweep = Sweep(systems=("cpu",), workloads=("scan", "join"),
                      scales=(50.0,), num_partitions=(8,))
        sweep.run(jobs=2)
        out = tmp_path / "trace.json"
        count = tracer.export_chrome(out)
        events = validate_trace_events(json.loads(out.read_text()))
        assert len(events) == count >= 3


class TestMetrics:
    def test_counter_gauge_histogram_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc()
        reg.counter("hits").inc(2)
        reg.gauge("depth").set(4.5)
        hist = reg.histogram("size")
        for value in (0.5, 5.0, 5000.0):
            hist.observe(value)
        snap = reg.snapshot()
        assert snap["counters"]["hits"] == 3
        assert snap["gauges"]["depth"] == 4.5
        assert snap["histograms"]["size"]["count"] == 3
        assert snap["histograms"]["size"]["min"] == 0.5
        assert sum(snap["histograms"]["size"]["buckets"]) == 3

    def test_type_collision_and_negative_inc_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")
        with pytest.raises(ValueError):
            reg.counter("x").inc(-1)

    def test_runtime_snapshot_shape(self):
        snap = runtime_snapshot()
        assert set(snap) == {"cache", "metrics", "store"}
        assert set(snap["metrics"]) == {"counters", "gauges", "histograms"}

    def test_codec_roundtrip_and_version_check(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        text = encode_snapshot(reg.snapshot())
        assert text == canonical_json(
            {"schema": "telemetry/v1", "snapshot": reg.snapshot()}
        )
        assert decode_snapshot(text) == reg.snapshot()
        with pytest.raises(ValueError, match="telemetry/v1"):
            decode_snapshot('{"schema": "telemetry/v9", "snapshot": {}}')

    def test_snapshot_bytes_identical_across_interpreters(self):
        probe = (
            "from repro.telemetry import MetricsRegistry, encode_snapshot\n"
            "reg = MetricsRegistry()\n"
            "for name in ('zeta', 'alpha', 'mid'):\n"
            "    reg.counter(name).inc(3)\n"
            "reg.gauge('g').set(1.25)\n"
            "for v in (0.002, 7.0, 7.0, 900.0):\n"
            "    reg.histogram('h').observe(v)\n"
            "print(encode_snapshot(reg.snapshot()))\n"
        )
        outputs = []
        for hash_seed in ("0", "12345"):
            env = dict(os.environ,
                       PYTHONPATH=str(ROOT / "src"),
                       PYTHONHASHSEED=hash_seed)
            result = subprocess.run(
                [sys.executable, "-c", probe], env=env,
                capture_output=True, text=True, check=True,
            )
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]
        decode_snapshot(outputs[0])  # and it is valid telemetry/v1

    def test_fault_metrics_published_on_finalize(self):
        before = registry().snapshot()["counters"].get("faults.sessions", 0)
        from repro.api.spec import as_spec

        system = as_spec("mondrian").with_faults(seed=7, drop_prob=0.2)
        Scenario(system, "join", model_scale=50.0, num_partitions=8).records()
        after = registry().snapshot()["counters"].get("faults.sessions", 0)
        assert after > before


class TestServiceStats:
    def test_daemon_stats_carry_metrics_snapshot(self):
        from repro.service.daemon import EvaluationDaemon

        daemon = EvaluationDaemon()
        try:
            stats = daemon.dispatch({"verb": "stats"})
        finally:
            daemon.scheduler.close()
        assert set(stats["metrics"]) == {"counters", "gauges", "histograms"}
        # The whole stats document round-trips through the v1 codec.
        assert decode_snapshot(encode_snapshot(stats)) == stats


class TestGoldensWithTracingOn:
    def test_sweep_smoke_stdout_identical_with_trace(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), REPRO_STORE="")
        cmd = [sys.executable, "-m", "repro.api",
               "--sweep", str(ROOT / "tests/data/sweep_smoke.json"),
               "--json", "-"]
        plain = subprocess.run(cmd, env=env, capture_output=True,
                               text=True, check=True)
        trace_file = tmp_path / "trace.json"
        traced = subprocess.run(cmd + ["--trace", str(trace_file)], env=env,
                                capture_output=True, text=True, check=True)
        assert traced.stdout == plain.stdout  # byte-identical export
        golden = (ROOT / "tests/data/sweep_smoke_golden.json").read_text()
        assert plain.stdout == golden
        events = validate_trace_events(json.loads(trace_file.read_text()))
        names = {e["name"] for e in events}
        # Operator workloads produce sweep/task/shuffle spans; plan and
        # stage spans belong to the pipeline-query workloads.
        assert {"sweep", "task", "shuffle"} <= names


@pytest.fixture
def cold_caches():
    """The budget times cold pipelines and must not leak warm caches."""
    common.clear_caches()
    yield
    common.clear_caches()


def test_disabled_overhead_budget(cold_caches):
    """The no-op guard's total cost must stay under 2% of fig6's runtime.

    Three measurements: (1) the cold figure-6 runtime with telemetry
    disabled; (2) how many instrumentation sites that pipeline actually
    crosses (count spans from one traced run); (3) the per-crossing
    cost of the disabled guard, micro-benchmarked directly.  The
    enforced budget is ``crossings x guard_cost < 2% x runtime`` -- if
    anyone moves real work outside the ``tracer is None`` check, the
    guard cost explodes and this fails long before users feel it.
    """

    def cold_runtime_ns() -> int:
        common.clear_caches()
        start = time.perf_counter_ns()
        fig6_probe.run(scale=BUDGET_SCALE)
        return time.perf_counter_ns() - start

    cold_runtime_ns()  # warm imports/allocator before timing
    runtime_ns = min(cold_runtime_ns() for _ in range(ROUNDS))

    tracer = install_tracer()
    try:
        common.clear_caches()
        fig6_probe.run(scale=BUDGET_SCALE)
        crossings = len(tracer.spans)
    finally:
        uninstall_tracer()
    assert crossings > 0

    calls = 200_000
    start = time.perf_counter_ns()
    for _ in range(calls):
        with span("budget", category="bench"):
            pass
    guard_ns = (time.perf_counter_ns() - start) / calls

    overhead = crossings * guard_ns / runtime_ns
    assert overhead < DISABLED_OVERHEAD_BUDGET, (
        f"{crossings} disabled span sites x {guard_ns:.0f} ns "
        f"= {overhead:.2%} of the {runtime_ns / 1e6:.0f} ms fig6 run "
        f"(budget {DISABLED_OVERHEAD_BUDGET:.0%})"
    )
