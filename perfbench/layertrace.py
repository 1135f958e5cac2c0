"""Per-layer tracing from outside the program: spans around public calls.

:class:`SpanRecorder` keeps spans in memory -- name, start, end, parent
span and the id of the point or request that caused them -- and
:func:`traced_layers` swaps each layer's public entry points for timing
wrappers for the duration of a ``with`` block, restoring the originals
on exit.  Nothing under ``src/`` is edited.

When the run ends the spans are written out as a Chrome ``trace_event``
document (validated with ``repro.telemetry.codec.validate_trace_events``,
the format ``repro.report``-style tooling reads), and each layer's self
time is derived from that document: a span's duration minus the part
its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Span names whose entry starts a new point/request id when no other
#: traced call is open.
ROOT_SPANS = frozenset({"api.point", "suites.point", "service.dispatch"})


class SpanRecorder:
    """In-memory spans plus counters, for one single-threaded traced run."""

    def __init__(self) -> None:
        # (span id, parent id, name, start ns, end ns, op id, tid)
        self.spans: List[Tuple[int, Optional[int], str, int, int, int, int]] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self._stack: List[int] = []
        self._op = 0

    def new_op(self) -> int:
        self._op = next(self._ops)
        return self._op

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> Callable:
        """``fn`` wrapped in a span named ``name`` (nested by call stack)."""
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder._stack and name in ROOT_SPANS:
                recorder.new_op()
            span_id = next(recorder._ids)
            parent = recorder._stack[-1] if recorder._stack else None
            recorder._stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                recorder._stack.pop()
                recorder.spans.append(
                    (span_id, parent, name, start, end, recorder._op, 0)
                )
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def record(self, name: str, start_ns: int, end_ns: int, op: int, tid: int = 1) -> None:
        """Add a span timed by the caller (overlapping client requests)."""
        self.spans.append((next(self._ids), None, name, start_ns, end_ns, op, tid))

    # -- export -------------------------------------------------------------

    def chrome_events(self) -> List[Dict[str, Any]]:
        """Complete ("X") trace events in microseconds from the first span."""
        if not self.spans:
            return []
        origin = min(s[3] for s in self.spans)
        pid = os.getpid()
        events = []
        for span_id, parent, name, start, end, op, tid in sorted(
            self.spans, key=lambda s: (s[3], s[0])
        ):
            ts = (start - origin) // 1000
            args: Dict[str, Any] = {"span_id": span_id, "op": op}
            if parent is not None:
                args["parent_id"] = parent
            events.append({
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": ts,
                "dur": max((end - origin) // 1000 - ts, 1),
                "pid": pid,
                "tid": tid,
                "args": args,
            })
        return events

    def export(self, path: str) -> List[Dict[str, Any]]:
        """Write and validate the Chrome trace; returns its event list."""
        from repro.telemetry.codec import validate_trace_events

        document = {
            "traceEvents": self.chrome_events(),
            "displayTimeUnit": "ms",
            "otherData": {"source": "perfbench"},
        }
        with open(path, "w") as fh:
            json.dump(document, fh, sort_keys=True)
            fh.write("\n")
        with open(path) as fh:
            return validate_trace_events(json.load(fh))


def self_times_ms(events: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per span name: total duration minus the time direct children cover."""
    child_us: Dict[int, int] = defaultdict(int)
    for event in events:
        parent = event["args"].get("parent_id")
        if parent is not None:
            child_us[parent] += event["dur"]
    busy: Dict[str, float] = defaultdict(float)
    for event in events:
        own = event["dur"] - child_us.get(event["args"]["span_id"], 0)
        busy[event["name"]] += max(own, 0) / 1000.0
    return dict(busy)


def total_ms(events: List[Dict[str, Any]], name: str) -> float:
    """Summed (inclusive) duration of every span called ``name``."""
    return sum(e["dur"] for e in events if e["name"] == name) / 1000.0


# ---------------------------------------------------------------------------
# The wrapped entry points.
# ---------------------------------------------------------------------------


def _patch_points(recorder: SpanRecorder) -> List[Tuple[Any, str, str, Optional[Callable]]]:
    """(owner, attribute, span name, result hook) for every traced call."""
    from repro.api import results as api_results
    from repro.api import scenario as api_scenario
    from repro.experiments import common
    from repro.pipeline import perf as pipeline_perf
    from repro.pipeline import plan as pipeline_plan
    from repro.pipeline import stage as pipeline_stage
    from repro.service import codec, daemon
    from repro.service.fleet.sharded import ShardedResultStore
    from repro.shuffle.engine import ShuffleEngine
    from repro.suites import registry as suites_registry
    from repro.suites import runner as suites_runner
    from repro.systems.machine import Machine

    counts = recorder.counts

    def on_evaluated(result) -> None:
        counts["perf.phases"] += len(result.phase_perfs)
        resilience = result.metadata.get("resilience")
        if resilience is not None:
            counts["faults.retries"] += int(resilience["retries"])

    def on_operator(_run) -> None:
        counts["operators.calls"] += 1

    def on_workload(_workload) -> None:
        counts["analytics.make_workload.calls"] += 1

    points: List[Tuple[Any, str, str, Optional[Callable]]] = [
        (api_scenario.Scenario, "records", "api.point", None),
        (suites_runner.SuitePoint, "records", "suites.point", None),
        (common, "machine_for", "systems.machine_for", None),
        (ShuffleEngine, "run", "shuffle.run", None),
        (Machine, "evaluate_run", "perf.evaluate_run", on_evaluated),
        (api_scenario, "records_from_result", "api.records", None),
        (suites_runner, "records_from_result", "api.records", None),
        (api_results.ResultSet, "to_json", "api.export", None),
        (suites_registry.Suite, "build_plan", "suites.build_plan", None),
        (suites_runner, "relation_digest", "suites.digest", None),
        (pipeline_plan.QueryPlan, "execute", "pipeline.execute", None),
        (pipeline_perf, "evaluate_pipeline", "pipeline.evaluate", None),
        (daemon.EvaluationDaemon, "dispatch", "service.dispatch", None),
        (ShardedResultStore, "get", "service.store.get", None),
        (ShardedResultStore, "put", "service.store.put", None),
        (codec, "result_to_document", "service.codec", None),
        (codec, "result_from_document", "service.codec", None),
    ]
    for maker in ("make_scan_workload", "make_sort_workload",
                  "make_groupby_workload", "make_join_workload"):
        points.append((common, maker, "analytics.make_workload", on_workload))
    # Operators are reached two ways: the systems layer's dispatch table
    # (a dict, patched per key) and the pipeline stages' own imports.
    from repro.operators import OPERATOR_RUNNERS

    for op in ("scan", "sort", "groupby", "join"):
        points.append((pipeline_stage, f"run_{op}", f"operators.{op}", on_operator))
        points.append((OPERATOR_RUNNERS, op, f"operators.{op}", on_operator))
    return points


def _get(owner: Any, attr: str) -> Any:
    if isinstance(owner, dict):
        return owner[attr]
    # A class's own __dict__ entry, so restoring never leaves a copy of
    # an inherited attribute behind on the subclass.
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def _set(owner: Any, attr: str, value: Any) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


@contextlib.contextmanager
def traced_layers(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Install every layer wrapper; restore the originals on exit."""
    saved: List[Tuple[Any, str, Any]] = []
    try:
        for owner, attr, name, hook in _patch_points(recorder):
            original = _get(owner, attr)
            saved.append((owner, attr, original))
            _set(owner, attr, recorder.wrap(name, original, hook))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            _set(owner, attr, original)
