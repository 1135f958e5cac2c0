"""Zero-dependency tracing + metrics for the whole reproduction stack.

Three small modules, stdlib only:

``trace``
    Context-manager spans with deterministic ids, wall/CPU time and
    structured attributes, a module-level no-op guard (``span(...)`` is
    a shared inert singleton until a :class:`Tracer` is installed), a
    re-parenting ``adopt`` for spans shipped back from worker processes,
    and a Chrome ``trace_event`` exporter (``chrome://tracing`` /
    Perfetto load the output directly).

``metrics``
    Typed counters / gauges / histograms in one process-wide registry,
    unifying the ad-hoc stats the subsystems already keep (store
    hit/miss/evict, scheduler dedup, circuit-breaker flips, fault
    retry/backoff totals, cache tiers) behind one ``snapshot()``.

``codec``
    The canonical-JSON ``telemetry/v1`` envelope (sorted keys, no
    whitespace) used by ``repro.service stats --json`` and the
    determinism tests, plus a Chrome trace-event validator.

The instrumentation threaded through ``pipeline``, ``shuffle``,
``faults``, ``service`` and ``suites`` sits at stage / round / task
granularity (never per tuple) and costs one guarded call when no tracer
is installed -- ``tests/test_telemetry.py`` holds that disabled path to
a <2% overhead budget on the fig6 experiment.
"""

from repro.telemetry.codec import (
    SCHEMA,
    canonical_json,
    decode_snapshot,
    encode_snapshot,
    validate_trace_events,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    registry,
    runtime_snapshot,
)
from repro.telemetry.trace import (
    Span,
    Tracer,
    active_tracer,
    install_tracer,
    span,
    tracing,
    uninstall_tracer,
)

__all__ = [
    "SCHEMA",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "active_tracer",
    "canonical_json",
    "decode_snapshot",
    "encode_snapshot",
    "install_tracer",
    "registry",
    "runtime_snapshot",
    "span",
    "tracing",
    "uninstall_tracer",
    "validate_trace_events",
]
