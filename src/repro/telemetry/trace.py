"""Span tracing with deterministic ids and Chrome trace_event export.

The design center is "free when disabled": every instrumentation site
in the stack calls the module-level :func:`span`, which returns a shared
inert singleton unless a :class:`Tracer` has been installed -- one
global read and one attribute call, nothing allocated.  When tracing is
on, each span records wall-clock epoch time (``time.time_ns``, so spans
from different processes land on one timeline), a monotonic duration
(``perf_counter_ns``) and process CPU time (``process_time_ns``).

Span ids are small sequential integers handed out in start order under
a lock, so a single-threaded run numbers its spans deterministically.
Worker processes run their own tracer from id 1 and ship finished spans
back as plain dicts (the process pools and the resilience fleet's
JSON-lines protocol both carry them); :meth:`Tracer.adopt` renumbers
them into the parent's id space and re-parents the orphan roots under
the span that spawned the worker.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Dict, Iterable, List, Optional

__all__ = [
    "Span",
    "Tracer",
    "active_tracer",
    "install_tracer",
    "span",
    "tracing",
    "uninstall_tracer",
]


class Span:
    """One timed operation; also the ``with`` context manager."""

    __slots__ = (
        "tracer",
        "span_id",
        "parent_id",
        "name",
        "category",
        "attrs",
        "start_wall_ns",
        "duration_ns",
        "cpu_ns",
        "pid",
        "tid",
        "_start_perf_ns",
        "_start_cpu_ns",
    )

    def __init__(
        self,
        tracer: "Tracer",
        span_id: int,
        parent_id: Optional[int],
        name: str,
        category: str,
        attrs: Dict[str, Any],
    ) -> None:
        self.tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.attrs = attrs
        self.start_wall_ns = 0
        self.duration_ns = 0
        self.cpu_ns = 0
        self.pid = os.getpid()
        self.tid = threading.get_ident()
        self._start_perf_ns = 0
        self._start_cpu_ns = 0

    def set(self, **attrs: Any) -> "Span":
        """Attach structured attributes to the span."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self.start_wall_ns = time.time_ns()
        self._start_cpu_ns = time.process_time_ns()
        self._start_perf_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration_ns = time.perf_counter_ns() - self._start_perf_ns
        self.cpu_ns = time.process_time_ns() - self._start_cpu_ns
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.tracer._finish(self)
        return False

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form for the cross-process side channels."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "category": self.category,
            "attrs": dict(self.attrs),
            "start_wall_ns": self.start_wall_ns,
            "duration_ns": self.duration_ns,
            "cpu_ns": self.cpu_ns,
            "pid": self.pid,
            "tid": self.tid,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span(id={self.span_id}, parent={self.parent_id}, "
            f"name={self.name!r}, dur={self.duration_ns}ns)"
        )


class _NoopSpan:
    """The disabled-tracing singleton: every operation is inert."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Collects finished spans; thread-safe; ids are start-ordered."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 1
        self._spans: List[Span] = []

    # -- span lifecycle -------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, category: str = "repro", **attrs: Any) -> Span:
        """A new span nested under this thread's innermost open span."""
        stack = self._stack()
        parent_id = stack[-1].span_id if stack else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        sp = Span(self, span_id, parent_id, name, category, attrs)
        stack.append(sp)
        return sp

    def _finish(self, sp: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is sp:
            stack.pop()
        elif sp in stack:  # pragma: no cover - misnested exit
            stack.remove(sp)
        with self._lock:
            self._spans.append(sp)

    def current_span_id(self) -> Optional[int]:
        """This thread's innermost open span id (adoption parent)."""
        stack = self._stack()
        return stack[-1].span_id if stack else None

    # -- inspection -----------------------------------------------------

    @property
    def spans(self) -> List[Span]:
        """Finished spans, in finish order (a copy)."""
        with self._lock:
            return list(self._spans)

    def find(self, name: str) -> List[Span]:
        return [sp for sp in self.spans if sp.name == name]

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [sp.to_dict() for sp in self.spans]

    # -- cross-process re-parenting ------------------------------------

    def adopt(
        self,
        span_dicts: Iterable[Dict[str, Any]],
        parent_id: Optional[int] = None,
    ) -> int:
        """Renumber worker spans into this tracer and attach their roots.

        ``span_dicts`` is a child tracer's ``to_dicts()`` output (ids
        from the child's private sequence).  Each span gets a fresh id
        here; intra-batch parent links are remapped and spans whose
        parent is unknown (the worker's roots) are attached to
        ``parent_id``.  Returns the number of spans adopted.
        """
        batch = list(span_dicts)
        if not batch:
            return 0
        with self._lock:
            mapping = {}
            for d in batch:
                mapping[d["span_id"]] = self._next_id
                self._next_id += 1
            for d in batch:
                sp = Span(
                    self,
                    mapping[d["span_id"]],
                    mapping.get(d.get("parent_id"), parent_id),
                    d["name"],
                    d.get("category", "repro"),
                    dict(d.get("attrs") or {}),
                )
                sp.start_wall_ns = int(d.get("start_wall_ns", 0))
                sp.duration_ns = int(d.get("duration_ns", 0))
                sp.cpu_ns = int(d.get("cpu_ns", 0))
                sp.pid = int(d.get("pid", 0))
                sp.tid = int(d.get("tid", 0))
                self._spans.append(sp)
        return len(batch)

    # -- Chrome trace_event export -------------------------------------

    def chrome_trace_events(self) -> List[Dict[str, Any]]:
        """Complete ("X") trace events, start-ordered for stable output.

        Timestamps are wall-clock microseconds since the Unix epoch, so
        spans adopted from other processes share one timeline; Perfetto
        and ``chrome://tracing`` normalize to the earliest event.
        """
        events = []
        for sp in sorted(
            self.spans, key=lambda s: (s.start_wall_ns, s.span_id)
        ):
            args: Dict[str, Any] = {
                "span_id": sp.span_id,
                "cpu_us": sp.cpu_ns // 1000,
            }
            if sp.parent_id is not None:
                args["parent_id"] = sp.parent_id
            for key in sorted(sp.attrs):
                args[key] = sp.attrs[key]
            events.append(
                {
                    "name": sp.name,
                    "cat": sp.category,
                    "ph": "X",
                    "ts": sp.start_wall_ns // 1000,
                    "dur": max(sp.duration_ns // 1000, 1),
                    "pid": sp.pid,
                    "tid": sp.tid,
                    "args": args,
                }
            )
        return events

    def export_chrome(self, path: str) -> int:
        """Write the Chrome trace JSON document; returns the event count."""
        events = self.chrome_trace_events()
        document = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"schema": "telemetry/v1", "source": "repro"},
        }
        with open(path, "w") as fh:
            json.dump(document, fh, sort_keys=True)
            fh.write("\n")
        return len(events)


#: The installed tracer, or None -- the whole enable/disable switch.
_TRACER: Optional[Tracer] = None


def install_tracer() -> Tracer:
    """Install (and return) a fresh process-wide tracer; tracing is now on."""
    global _TRACER
    _TRACER = Tracer()
    return _TRACER


def uninstall_tracer() -> Optional[Tracer]:
    """Disable tracing; returns the tracer that was active, if any."""
    global _TRACER
    tracer, _TRACER = _TRACER, None
    return tracer


def active_tracer() -> Optional[Tracer]:
    return _TRACER


def span(name: str, category: str = "repro", **attrs: Any):
    """The guarded entry point every instrumentation site uses.

    With no tracer installed this returns the shared no-op singleton
    without allocating -- the disabled cost is one global read.
    """
    tracer = _TRACER
    if tracer is None:
        return NOOP_SPAN
    return tracer.span(name, category, **attrs)


class tracing:
    """``with tracing() as tracer:`` -- scoped install/uninstall of a
    fresh tracer."""

    def __init__(self) -> None:
        self._previous: Optional[Tracer] = None

    def __enter__(self) -> Tracer:
        global _TRACER
        self._previous = _TRACER
        _TRACER = Tracer()
        return _TRACER

    def __exit__(self, exc_type, exc, tb) -> bool:
        global _TRACER
        _TRACER = self._previous
        return False
