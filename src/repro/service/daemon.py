"""The serving daemon: one warm store, many clients.

An asyncio TCP server speaking newline-delimited JSON: each request is
one JSON object on one line, each response one JSON object on one line.
Verbs:

=========  ==========================================================
``ping``   liveness + identity (pid, version, store directory)
``evaluate``  one scenario (``{"scenario": {...}}``) -> tidy records
``sweep``  a whole grid (``{"sweep": {...}}``) -> tidy records
``stats``  request counters, scheduler stats, per-tier cache stats
``shutdown``  stop serving after acknowledging
=========  ==========================================================

Responses are ``{"ok": true, "result": ...}`` or ``{"ok": false,
"error": "..."}``; a malformed line gets an error response instead of a
dropped connection, and one client's failure never takes the server
down.

Evaluations run in a worker thread (the event loop stays responsive to
``ping``/``stats`` while a batch simulates) but are serialized through
one :class:`~repro.service.scheduler.BatchScheduler`, whose process
pool provides the actual compute concurrency.  All clients therefore
share a single warm store and in-memory cache: the second client to ask
for a sweep gets it back without a single simulation.

:func:`serve` blocks (the ``python -m repro.service serve`` entry
point); :func:`serve_background` runs the same server on a daemon
thread and returns a handle -- the form tests and doctests use.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import threading
import time
from typing import Any, Dict, Optional, Tuple

from repro.experiments import common
from repro.service.scheduler import BatchScheduler
from repro.version import __version__

#: Default TCP port (overridden by ``--port``; 0 picks an ephemeral one).
DEFAULT_PORT = 7917

_MAX_LINE = 16 * 1024 * 1024  # one request line; sweep grids are small

#: Verbs answered inline on the event loop, outside the batch lock --
#: strictly O(1), so a health check succeeds mid-simulation.
_INLINE_VERBS = frozenset({"ping", "shutdown"})

#: Read-only verbs that may do bounded I/O (``stats`` reconciles the
#: store's objects tree): off the event loop, but not behind the batch
#: lock either, so they answer while a sweep simulates.
_UNLOCKED_VERBS = frozenset({"stats"})


def _verb_of(request: Any) -> Any:
    return request.get("verb") if isinstance(request, dict) else None


class ServiceProtocolError(ValueError):
    """A request the daemon understood enough to reject."""


class DeadlineExceeded(ServiceProtocolError):
    """A request whose client-supplied deadline lapsed before execution."""


class EvaluationDaemon:
    """Request dispatch around one scheduler (transport-independent)."""

    def __init__(self, scheduler: Optional[BatchScheduler] = None) -> None:
        self.scheduler = scheduler if scheduler is not None else BatchScheduler()
        self.requests: Dict[str, int] = {}
        self.stopping = False

    def dispatch(self, request: Any, received: Optional[float] = None) -> Any:
        """One decoded request object -> the response's ``result``.

        ``received`` is the monotonic receipt time; a request carrying
        ``deadline_s`` (the client's remaining per-request budget) is
        rejected here -- possibly after waiting out the batch lock --
        rather than evaluated for a caller that stopped listening.  The
        client never retries a :class:`DeadlineExceeded` answer: the
        budget is gone either way.
        """
        if not isinstance(request, dict) or "verb" not in request:
            raise ServiceProtocolError(
                'requests are JSON objects with a "verb" key'
            )
        verb = request["verb"]
        handler = (
            getattr(self, f"_verb_{verb.replace('-', '_')}", None)
            if isinstance(verb, str)
            else None
        )
        if handler is None:
            raise ServiceProtocolError(f"unknown verb {verb!r}")
        deadline = request.get("deadline_s")
        if deadline is not None:
            try:
                deadline = float(deadline)
            except (TypeError, ValueError):
                raise ServiceProtocolError(
                    f"deadline_s must be a number, got {deadline!r}"
                ) from None
            waited = time.monotonic() - received if received is not None else 0.0
            if waited >= deadline:
                raise DeadlineExceeded(
                    f"request deadline of {deadline:g}s lapsed before "
                    f"execution ({waited:.3f}s queued)"
                )
        self.requests[verb] = self.requests.get(verb, 0) + 1
        return handler(request)

    # -- verbs ---------------------------------------------------------------

    def _verb_ping(self, request: Any) -> Dict[str, Any]:
        return {
            "service": "repro.service",
            "version": __version__,
            "pid": os.getpid(),
            "store": self.scheduler.store_path(),
        }

    def _verb_evaluate(self, request: Any) -> Dict[str, Any]:
        scenario = request.get("scenario")
        if not isinstance(scenario, dict):
            raise ServiceProtocolError('evaluate needs a "scenario" object')
        return {"records": self.scheduler.submit([scenario]).to_records()}

    def _verb_sweep(self, request: Any) -> Dict[str, Any]:
        grid = request.get("sweep")
        if not isinstance(grid, dict):
            raise ServiceProtocolError('sweep needs a "sweep" grid object')
        return {"records": self.scheduler.submit_sweep(grid).to_records()}

    def _verb_stats(self, request: Any) -> Dict[str, Any]:
        from repro.telemetry import registry

        return {
            "requests": dict(self.requests),
            "scheduler": self.scheduler.stats(),
            "cache": common.cache_stats(),
            "store": self.scheduler.store_stats(),
            "metrics": registry().snapshot(),
        }

    def _verb_shutdown(self, request: Any) -> Dict[str, Any]:
        self.stopping = True
        return {"stopping": True}


async def _serve_async(
    daemon: EvaluationDaemon,
    host: str,
    port: int,
    ready: Optional["queue.Queue"] = None,
    announce=None,
) -> None:
    loop = asyncio.get_running_loop()
    lock = asyncio.Lock()
    stopped = asyncio.Event()

    async def handle(reader, writer):
        try:
            while True:
                try:
                    line = await reader.readline()
                except ConnectionError:
                    break
                except ValueError:
                    # readline() surfaces a line beyond the stream limit
                    # as ValueError (LimitOverrunError included); the
                    # buffer is unrecoverable mid-line, so answer once
                    # and drop only this connection.
                    writer.write(
                        (json.dumps({
                            "ok": False,
                            "error": f"request line exceeds {_MAX_LINE} bytes",
                        }) + "\n").encode("utf-8")
                    )
                    await writer.drain()
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    received = time.monotonic()
                    request = json.loads(line)
                    verb = _verb_of(request)
                    if verb in _INLINE_VERBS:
                        # Answer immediately, even while a batch is
                        # simulating on the executor.
                        result = daemon.dispatch(request, received)
                    elif verb in _UNLOCKED_VERBS:
                        result = await loop.run_in_executor(
                            None, daemon.dispatch, request, received
                        )
                    else:
                        # One batch at a time: the scheduler owns the
                        # evaluation runtime, and interleaved submits
                        # would interleave its stats and store scoping.
                        # (Deadlines are re-checked inside dispatch, so
                        # time queued on this lock counts against them.)
                        async with lock:
                            result = await loop.run_in_executor(
                                None, daemon.dispatch, request, received
                            )
                    response = {"ok": True, "result": result}
                except Exception as exc:  # noqa: BLE001 - protocol boundary
                    response = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
                writer.write((json.dumps(response) + "\n").encode("utf-8"))
                await writer.drain()
                if daemon.stopping:
                    stopped.set()
                    break
        finally:
            writer.close()

    server = await asyncio.start_server(handle, host, port, limit=_MAX_LINE)
    actual_port = server.sockets[0].getsockname()[1]
    if announce is not None:
        announce(host, actual_port)
    if ready is not None:
        # The loop + stop event ride along so ServerHandle.stop can
        # escalate past an unresponsive wire protocol (see stop()).
        ready.put((host, actual_port, loop, stopped))
    try:
        async with server:
            await stopped.wait()
    finally:
        # Serving is over: flush the store.
        daemon.scheduler.close()


def serve(
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    store: Optional[str] = None,
    jobs: int = 1,
    max_bytes: Optional[int] = None,
    announce=print,
) -> None:
    """Run the daemon in the foreground until a ``shutdown`` request.

    ``announce(host, port)`` fires once the socket is bound -- the CLI
    prints the ``serving on host:port`` line scripts parse to find an
    ephemeral port.
    """
    daemon = EvaluationDaemon(
        BatchScheduler(store=store, jobs=jobs, max_bytes=max_bytes)
    )

    def _announce(h, p):
        if announce is print:
            print(f"repro.service: serving on {h}:{p} "
                  f"(store={daemon.scheduler.store_path() or 'none'})", flush=True)
        elif announce is not None:
            announce(h, p)

    asyncio.run(_serve_async(daemon, host, port, announce=_announce))


class ServerHandle:
    """A background server: its bound address plus a ``stop()`` switch."""

    def __init__(
        self,
        host: str,
        port: int,
        thread: threading.Thread,
        force_stop=None,
    ) -> None:
        self.host = host
        self.port = port
        self._thread = thread
        self._force_stop = force_stop

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    def stop(self, timeout: float = 10.0) -> bool:
        """Shut the server down; returns whether its thread terminated.

        Escalation ladder: (1) a polite ``shutdown`` over the wire --
        the normal path; (2) if the wire is unreachable or the thread
        outlives ``timeout``, force the serve loop's stop event directly
        on its own event loop, then join again.  Calling ``stop`` on an
        already-stopped server is a no-op that returns ``True``.
        """
        from repro.service.client import ServiceClient, ServiceError

        if self._thread.is_alive():
            try:
                with ServiceClient(self.host, self.port) as client:
                    client.shutdown()
            except (OSError, ServiceError):
                pass  # already stopping (or gone): escalate below
        self._thread.join(timeout)
        if self._thread.is_alive() and self._force_stop is not None:
            self._force_stop()
            self._thread.join(timeout)
        return not self._thread.is_alive()


def serve_background(
    host: str = "127.0.0.1",
    port: int = 0,
    store: Optional[str] = None,
    jobs: int = 1,
    max_bytes: Optional[int] = None,
) -> ServerHandle:
    """Start the daemon on a daemon thread; returns once it accepts.

    ``port=0`` binds an ephemeral port; the handle carries the actual
    address.  Used by tests, doctests and embedders that want a warm
    shared cache without a separate process.
    """
    import queue

    ready: "queue.Queue" = queue.Queue()
    daemon = EvaluationDaemon(
        BatchScheduler(store=store, jobs=jobs, max_bytes=max_bytes)
    )
    thread = threading.Thread(
        target=lambda: asyncio.run(_serve_async(daemon, host, port, ready=ready)),
        name="repro-service",
        daemon=True,
    )
    thread.start()
    bound_host, bound_port, loop, stopped = ready.get(timeout=30)

    def force_stop():
        with contextlib.suppress(RuntimeError):  # loop already closed
            loop.call_soon_threadsafe(stopped.set)

    return ServerHandle(bound_host, bound_port, thread, force_stop=force_stop)
