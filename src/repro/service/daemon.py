"""The serving daemon, and the JSON-lines server it shares with the fleet.

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
"error": "..."}``, framed by :mod:`repro.service.wire`; a malformed line
gets an error response instead of a dropped connection, and one
client's failure never takes the server down.

Evaluations run in a worker thread (the event loop stays responsive to
``ping``/``stats`` while a batch simulates) but are serialized through
one :class:`~repro.service.scheduler.BatchScheduler`, whose process
pool provides the actual compute concurrency.  All clients therefore
share a single warm store and in-memory cache: the second client to ask
for a sweep gets it back without a single simulation.

:func:`serve_lines` is the one wire loop; the daemon and the fleet
router (:class:`~repro.service.fleet.router.FleetRouter`) are its two
servers.  :func:`serve` blocks (the ``python -m repro.service serve``
entry point); :func:`serve_background` runs the same server on a daemon
thread and returns a :class:`ServerHandle` -- the form tests and
doctests use.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import threading
import time
from typing import Any, Callable, Dict, Optional, Set, Tuple

from repro.experiments import common
from repro.service.scheduler import BatchScheduler
from repro.service.wire import MAX_LINE, ServiceError, encode_line
from repro.version import __version__

#: Default TCP port (overridden by ``--port``; 0 picks an ephemeral one).
DEFAULT_PORT = 7917

#: Verbs answered inline on the event loop, outside the batch lock --
#: strictly O(1), so a health check succeeds mid-simulation.
_INLINE_VERBS = frozenset({"ping", "shutdown"})

#: Read-only verbs that may do bounded I/O (``stats`` scans the
#: store's objects tree): off the event loop, but not behind the batch
#: lock either, so they answer while a sweep simulates.
_UNLOCKED_VERBS = frozenset({"stats"})


class ServiceProtocolError(ValueError):
    """A request the daemon understood enough to reject."""


class DeadlineExceeded(ServiceProtocolError):
    """A request whose client-supplied deadline lapsed before execution."""


def lookup_verb(server: Any, request: Any) -> Tuple[str, Callable[[Any], Any]]:
    """A request's verb and the ``server._verb_<name>`` method answering it."""
    if not isinstance(request, dict) or "verb" not in request:
        raise ServiceProtocolError('requests are JSON objects with a "verb" key')
    verb = request["verb"]
    handler = (
        getattr(server, f"_verb_{verb.replace('-', '_')}", None)
        if isinstance(verb, str)
        else None
    )
    if handler is None:
        raise ServiceProtocolError(f"unknown verb {verb!r}")
    return verb, handler


class EvaluationDaemon:
    """Request dispatch around one scheduler, served by :func:`serve_lines`."""

    def __init__(self, scheduler: Optional[BatchScheduler] = None) -> None:
        self.scheduler = scheduler if scheduler is not None else BatchScheduler()
        self.requests: Dict[str, int] = {}
        self.stopping = False
        self._lock: Optional[asyncio.Lock] = None  # built on the loop

    def dispatch(self, request: Any, received: Optional[float] = None) -> Any:
        """One decoded request object -> the response's ``result``.

        ``received`` is the monotonic receipt time; a request carrying
        ``deadline_s`` (the client's remaining per-request budget) is
        rejected here -- possibly after waiting out the batch lock --
        rather than evaluated for a caller that stopped listening.  The
        client never retries a :class:`DeadlineExceeded` answer: the
        budget is gone either way.
        """
        verb, handler = lookup_verb(self, request)
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

    # -- serving hooks -------------------------------------------------------

    async def started(self) -> None:
        self._lock = asyncio.Lock()

    async def answer(self, request: Any, received: float) -> Any:
        verb = request.get("verb") if isinstance(request, dict) else None
        if verb in _INLINE_VERBS:
            # Answer immediately, even while a batch is simulating on
            # the executor.
            return self.dispatch(request, received)
        loop = asyncio.get_running_loop()
        if verb in _UNLOCKED_VERBS:
            return await loop.run_in_executor(None, self.dispatch, request, received)
        # One batch at a time: the scheduler owns the evaluation runtime,
        # and interleaved submits would interleave its stats and store
        # scoping.  (Deadlines are re-checked inside dispatch, so time
        # queued on this lock counts against them.)
        async with self._lock:
            return await loop.run_in_executor(None, self.dispatch, request, received)

    async def finished(self) -> None:
        # Serving is over: flush the store.
        self.scheduler.close()

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


async def _reply(writer, response: Dict[str, Any]) -> None:
    writer.write(encode_line(response))
    await writer.drain()


async def serve_lines(
    server: Any,
    host: str,
    port: int,
    ready: Optional["queue.Queue"] = None,
    announce: Optional[Callable[[str, int], None]] = None,
) -> None:
    """Serve ``server`` over JSON lines on ``host:port`` until it stops.

    Each request line is decoded and answered by ``await
    server.answer(request, received)``; any exception becomes an
    ``{"ok": false}`` envelope (a
    :class:`~repro.service.wire.ServiceError` -- a fleet member's own
    error reply -- verbatim, others as ``"Type: message"``).
    ``server.started()`` and ``server.finished()`` bracket the serving
    window, and the first response sent with ``server.stopping`` set
    ends it.  Connections still open then are closed and their handlers
    return: a client (or a fleet router's pooled member connection) left
    connected never leaves a handler for ``asyncio.run`` to cancel.
    """
    loop = asyncio.get_running_loop()
    stopped = asyncio.Event()
    live: Set[asyncio.Task] = set()  # one handler task per open connection

    async def handle(reader, writer):
        live.add(asyncio.current_task())
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
                    await _reply(writer, {
                        "ok": False,
                        "error": f"request line exceeds {MAX_LINE} bytes",
                    })
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    received = time.monotonic()
                    result = await server.answer(json.loads(line), received)
                    response = {"ok": True, "result": result}
                except Exception as exc:  # noqa: BLE001 - protocol boundary
                    message = (
                        str(exc) if isinstance(exc, ServiceError)
                        else f"{type(exc).__name__}: {exc}"
                    )
                    response = {"ok": False, "error": message}
                await _reply(writer, response)
                if server.stopping:
                    stopped.set()
                    break
        except asyncio.CancelledError:
            pass  # ended at shutdown (see below): the connection just closes
        finally:
            live.discard(asyncio.current_task())
            writer.close()

    await server.started()
    try:
        listener = await asyncio.start_server(handle, host, port, limit=MAX_LINE)
        actual_port = listener.sockets[0].getsockname()[1]
        if announce is not None:
            announce(host, actual_port)
        if ready is not None:
            # The loop + stop event ride along so ServerHandle.stop can
            # escalate past an unresponsive wire protocol (see stop()).
            ready.put((host, actual_port, loop, stopped))
        async with listener:
            await stopped.wait()
            # End every other connection here, where its handler can
            # return: asyncio.run would cancel what is left and log a
            # traceback per connection.
            for task in live:
                task.cancel()
            await asyncio.gather(*live, return_exceptions=True)
    finally:
        await server.finished()


def run_foreground(server: Any, host: str, port: int, detail: str) -> None:
    """Serve ``server`` in the foreground until a ``shutdown`` request.

    Once the socket is bound it prints the ``serving on host:port
    (detail)`` line scripts parse to find an ephemeral port.
    """

    def _announce(h, p):
        print(f"repro.service: serving on {h}:{p} ({detail})", flush=True)

    asyncio.run(serve_lines(server, host, port, announce=_announce))


def serve(
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    store: Optional[str] = None,
    jobs: int = 1,
) -> None:
    """Run the daemon in the foreground until a ``shutdown`` request."""
    daemon = EvaluationDaemon(BatchScheduler(store=store, jobs=jobs))
    detail = f"store={daemon.scheduler.store_path() or 'none'}"
    run_foreground(daemon, host, port, detail)


class ServerHandle:
    """A background server: its bound address, the ``server`` object it
    runs (a daemon or a fleet router), and a ``stop()`` switch."""

    def __init__(
        self,
        host: str,
        port: int,
        thread: threading.Thread,
        force_stop=None,
        server: Any = None,
    ) -> None:
        self.host = host
        self.port = port
        self.server = server
        self._thread = thread
        self._force_stop = force_stop

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    def stop(self, timeout: float = 30.0) -> bool:
        """Shut the server down; returns whether its thread terminated.

        Escalation ladder: (1) a polite ``shutdown`` over the wire --
        the normal path; (2) if the wire is unreachable or the thread
        outlives ``timeout``, force the serve loop's stop event directly
        on its own event loop, then join again.  Either way the server's
        ``finished()`` hook runs as the loop exits.  Calling ``stop`` on
        an already-stopped server is a no-op that returns ``True``.
        """
        from repro.service.client import ServiceClient

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


def start_background(
    server: Any, host: str, port: int, name: str = "repro-service"
) -> ServerHandle:
    """Run ``server`` on a daemon thread; returns once it accepts.

    A failure before the socket is bound (say the port is taken) is
    raised here, in the caller; a later one stays in the thread.
    """
    import queue

    ready: "queue.Queue" = queue.Queue()
    bound = threading.Event()

    def serve() -> None:
        try:
            asyncio.run(serve_lines(
                server, host, port, ready=ready,
                announce=lambda *_: bound.set(),
            ))
        except Exception as exc:
            if bound.is_set():
                raise
            ready.put(exc)  # the caller raises it

    thread = threading.Thread(target=serve, name=name, daemon=True)
    thread.start()
    started = ready.get(timeout=60)
    if isinstance(started, Exception):
        thread.join(timeout=5)
        raise started
    bound_host, bound_port, loop, stopped = started

    def force_stop():
        with contextlib.suppress(RuntimeError):  # loop already closed
            loop.call_soon_threadsafe(stopped.set)

    return ServerHandle(bound_host, bound_port, thread, force_stop, server)


def serve_background(
    host: str = "127.0.0.1",
    port: int = 0,
    store: Optional[str] = None,
) -> ServerHandle:
    """Start the daemon on a daemon thread; returns once it accepts.

    ``port=0`` binds an ephemeral port; the handle carries the actual
    address.  Used by tests, doctests and embedders that want a warm
    shared cache without a separate process.
    """
    daemon = EvaluationDaemon(BatchScheduler(store=store))
    return start_background(daemon, host, port)
