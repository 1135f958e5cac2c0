"""Async pipelined client for the evaluation daemon and fleet router.

:class:`AsyncServiceClient` is the coroutine-native counterpart of the
blocking :class:`~repro.service.client.ServiceClient` -- same wire
protocol, same verbs, same failure semantics -- built for the fan-out
the fleet exists to absorb: **thousands of concurrent requests** from
one process.

- **Pipelining.**  Requests are multiplexed over a small pool of
  persistent connections; on each connection, requests are written
  back-to-back and responses are matched to callers in FIFO order (the
  daemon answers one connection's requests strictly in order).  A
  thousand in-flight evaluates need ``max_connections`` sockets, not a
  thousand.
- **The idempotent-verb retry matrix.**  The blocking client's rules,
  from the same :class:`~repro.service.resilience.retry.RetryBudget`:
  ``ping``/``stats``/``evaluate``/``sweep`` survive transport failure
  (a *reused* connection gets one free reconnect-and-resend, then up
  to ``retries`` backed-off attempts); ``shutdown`` is never resent.
  Daemon-reported errors raise
  :class:`~repro.service.client.ServiceError` and are never retried.
- **Per-request deadlines.**  ``deadline`` (constructor default or
  per-call override) is enforced locally with ``asyncio.wait_for`` and
  propagated on the wire as ``deadline_s`` (recomputed to the
  *remaining* budget before each resend), so the daemon refuses to
  start work for a caller whose budget already lapsed.

A timed-out or broken connection is discarded wholesale -- its other
in-flight requests fail over to fresh connections through the same
retry matrix, which is safe precisely because the retried verbs are
idempotent (content-addressed evaluates dedup against the store).
"""

from __future__ import annotations

import asyncio
import contextlib
import json
from collections import deque
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.api.results import ResultSet
from repro.api.scenario import Scenario
from repro.api.sweep import Sweep
from repro.service.client import ServiceError
from repro.service.daemon import DEFAULT_PORT
from repro.service.resilience.retry import RetryBudget, RetryPolicy

_MAX_LINE = 16 * 1024 * 1024


class _PipelinedConnection:
    """One socket carrying many in-flight requests, answered in order."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader = None
        self._writer = None
        self._pending: deque = deque()
        self._read_task: Optional[asyncio.Task] = None
        self._write_lock = asyncio.Lock()
        self.closed = False
        self.used = False  # a request has completed on this socket

    async def open(self, timeout: Optional[float]) -> None:
        self._reader, self._writer = await asyncio.wait_for(
            asyncio.open_connection(self.host, self.port, limit=_MAX_LINE),
            timeout=timeout,
        )
        self._read_task = asyncio.ensure_future(self._read_loop())

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    raise ConnectionResetError(
                        f"daemon at {self.host}:{self.port} closed the connection"
                    )
                response = json.loads(line)
                if self._pending:
                    future = self._pending.popleft()
                    if not future.done():
                        future.set_result(response)
        except asyncio.CancelledError:
            self._fail(ConnectionAbortedError("connection closed"))
            raise
        except Exception as exc:  # noqa: BLE001 - fans out to the callers
            self._fail(exc)

    def _fail(self, exc: BaseException) -> None:
        self.closed = True
        while self._pending:
            future = self._pending.popleft()
            if not future.done():
                future.set_exception(
                    exc if isinstance(exc, OSError) else ConnectionError(str(exc))
                )

    async def request(self, payload: Dict[str, Any]) -> Any:
        """Enqueue one request; resolves with the decoded response."""
        if self.closed:
            raise ConnectionResetError("connection already closed")
        future = asyncio.get_running_loop().create_future()
        async with self._write_lock:
            if self.closed:
                raise ConnectionResetError("connection already closed")
            self._pending.append(future)
            try:
                self._writer.write((json.dumps(payload) + "\n").encode("utf-8"))
                await self._writer.drain()
            except OSError:
                self._fail(ConnectionResetError("write failed"))
                raise
        response = await future
        self.used = True
        return response

    async def close(self) -> None:
        self.closed = True
        if self._read_task is not None:
            self._read_task.cancel()
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await self._read_task
        if self._writer is not None:
            self._writer.close()
            with contextlib.suppress(OSError):
                await self._writer.wait_closed()


class AsyncServiceClient:
    """Pipelined asyncio client; point it at a daemon or a fleet router.

    ``max_connections`` caps the socket pool (in-flight requests are
    unbounded -- they pipeline); ``retries``/``retry_policy`` shape the
    idempotent-verb retry loop; ``deadline`` is the default per-request
    budget in seconds, overridable per call.  Use as an async context
    manager, or call :meth:`close` explicitly.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        timeout: Optional[float] = 300.0,
        retries: int = 2,
        retry_policy: Optional[RetryPolicy] = None,
        deadline: Optional[float] = None,
        max_connections: int = 8,
        rng=None,
    ) -> None:
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if max_connections < 1:
            raise ValueError("max_connections must be >= 1")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy(retries=retries)
        )
        self.deadline = deadline
        self.max_connections = max_connections
        self._rng = rng
        self._conns: List[Optional[_PipelinedConnection]] = [None] * max_connections
        self._cursor = 0
        self._conn_lock: Optional[asyncio.Lock] = None
        self.resilience: Dict[str, int] = {
            "retries": 0,
            "reconnects": 0,
        }

    async def __aenter__(self) -> "AsyncServiceClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def close(self) -> None:
        for i, conn in enumerate(self._conns):
            self._conns[i] = None
            if conn is not None:
                await conn.close()

    # -- the pool ------------------------------------------------------------

    async def _connection(self) -> _PipelinedConnection:
        """Round-robin over the pool, (re)opening slots as needed."""
        if self._conn_lock is None:
            self._conn_lock = asyncio.Lock()
        async with self._conn_lock:
            self._cursor = (self._cursor + 1) % self.max_connections
            slot = self._cursor
            conn = self._conns[slot]
            if conn is None or conn.closed:
                conn = _PipelinedConnection(self.host, self.port)
                await conn.open(self.timeout)
                self._conns[slot] = conn
            return conn

    # -- the retry matrix ----------------------------------------------------

    async def call(
        self, verb: str, deadline: Optional[float] = None, **payload: Any
    ) -> Any:
        """One request/response; idempotent verbs survive transport loss.

        The blocking client's rules (one shared
        :class:`~repro.service.resilience.retry.RetryBudget`):
        daemon-reported errors (:class:`ServiceError`) are terminal;
        idempotent verbs are resent after transport failures; the
        remaining deadline rides as ``deadline_s`` and is also enforced
        locally.
        """
        if deadline is None:
            deadline = self.deadline
        budget = RetryBudget(
            verb, payload, self.retries, self.retry_policy, deadline,
            self.resilience, rng=self._rng,
        )
        while True:
            conn = None
            reused = False
            try:
                conn = await self._connection()
                reused = conn.used
                remaining = budget.remaining()
                if remaining is not None and remaining <= 0:
                    raise asyncio.TimeoutError(
                        f"deadline of {deadline}s exhausted before send"
                    )
                response = await asyncio.wait_for(
                    conn.request(budget.request), timeout=remaining
                )
            except asyncio.TimeoutError:
                # The FIFO is now misaligned for everything behind this
                # request: the whole connection must go.
                if conn is not None:
                    with contextlib.suppress(Exception):
                        await conn.close()
                raise
            except (OSError, ValueError):
                delay = budget.after_failure(reused)
                if delay is None:
                    raise
                await asyncio.sleep(delay)
                continue
            if not response.get("ok"):
                raise ServiceError(response.get("error", "unknown daemon error"))
            return response["result"]

    # -- verbs ---------------------------------------------------------------

    async def ping(self) -> Dict[str, Any]:
        """Daemon/router identity (service name, version, pid, members)."""
        return await self.call("ping")

    async def stats(self) -> Dict[str, Any]:
        """Request counters plus scheduler/store/fleet statistics."""
        return await self.call("stats")

    async def evaluate(
        self,
        scenario: Union[Scenario, Mapping[str, Any]],
        deadline: Optional[float] = None,
    ) -> ResultSet:
        """Evaluate one scenario remotely."""
        if isinstance(scenario, Scenario):
            scenario = scenario.to_dict()
        result = await self.call(
            "evaluate", deadline=deadline, scenario=dict(scenario)
        )
        return ResultSet(result["records"])

    async def sweep(
        self,
        sweep: Union[Sweep, Mapping[str, Any]],
        deadline: Optional[float] = None,
    ) -> ResultSet:
        """Evaluate a whole sweep grid remotely."""
        if isinstance(sweep, Sweep):
            sweep = sweep.to_dict()
        result = await self.call("sweep", deadline=deadline, sweep=dict(sweep))
        return ResultSet(result["records"])

    async def shutdown(self) -> Dict[str, Any]:
        """Ask the daemon/router to stop serving.  Never retried."""
        return await self.call("shutdown")
