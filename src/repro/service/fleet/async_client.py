"""Async client for the evaluation daemon and fleet router.

:class:`AsyncServiceClient` is the coroutine-native counterpart of the
blocking :class:`~repro.service.client.ServiceClient` -- same wire
protocol, same verbs, same failure semantics -- built for the fan-out
the fleet exists to absorb: **thousands of concurrent requests** from
one process.

- **One connection per call in flight.**  Calls borrow connections
  from one :class:`~repro.service.wire.ConnectionPool`, the fleet
  router's own member pool: a call has its connection to itself and
  hands it back only after a complete reply, so sequential calls share
  one socket.  ``max_connections`` caps the calls in flight, and so the
  open sockets; further calls wait for a free slot.
- **The idempotent-verb retry matrix.**  The blocking client's rules,
  from the same :class:`~repro.service.resilience.retry.RetryBudget`:
  ``ping``/``stats``/``evaluate``/``sweep`` survive transport failure
  (a *reused* connection gets one free reconnect-and-resend, then up
  to ``retries`` backed-off attempts); ``shutdown`` is never resent.
  Daemon-reported errors raise
  :class:`~repro.service.wire.ServiceError` and are never retried.
- **Per-request deadlines.**  ``deadline`` (constructor default or
  per-call override) is enforced locally on the reply and propagated on
  the wire as ``deadline_s`` (recomputed to the *remaining* budget
  before each resend), so the daemon refuses to start work for a
  caller whose budget already lapsed.  An expired deadline is terminal,
  and it closes only the call's own connection.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Mapping, Optional, Union

from repro.api.results import ResultSet
from repro.api.scenario import Scenario
from repro.api.sweep import Sweep
from repro.service.client import records, spec_dict
from repro.service.daemon import DEFAULT_PORT
from repro.service.resilience.retry import RetryBudget, RetryPolicy
from repro.service.wire import ConnectionPool, unwrap


class AsyncServiceClient:
    """Asyncio client; point it at a daemon or a fleet router.

    ``max_connections`` caps the calls in flight, and so the pooled
    sockets (further calls wait); ``retries`` bounds the idempotent-verb
    retry loop; ``deadline`` is the default per-request budget in
    seconds, overridable per call.  Use as an async context manager, or
    call :meth:`close` explicitly.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        timeout: Optional[float] = 300.0,
        retries: int = 2,
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
        self.retry_policy = RetryPolicy(retries=retries)
        self.deadline = deadline
        self.max_connections = max_connections
        self._rng = rng
        self._pool = ConnectionPool(host, port)
        self._slots: Optional[asyncio.Semaphore] = None  # built on the loop
        self.resilience: Dict[str, int] = {
            "retries": 0,
            "reconnects": 0,
        }

    async def __aenter__(self) -> "AsyncServiceClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def close(self) -> None:
        await self._pool.close()

    # -- the retry matrix ----------------------------------------------------

    async def call(self, verb: str, **payload: Any) -> Any:
        """One request/response; idempotent verbs survive transport loss.

        The blocking client's rules (one shared
        :class:`~repro.service.resilience.retry.RetryBudget`):
        daemon-reported errors (:class:`ServiceError`) are terminal;
        idempotent verbs are resent after transport failures; the
        remaining ``self.deadline`` rides as ``deadline_s`` and is also
        enforced locally.
        """
        budget = RetryBudget(
            verb, payload, self.retries, self.retry_policy, self.deadline,
            self.resilience, rng=self._rng,
        )
        if self._slots is None:
            self._slots = asyncio.Semaphore(self.max_connections)
        while True:
            reused = False
            try:
                async with self._slots:
                    remaining = budget.remaining()
                    if remaining is not None and remaining <= 0:
                        raise asyncio.TimeoutError(
                            f"deadline of {self.deadline}s exhausted before send"
                        )
                    async with self._pool.checkout(self.timeout) as conn:
                        reused = conn.reused
                        response = await conn.exchange(budget.request, remaining)
            except asyncio.TimeoutError:
                raise  # the deadline is spent (an OSError from 3.11 on)
            except (OSError, ValueError):
                delay = budget.after_failure(reused)
                if delay is None:
                    raise
                await asyncio.sleep(delay)
                continue
            return unwrap(response)

    # -- verbs ---------------------------------------------------------------

    async def ping(self) -> Dict[str, Any]:
        """Daemon/router identity (service name, version, pid, members)."""
        return await self.call("ping")

    async def stats(self) -> Dict[str, Any]:
        """Request counters plus scheduler/store/fleet statistics."""
        return await self.call("stats")

    async def evaluate(self, scenario: Union[Scenario, Mapping[str, Any]]) -> ResultSet:
        """Evaluate one scenario remotely."""
        return records(await self.call("evaluate", scenario=spec_dict(scenario)))

    async def sweep(self, sweep: Union[Sweep, Mapping[str, Any]]) -> ResultSet:
        """Evaluate a whole sweep grid remotely."""
        return records(await self.call("sweep", sweep=spec_dict(sweep)))

    async def shutdown(self) -> Dict[str, Any]:
        """Ask the daemon/router to stop serving.  Never retried."""
        return await self.call("shutdown")
