"""Resilient blocking client for the evaluation daemon.

Speaks the daemon's newline-delimited JSON protocol over one persistent
TCP connection.  Results come back as the same tidy records
``Sweep.run`` produces, re-wrapped in a
:class:`~repro.api.results.ResultSet` -- so a remote sweep and an
in-process sweep are drop-in interchangeable:

    with ServiceClient(host, port) as client:
        rs = client.sweep({"systems": ["cpu"], "workloads": ["scan"],
                           "scales": [50.0], "num_partitions": [8]})
        rs.to_json("out.json")

Failure semantics (see docs/ARCHITECTURE.md, "Resilience & failure
semantics"):

- **Idempotent verbs** (``ping``/``stats``/``evaluate``/``sweep``) get
  a bounded retry loop with exponential backoff and jitter on transport
  failure.  A *reused* connection that turns out to be stale earns one
  free reconnect-and-resend before the retry budget is touched --
  restarting the daemon between calls is invisible.  ``shutdown`` is
  never retried or resent: delivered-but-unacknowledged would stop a
  server twice.
- A ``deadline`` (seconds per request) rides along on the wire as
  ``deadline_s``; the daemon refuses to start work for a caller whose
  budget lapsed while the request sat behind the batch lock.  Daemon
  deadline rejections are terminal -- the budget is gone either way.
- ``degrade="local"`` turns an exhausted retry budget on
  ``evaluate``/``sweep`` into an in-process evaluation (with a
  :class:`ServiceDegradedWarning` and a ``degraded`` counter) instead
  of an exception -- results are identical, only the shared warm cache
  is lost.  The default ``degrade="fail"`` raises.

Errors the daemon reports (unknown verbs, invalid scenarios) raise
:class:`ServiceError` with the server's message; transport failures
that outlive the retry budget raise the underlying ``OSError``.
"""

from __future__ import annotations

import json
import socket
import time
import warnings
from typing import Any, Dict, Mapping, Optional, Union

from repro.api.results import ResultSet
from repro.api.scenario import Scenario
from repro.api.sweep import Sweep

from repro.service.daemon import DEFAULT_PORT
from repro.service.resilience.retry import (  # noqa: F401 - re-exported
    IDEMPOTENT_VERBS,
    RetryBudget,
    RetryPolicy,
)
from repro.service.wire import ServiceError, encode_line, unwrap  # noqa: F401


def spec_dict(spec: Union[Scenario, Sweep, Mapping[str, Any]]) -> Dict[str, Any]:
    """A scenario or sweep grid as the plain dict a request carries."""
    return spec.to_dict() if isinstance(spec, (Scenario, Sweep)) else dict(spec)


def records(result: Mapping[str, Any]) -> ResultSet:
    """An ``evaluate``/``sweep`` result as the :class:`ResultSet` that an
    in-process run returns."""
    return ResultSet(result["records"])


class ServiceDegradedWarning(UserWarning):
    """The daemon was unreachable; the client evaluated locally."""


class ServiceClient:
    """One connection to a running evaluation daemon.

    ``retries`` bounds resends of idempotent verbs after transport
    failure (0 disables), with exponential backoff between attempts.
    ``deadline`` is a per-request budget in seconds, both enforced
    locally and propagated to the daemon as ``deadline_s``.
    ``degrade`` picks the behaviour when every attempt at an
    ``evaluate``/``sweep`` fails in transport: ``"fail"`` re-raises,
    ``"local"`` falls back to in-process evaluation.  ``rng`` and
    ``sleep`` are injectable for deterministic tests.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        timeout: Optional[float] = 300.0,
        retries: int = 2,
        deadline: Optional[float] = None,
        degrade: str = "fail",
        rng=None,
        sleep=time.sleep,
    ) -> None:
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if degrade not in ("fail", "local"):
            raise ValueError('degrade must be "fail" or "local"')
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.retry_policy = RetryPolicy(retries=retries)
        self.deadline = deadline
        self.degrade = degrade
        self._rng = rng
        self._sleep = sleep
        self._sock: Optional[socket.socket] = None
        self._reader = None
        self.resilience: Dict[str, int] = {
            "retries": 0,
            "reconnects": 0,
            "degraded": 0,
        }

    # -- connection management ----------------------------------------------

    def connect(self) -> "ServiceClient":
        if self._sock is None:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
            self._reader = self._sock.makefile("rb")
        return self

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._reader.close()
                self._sock.close()
            finally:
                self._sock, self._reader = None, None

    def __enter__(self) -> "ServiceClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the wire ------------------------------------------------------------

    def _exchange(self, request: Dict[str, Any]) -> Any:
        """One raw request/response round trip on the live connection.

        Any transport failure (timeout included) closes the connection:
        a response that arrives after a timeout would otherwise sit in
        the buffer and be read as the answer to the *next* request.
        """
        try:
            self._sock.sendall(encode_line(request))
            line = self._reader.readline()
            if not line:
                raise ConnectionResetError(
                    f"daemon at {self.host}:{self.port} closed the connection"
                )
            response = json.loads(line)
        except (OSError, ValueError):
            self.close()
            raise
        return unwrap(response)

    def call(self, verb: str, **payload: Any) -> Any:
        """One request/response round trip; returns the ``result``.

        Transport failures are resent as
        :class:`~repro.service.resilience.retry.RetryBudget` decides
        (idempotent verbs only; a free resend on a stale reused
        connection, then ``retries`` backed-off attempts).
        Daemon-reported errors (:class:`ServiceError`) are never
        retried -- the daemon already answered.
        """
        budget = RetryBudget(
            verb, payload, self.retries, self.retry_policy, self.deadline,
            self.resilience, rng=self._rng,
        )
        while True:
            reused = self._sock is not None
            try:
                self.connect()
                return self._exchange(budget.request)
            except (OSError, ValueError):
                delay = budget.after_failure(reused)
                if delay is None:
                    raise
                self._sleep(delay)

    # -- verbs ---------------------------------------------------------------

    def ping(self) -> Dict[str, Any]:
        """Daemon identity: service name, version, pid, store directory."""
        return self.call("ping")

    def stats(self) -> Dict[str, Any]:
        """Request counters plus scheduler/cache/store statistics."""
        return self.call("stats")

    def _degrade_local(self, what: str, runner, exc: Exception) -> ResultSet:
        """Fall back to in-process evaluation after transport exhaustion."""
        from repro.experiments import common

        warnings.warn(
            f"evaluation daemon at {self.host}:{self.port} unreachable "
            f"({type(exc).__name__}: {exc}); degrading {what} to local "
            f"in-process evaluation",
            ServiceDegradedWarning,
            stacklevel=3,
        )
        self.resilience["degraded"] += 1
        common.note_degraded()
        return runner()

    def evaluate(self, scenario: Union[Scenario, Mapping[str, Any]]) -> ResultSet:
        """Evaluate one scenario remotely (or locally, when degrading)."""
        scenario = spec_dict(scenario)
        try:
            result = self.call("evaluate", scenario=scenario)
        except (OSError, ValueError) as exc:
            if self.degrade != "local":
                raise
            return self._degrade_local(
                "evaluate",
                lambda: ResultSet(Scenario.from_dict(scenario).records()),
                exc,
            )
        return records(result)

    def sweep(self, sweep: Union[Sweep, Mapping[str, Any]]) -> ResultSet:
        """Evaluate a whole sweep grid remotely (or locally, degrading)."""
        sweep = spec_dict(sweep)
        try:
            result = self.call("sweep", sweep=sweep)
        except (OSError, ValueError) as exc:
            if self.degrade != "local":
                raise
            return self._degrade_local(
                "sweep", lambda: Sweep.from_dict(sweep).run(), exc
            )
        return records(result)

    def shutdown(self) -> Dict[str, Any]:
        """Ask the daemon to stop serving (acknowledged before exit).

        Never retried or resent: a shutdown that was delivered but not
        acknowledged must not be fired twice at whatever starts
        listening on the port next.
        """
        return self.call("shutdown")
