"""Retry/backoff policy, circuit breaker and the client retry decision.

All three are deliberately tiny and deterministic-by-injection:

- :class:`RetryPolicy` computes bounded exponential backoff delays.
  Jitter is drawn from a caller-supplied ``random.Random`` (or skipped
  when none is given), so tests and the seeded chaos harness replay the
  exact same schedule while production callers still decorrelate.
- :class:`CircuitBreaker` is the classic closed -> open -> half-open
  state machine over *consecutive* failures.  The clock is injectable
  (``time.monotonic`` by default) so the open->half-open transition is
  testable without sleeping.
- :class:`RetryBudget` is the sans-IO retry decision for one client
  request: which verbs may resend, how many attempts, the free resend
  on a reused connection, the shrinking ``deadline_s`` and the backoff
  between attempts.  The blocking
  :class:`~repro.service.client.ServiceClient` wraps it around its
  socket and ``time.sleep``; the
  :class:`~repro.service.fleet.async_client.AsyncServiceClient` wraps it
  around a :class:`~repro.service.wire.ConnectionPool` checkout, whose
  connection reports whether it was reused, and ``asyncio.sleep``.

The fleet router reuses the policy (member respawn pacing) and the
breaker (one per member daemon).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, Optional

#: Verbs that are safe to resend: either read-only or content-addressed
#: (a duplicate ``evaluate``/``sweep`` dedups against the store).
IDEMPOTENT_VERBS = frozenset({"ping", "stats", "evaluate", "sweep"})


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff: ``base * multiplier**attempt``, capped.

    ``jitter`` is the maximum *fraction* added on top of the computed
    delay (0.5 means "up to +50%"); it only applies when the caller
    passes an rng, so un-seeded use stays deterministic.
    """

    retries: int = 2
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.base_delay < 0 or self.max_delay < self.base_delay:
            raise ValueError("need 0 <= base_delay <= max_delay")

    def delay(self, attempt: int, rng=None) -> float:
        """The backoff before retry number ``attempt`` (0-based)."""
        delay = min(self.base_delay * self.multiplier ** attempt, self.max_delay)
        if rng is not None and self.jitter:
            delay *= 1.0 + self.jitter * rng.random()
        return delay


class RetryBudget:
    """The retry decision for one client request, free of any I/O.

    Build one per call, send :attr:`request`, and after each transport
    failure ask :meth:`after_failure` what to do next.  The rules:

    - only :data:`IDEMPOTENT_VERBS` are ever resent, with ``1 + retries``
      attempts; ``shutdown`` fails on its first transport error;
    - a failure on a *reused* connection earns one free resend that
      does not touch the retry budget (the daemon may simply have
      restarted since the last call);
    - with a ``deadline``, the request carries ``deadline_s`` and each
      failure re-budgets it to the time left -- or gives up once none is;
    - ``policy.delay(attempt - 1, rng)`` paces the paid retries.

    Free resends and paid retries are counted into ``counters``
    (``"reconnects"`` / ``"retries"``), the client's ``resilience`` dict.
    """

    def __init__(
        self,
        verb: str,
        payload: Dict[str, Any],
        retries: int,
        policy: RetryPolicy,
        deadline: Optional[float],
        counters: Dict[str, int],
        rng=None,
        clock=time.monotonic,
    ) -> None:
        self.request: Dict[str, Any] = {"verb": verb, **payload}
        self._idempotent = verb in IDEMPOTENT_VERBS
        if deadline is not None and self._idempotent:
            self.request.setdefault("deadline_s", deadline)
        self._attempts = 1 + retries if self._idempotent else 1
        self._attempt = 0
        self._resend_spent = False
        self._policy = policy
        self._deadline = deadline
        self._counters = counters
        self._rng = rng
        self._clock = clock
        self._started = clock()

    def remaining(self) -> Optional[float]:
        """Seconds left of the deadline (``None`` without one)."""
        if self._deadline is None:
            return None
        return self._deadline - (self._clock() - self._started)

    def after_failure(self, reused: bool) -> Optional[float]:
        """A transport failure happened: seconds to wait before resending
        :attr:`request`, or ``None`` when the caller must re-raise."""
        if not self._idempotent:
            return None
        remaining = self.remaining()
        if remaining is not None:
            if remaining <= 0:
                return None
            self.request["deadline_s"] = remaining
        if reused and not self._resend_spent:
            self._resend_spent = True
            self._counters["reconnects"] += 1
            return 0.0
        self._attempt += 1
        if self._attempt >= self._attempts:
            return None
        self._counters["retries"] += 1
        return self._policy.delay(self._attempt - 1, rng=self._rng)


class CircuitBreaker:
    """Trip after ``failure_threshold`` *consecutive* failures.

    While **open**, :meth:`allow` answers ``False`` until ``reset_after``
    seconds pass; then one probe is allowed through (**half-open**).  A
    success closes the circuit, a failure re-opens it with a fresh
    timer.  Any success resets the consecutive-failure count.
    """

    CLOSED, OPEN, HALF_OPEN = "closed", "open", "half-open"

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_after: float = 30.0,
        clock=time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.reset_after = reset_after
        self._clock = clock
        self._failures = 0
        self._opened_at: Optional[float] = None
        self._probing = False

    @property
    def state(self) -> str:
        if self._opened_at is None:
            return self.CLOSED
        if self._probing or self._clock() - self._opened_at >= self.reset_after:
            return self.HALF_OPEN
        return self.OPEN

    def allow(self) -> bool:
        """May the caller attempt the protected operation right now?"""
        if self._opened_at is None:
            return True
        if self._probing:
            # One half-open probe is already in flight; hold the line.
            return False
        if self._clock() - self._opened_at >= self.reset_after:
            self._probing = True
            return True
        return False

    def record_success(self) -> None:
        if self._opened_at is not None:
            self._flip("closed")
        self._failures = 0
        self._opened_at = None
        self._probing = False

    def record_failure(self) -> None:
        self._failures += 1
        if self._probing or self._failures >= self.failure_threshold:
            if self._opened_at is None or self._probing:
                self._flip("opened")
            self._opened_at = self._clock()
            self._probing = False

    @staticmethod
    def _flip(transition: str) -> None:
        """Count a state flip in the telemetry registry.

        Imported lazily so the breaker stays usable in contexts that
        never touch telemetry (and import cycles stay impossible).
        """
        from repro.telemetry import registry

        registry().counter(f"service.breaker.{transition}").inc()
