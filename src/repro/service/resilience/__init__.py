"""Resilience layer for the evaluation service.

Everything that makes the service survive real-world failure:

- :mod:`repro.service.resilience.retry` -- :class:`RetryPolicy`
  (bounded exponential backoff with injectable jitter),
  :class:`CircuitBreaker` (closed/open/half-open over consecutive
  failures) and :class:`RetryBudget`, the one retry decision both
  service clients share.  The fleet router reuses the policy and the
  breaker for its member daemons.
- :mod:`repro.service.resilience.journal` -- the store's write-ahead
  :class:`IntentJournal` plus the fsync helpers behind crash-safe
  atomic writes; interrupted puts are rolled forward or discarded by a
  startup recovery scan, never half-served.

Crash isolation lives in the process model, not here: a daemon's
``--jobs`` pool is rebuilt per batch, and member daemons behind the
fleet router (:mod:`repro.service.fleet`) are health-checked, failed
over and respawned.  See docs/ARCHITECTURE.md, "Resilience & failure
semantics".
"""

from repro.service.resilience.journal import IntentJournal, atomic_write_text
from repro.service.resilience.retry import CircuitBreaker, RetryPolicy

__all__ = [
    "CircuitBreaker",
    "IntentJournal",
    "RetryPolicy",
    "atomic_write_text",
]
