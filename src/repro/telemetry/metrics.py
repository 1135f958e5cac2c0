"""Typed metrics -- counters, gauges, histograms -- in one registry.

The subsystems already keep ad-hoc stats dicts (the result store's
hit/miss/put counters, the scheduler's dedup tallies, the circuit
breaker's state, the fault protocol's retry totals, the in-memory cache
tiers).  This module gives them one vocabulary and one export:
instrumented code mirrors its totals into the process-wide
:func:`registry` at cheap chokepoints (batch boundaries, session
finalize, breaker flips -- never inner loops).  The live cache/store
stats keep their own counters; the service's ``stats`` verb reports
them next to the registry's ``metrics``, never double-counted.

Everything is deterministic: snapshots are plain dicts with sorted
iteration order downstream (the ``telemetry/v1`` codec sorts keys), and
histogram buckets are fixed powers of ten so two interpreters counting
the same events produce byte-identical encodings.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
]

#: Default histogram bucket upper bounds (powers of ten; +inf implied).
DEFAULT_BOUNDS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0,
)


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment")
        self.value += amount

    def snapshot(self) -> int:
        return self.value


class Gauge:
    """A last-write-wins instantaneous value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def snapshot(self) -> float:
        return self.value


class Histogram:
    """Fixed-bucket distribution with count/sum/min/max."""

    __slots__ = ("name", "bounds", "buckets", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.bounds = DEFAULT_BOUNDS
        self.buckets = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        self.buckets[index] += 1
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def snapshot(self) -> Dict[str, Any]:
        return {
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
        }


class MetricsRegistry:
    """Name -> instrument, one namespace per process.

    ``counter``/``gauge``/``histogram`` are get-or-create and
    type-checked: asking for ``"x"`` as a counter after it was created
    as a gauge is a bug and raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, Any] = {}

    def _get(self, name: str, cls, *args):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = self._instruments[name] = cls(name, *args)
            elif not isinstance(instrument, cls):
                raise TypeError(
                    f"metric {name!r} is a "
                    f"{type(instrument).__name__}, not a {cls.__name__}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """All instruments, grouped by type, names sorted."""
        with self._lock:
            items = sorted(self._instruments.items())
        out: Dict[str, Dict[str, Any]] = {
            "counters": {}, "gauges": {}, "histograms": {},
        }
        for name, instrument in items:
            if isinstance(instrument, Counter):
                out["counters"][name] = instrument.snapshot()
            elif isinstance(instrument, Gauge):
                out["gauges"][name] = instrument.snapshot()
            else:
                out["histograms"][name] = instrument.snapshot()
        return out


#: The process-wide registry all instrumentation writes to.
_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    return _REGISTRY
