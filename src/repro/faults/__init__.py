"""Deterministic fault injection for the shuffle layer.

``plan`` turns a frozen :class:`FaultSpec` into a reproducible
:class:`FaultPlan` (stragglers, drops, duplicates, timeouts) for one
shuffle; ``protocol`` replays that schedule through the one
:class:`~repro.memctrl.permutable.ShuffleBarrier` with bounded retries
and exponential backoff, collecting :class:`ResilienceStats` -- the one
ledger of what the schedule cost, which the cost model prices.  Functional output is
byte-identical under any schedule -- see docs/ARCHITECTURE.md.
"""

from repro.faults.plan import NULL_FAULTS, FaultPlan, FaultSpec, stream_salt
from repro.faults.protocol import (
    DeliverySession,
    ResilienceStats,
    combine_stats,
)

__all__ = [
    "NULL_FAULTS",
    "FaultPlan",
    "FaultSpec",
    "stream_salt",
    "DeliverySession",
    "ResilienceStats",
    "combine_stats",
]
