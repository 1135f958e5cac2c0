"""The retry/backoff protocol that absorbs a fault schedule.

Two pieces:

- :class:`ResilienceStats`: the one ledger of what the protocol paid
  -- re-sent bytes, duplicates discarded at the controllers, backoff
  stalls (expressed as byte-times at shuffle egress bandwidth, so the
  existing interconnect cost model prices them directly), straggler
  critical-path stall, timeout rounds, and how many destinations
  degraded off the batched fast path.
- :class:`DeliverySession`: drives one shuffle's deliveries through a
  :class:`~repro.faults.plan.FaultPlan`.  Healthy destinations retire
  together in one bulk delivery of their inbound totals; a destination
  with any dropped or duplicated inbound stream degrades to the replay
  path.  One replay pass prices every disrupted stream's bounded
  retries (exponential backoff, doubling per attempt) and duplicates
  as arrays over the ``(destination, source, attempt)`` triples, and a
  second bulk delivery retires the disrupted destinations.  A
  duplicate is recognized by the controller and never reaches the
  barrier's byte count; a transient barrier-wait timeout is priced as
  a re-poll, never raised.  The destination-by-destination,
  stream-by-stream scalar replay it must equal lives in
  :mod:`repro.operators.reference`.

The data plane is untouched: drops happen *before* bytes commit and
duplicates are discarded *at* the controller, so the materialized
destination buffers -- and therefore every operator's functional output
-- stay byte-identical to the fault-free run under any schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Optional

import numpy as np

from repro.faults.plan import FaultPlan
from repro.memctrl.permutable import ShuffleBarrier
from repro.telemetry import registry as _registry
from repro.telemetry import span as _span


@dataclass
class ResilienceStats:
    """What the protocol paid to converge under one fault schedule."""

    #: delivery attempts that were dropped and re-sent.
    retries: int = 0
    #: bytes re-transmitted over the network for those retries.
    retried_b: float = 0.0
    #: duplicate deliveries the controllers detected and discarded.
    duplicates_discarded: int = 0
    #: bytes those duplicates burned on the wire.
    duplicate_b: float = 0.0
    #: backoff waits incurred (retry backoffs + timeout re-polls).
    backoff_stalls: int = 0
    #: backoff stall expressed as byte-time at shuffle egress bandwidth.
    backoff_stall_b: float = 0.0
    #: sources that straggled (with non-empty egress).
    stragglers: int = 0
    #: extra byte-time the slowest straggler held the barrier.
    straggler_stall_b: float = 0.0
    #: transient barrier-wait timeouts observed across destinations.
    timeout_rounds: int = 0
    #: destinations that fell back to the slow per-delivery path.
    degraded_destinations: int = 0
    #: goodput the shuffle moved (denominator for the shares).
    shuffle_b: float = 0.0

    def merge(self, other: "ResilienceStats") -> None:
        """Accumulate another session's stats (e.g. a join's two passes)."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    @property
    def overhead_b(self) -> float:
        """Extra wire byte-time beyond the fault-free shuffle."""
        return (
            self.retried_b
            + self.duplicate_b
            + self.backoff_stall_b
            + self.straggler_stall_b
        )

    @property
    def straggler_share(self) -> float:
        """Straggler stall as a share of the total shuffle critical path."""
        total = self.shuffle_b + self.overhead_b
        return self.straggler_stall_b / total if total > 0 else 0.0

    def to_metadata(self) -> Dict[str, float]:
        """Plain-scalar dict that survives the service codec round-trip."""
        out: Dict[str, float] = {
            f.name: float(getattr(self, f.name))
            if isinstance(getattr(self, f.name), float)
            else int(getattr(self, f.name))
            for f in fields(self)
        }
        out["overhead_b"] = float(self.overhead_b)
        out["straggler_share"] = float(self.straggler_share)
        return out


def combine_stats(*stats: Optional[ResilienceStats]) -> Optional[ResilienceStats]:
    """Merge per-shuffle stats into one; ``None`` if none were collected."""
    merged: Optional[ResilienceStats] = None
    for s in stats:
        if s is None:
            continue
        if merged is None:
            merged = ResilienceStats()
        merged.merge(s)
    return merged


def _fold(total: float, terms: np.ndarray) -> float:
    """``total + terms[0] + terms[1] + ...``, added strictly left to right.

    ``np.add.accumulate`` is a sequential fold, so the result is the
    one a scalar ``+=`` loop produces; a pairwise or compensated sum
    (``ndarray.sum``, builtin ``sum`` on Python >= 3.12) would not be.
    """
    return float(np.add.accumulate(np.concatenate(([total], terms)))[-1])


def _attempts(rounds: np.ndarray) -> np.ndarray:
    """Attempt number of every round: ``0 .. rounds[i] - 1`` for each
    ``i``, back to back."""
    return np.arange(int(rounds.sum()), dtype=np.int64) - np.repeat(
        np.cumsum(rounds) - rounds, rounds
    )


class DeliverySession:
    """Drives one shuffle's barrier deliveries through a fault plan.

    ``sizes_b`` is the (sources, destinations) byte matrix the histogram
    exchange produced -- the same matrix ``announce_all`` posted.  The
    session decides, per destination, whether the bulk fast path is
    safe (no inbound stream disrupted) or the replay path must price
    each inbound stream's retries and duplicates; the replay prices
    every disrupted destination in one pass of array work.
    """

    def __init__(self, plan: FaultPlan, sizes_b: np.ndarray) -> None:
        self._plan = plan
        self._sizes = np.asarray(sizes_b, dtype=np.int64)
        if self._sizes.shape != (plan.num_sources, plan.num_destinations):
            raise ValueError(
                f"sizes matrix {self._sizes.shape} does not match the plan "
                f"shape ({plan.num_sources}, {plan.num_destinations})"
            )
        self._disrupted = plan.disrupted_destinations(self._sizes)
        self.stats = ResilienceStats(shuffle_b=float(self._sizes.sum()))

    @property
    def plan(self) -> FaultPlan:
        return self._plan

    def deliver(self, barrier: ShuffleBarrier) -> None:
        """Retire every destination's inbound traffic through the barrier.

        Healthy destinations retire together in one bulk delivery of
        their inbound totals; then every disrupted one replays its
        streams' bounded retries and duplicates, and retires in a second
        bulk delivery.
        """
        dest_totals = self._sizes.sum(axis=0)
        barrier.deliver_all(np.where(self._disrupted, 0, dest_totals))
        dests = np.flatnonzero(self._disrupted)
        if not len(dests):
            return
        with _span(
            "fault_replay", category="faults", destinations=len(dests)
        ) as sp:
            self._replay(dests)
            sp.set(retries=self.stats.retries)
        barrier.deliver_all(np.where(self._disrupted, dest_totals, 0))

    def _replay(self, dests: np.ndarray) -> None:
        """Every disrupted stream's dropped attempts and duplicates, as
        arrays over the ``(dest, src, attempt)`` triples.

        Stream ``(src, dest)`` loses its first ``drops`` attempts (each
        burns its bytes on the wire and waits ``backoff_base *
        2**attempt`` of its transmission time), then lands, then any
        duplicate copies arrive.  Each float accumulator folds once, in
        ``(dest, src, attempt)`` order: the order a destination-by-
        destination, stream-by-stream replay would add them in.
        """
        spec = self._plan.spec
        sizes = self._sizes[:, dests].T  # (dest, src) order
        live = sizes > 0  # empty streams have nothing to disrupt
        size_b = sizes[live]
        drops = np.minimum(
            self._plan.drop_rounds[:, dests].T[live], spec.max_retries
        )
        self.stats.degraded_destinations += len(dests)
        num_drops = int(drops.sum())
        if num_drops:
            dropped_b = np.repeat(size_b, drops).astype(np.float64)
            self.stats.retries += num_drops
            self.stats.retried_b = _fold(self.stats.retried_b, dropped_b)
            self.stats.backoff_stalls += num_drops
            self.stats.backoff_stall_b = _fold(
                self.stats.backoff_stall_b,
                spec.backoff_base * 2.0 ** _attempts(drops) * dropped_b,
            )
        copies = np.repeat(size_b, self._plan.duplicates[:, dests].T[live])
        if copies.size:
            self.stats.duplicates_discarded += int(copies.size)
            self.stats.duplicate_b = _fold(self.stats.duplicate_b, copies)

    def finalize(self) -> ResilienceStats:
        """Post-delivery accounting: timeouts and straggler stall.

        A destination with inbound traffic whose barrier wait times out
        re-polls after a backoff priced like a retry of its whole
        inbound total; the straggler critical path is the slowest
        source's extra egress time (the barrier waits for the last
        delivery, so only the maximum matters).
        """
        with _span("fault_finalize", category="faults"):
            self._price_timeouts(self._sizes.sum(axis=0))
            egress = self._sizes.sum(axis=1).astype(np.float64)
            extra = (self._plan.straggler_factor - 1.0) * egress
            straggling = (self._plan.straggler_factor > 1.0) & (egress > 0)
            self.stats.stragglers += int(np.count_nonzero(straggling))
            if extra.size:
                self.stats.straggler_stall_b += float(extra.max())
        self._publish_metrics()
        return self.stats

    def _price_timeouts(self, dest_totals: np.ndarray) -> None:
        """Every timed-out destination's re-polls, folded in ``(dest,
        attempt)`` order; destinations with no inbound traffic never
        wait."""
        rounds = np.where(dest_totals > 0, self._plan.timeout_rounds, 0)
        polls = int(rounds.sum())
        if not polls:
            return
        self.stats.timeout_rounds += polls
        self.stats.backoff_stalls += polls
        self.stats.backoff_stall_b = _fold(
            self.stats.backoff_stall_b,
            self._plan.spec.backoff_base
            * 2.0 ** _attempts(rounds)
            * np.repeat(dest_totals, rounds).astype(np.float64),
        )

    def _publish_metrics(self) -> None:
        """Mirror this session's totals into the telemetry registry."""
        reg = _registry()
        reg.counter("faults.sessions").inc()
        reg.counter("faults.retries").inc(self.stats.retries)
        reg.counter("faults.backoff_stalls").inc(self.stats.backoff_stalls)
        reg.counter("faults.duplicates_discarded").inc(
            self.stats.duplicates_discarded
        )
        reg.counter("faults.timeout_rounds").inc(self.stats.timeout_rounds)
        reg.counter("faults.stragglers").inc(self.stats.stragglers)
        reg.counter("faults.degraded_destinations").inc(
            self.stats.degraded_destinations
        )
        reg.histogram("faults.overhead_b").observe(self.stats.overhead_b)
