"""Deterministic fault schedules for the shuffle layer.

The paper's all-to-all shuffle assumes every machine delivers on time;
real NMP-style fabrics see stragglers, dropped deliveries, duplicated
deliveries (a retransmission racing its original) and transient barrier
timeouts.  This module turns a tiny frozen parameter set
(:class:`FaultSpec`) into a fully materialized, reproducible schedule
(:class:`FaultPlan`) for one shuffle: which sources straggle and by how
much, how many consecutive attempts each (source, destination) delivery
loses before one lands, which streams deliver a duplicate copy, and
which destinations time out a barrier poll.

Everything is drawn from one :class:`numpy.random.SeedSequence` keyed by
``(seed, salt, num_sources, num_destinations)``: the same spec on the
same shuffle shape always yields the same schedule (two fresh processes
produce identical plans), while the ``salt`` separates the independent
shuffles of one operator (a join's R- and S-pass see different faults).

The schedules are pure *control-plane* adversity.  The retry/backoff
protocol in :mod:`repro.faults.protocol` guarantees the functional
output of a faulted shuffle is byte-identical to the fault-free run --
the property suite pins it across randomized schedules -- so a
schedule is replayed after the run, over each recorded pass's histogram
and salt (:func:`repro.operators.partition.price_faults`).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Mapping

import numpy as np

#: Probability fields that switch a fault class on when positive.
_PROB_FIELDS = (
    "straggler_prob",
    "drop_prob",
    "duplicate_prob",
    "timeout_prob",
)


@dataclass(frozen=True)
class FaultSpec:
    """Seed plus fault intensities: the declarative face of a schedule.

    The default spec is *null* (all probabilities zero): it injects
    nothing, costs nothing, and leaves every result byte-identical to a
    build without the fault layer at all.

    - ``straggler_prob`` / ``straggler_slowdown``: chance each source
      machine's shuffle egress runs ``slowdown`` times slower.
    - ``drop_prob``: chance a (source, destination) delivery attempt is
      lost in the network; lost attempts are retried with exponential
      backoff, at most ``max_retries`` times (the schedule never drops
      more than ``max_retries`` consecutive attempts, so the bounded
      protocol always converges).
    - ``duplicate_prob``: chance a completed delivery arrives twice; the
      destination controller detects and discards the copy.
    - ``timeout_prob``: chance a destination's barrier wait times out
      once and re-polls after a backoff.
    - ``backoff_base``: first-retry stall, in units of the disrupted
      delivery's own transmission time (doubling per further attempt).
    """

    seed: int = 0
    straggler_prob: float = 0.0
    straggler_slowdown: float = 4.0
    drop_prob: float = 0.0
    duplicate_prob: float = 0.0
    timeout_prob: float = 0.0
    max_retries: int = 3
    backoff_base: float = 0.5

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError("fault seed must be non-negative")
        for attr in _PROB_FIELDS:
            p = getattr(self, attr)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{attr} must be a probability in [0, 1]")
        if self.straggler_slowdown < 1.0:
            raise ValueError("straggler_slowdown must be >= 1.0")
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")
        if self.backoff_base < 0.0:
            raise ValueError("backoff_base must be non-negative")

    @property
    def active(self) -> bool:
        """True when any fault class can actually fire."""
        return any(getattr(self, attr) > 0.0 for attr in _PROB_FIELDS)

    def with_overrides(self, **kwargs) -> "FaultSpec":
        """Copy with fields replaced (validated by ``__post_init__``)."""
        return replace(self, **kwargs)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form: only the non-default fields."""
        default = NULL_FAULTS
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if getattr(self, f.name) != getattr(default, f.name)
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultSpec":
        """Inverse of :meth:`to_dict`, rejecting unknown fields."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown FaultSpec field(s) {unknown}; valid: {sorted(known)}"
            )
        return cls(**dict(data))


#: The inactive schedule every variant/config defaults to.
NULL_FAULTS = FaultSpec()


def stream_salt(label: str) -> int:
    """Stable small salt for a named delivery stream (e.g. ``"R-"``).

    CRC32 of the label, so a join's two partitioning passes (and any
    future pass vocabulary) draw independent-but-reproducible schedules
    from one seed.  The skew-aware protocol's pass is salted by
    ``"skew"``, so a pass records its salt rather than its label's.
    """
    return zlib.crc32(label.encode("utf-8")) & 0x7FFFFFFF


def _geometric_failures(
    u: np.ndarray, failure_prob: float, max_retries: int
) -> np.ndarray:
    """Consecutive failed attempts before a success, capped.

    Inverse-CDF sampling of the geometric distribution from uniforms:
    ``k = floor(log(u) / log(q))`` consecutive failures under per-attempt
    failure probability ``q``.  ``q == 1`` (every attempt drops) caps at
    ``max_retries``: the bounded protocol escalates to the slow
    per-delivery path, whose final attempt always lands.
    """
    if failure_prob <= 0.0:
        return np.zeros(u.shape, dtype=np.int64)
    if failure_prob >= 1.0:
        return np.full(u.shape, max_retries, dtype=np.int64)
    k = np.floor(np.log(u) / np.log(failure_prob)).astype(np.int64)
    return np.minimum(k, max_retries)


@dataclass
class FaultPlan:
    """One shuffle's materialized fault schedule.

    Arrays are indexed by the shuffle's shape: ``straggler_factor`` per
    source, ``drop_rounds``/``duplicates`` per (source, destination)
    stream, ``timeout_rounds`` per destination.  Schedules describe the
    *whole* stream matrix; zero-byte streams simply have nothing to
    drop, so the protocol masks them at delivery time.
    """

    spec: FaultSpec
    num_sources: int
    num_destinations: int
    salt: int
    #: per source: egress slowdown factor (1.0 = healthy).
    straggler_factor: np.ndarray
    #: per (src, dest): consecutive dropped attempts before the delivery
    #: lands (each <= spec.max_retries).
    drop_rounds: np.ndarray
    #: per (src, dest): duplicate copies arriving after the real one.
    duplicates: np.ndarray
    #: per dest: transient barrier-wait timeouts before completion.
    timeout_rounds: np.ndarray

    @classmethod
    def build(
        cls, spec: FaultSpec, num_sources: int, num_destinations: int, salt: int = 0
    ) -> "FaultPlan":
        """Materialize the deterministic schedule for one shuffle shape."""
        if num_sources < 0 or num_destinations < 1:
            raise ValueError("plan needs >= 0 sources and >= 1 destination")
        if salt < 0:
            raise ValueError("salt must be non-negative")
        rng = np.random.default_rng(
            np.random.SeedSequence([spec.seed, salt, num_sources, num_destinations])
        )
        shape = (num_sources, num_destinations)
        # Fixed draw order keeps schedules stable if later fault classes
        # are toggled off: each class consumes its own block of uniforms.
        straggles = rng.random(num_sources) < spec.straggler_prob
        straggler_factor = np.where(straggles, spec.straggler_slowdown, 1.0)
        drop_rounds = _geometric_failures(
            rng.random(shape), spec.drop_prob, spec.max_retries
        )
        duplicates = (rng.random(shape) < spec.duplicate_prob).astype(np.int64)
        timeout_rounds = (
            rng.random(num_destinations) < spec.timeout_prob
        ).astype(np.int64)
        return cls(
            spec=spec,
            num_sources=num_sources,
            num_destinations=num_destinations,
            salt=salt,
            straggler_factor=straggler_factor,
            drop_rounds=drop_rounds,
            duplicates=duplicates,
            timeout_rounds=timeout_rounds,
        )

    @property
    def active(self) -> bool:
        return self.spec.active

    def disrupted_destinations(self, sizes_b: np.ndarray) -> np.ndarray:
        """Per-destination bool: any inbound stream dropped or duplicated.

        ``sizes_b`` is the (sources, destinations) byte matrix; empty
        streams cannot be disrupted (there is nothing to deliver).
        """
        sizes = np.asarray(sizes_b)
        if sizes.shape != (self.num_sources, self.num_destinations):
            raise ValueError(
                f"sizes matrix {sizes.shape} does not match the plan shape "
                f"({self.num_sources}, {self.num_destinations})"
            )
        faulty = (self.drop_rounds > 0) | (self.duplicates > 0)
        return np.any(faulty & (sizes > 0), axis=0)
