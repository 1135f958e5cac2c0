"""The evaluation fleet: sharded storage, replicated daemons, one door.

The Mondrian Data Engine keeps analytic operators fast by spreading
data and work across many near-memory partitions; this package makes
the *evaluation service* live by the same creed.  PR 7 made one daemon
crash-safe -- the fleet extends the resilience story from one node to
many, so no single dead process or lost store directory can take the
service down:

- :mod:`repro.service.fleet.ring` -- :class:`HashRing`: consistent
  hashing over the store's content-addressed SHA-256 digests.  Each
  object maps to ``replicas`` of ``shards`` owners; adding or removing
  a shard moves only ~1/N of the keys (property-tested).
- :mod:`repro.service.fleet.sharded` -- :class:`ShardedResultStore`:
  N standard :class:`~repro.service.store.ResultStore` shards behind
  one store protocol.  Writes go to every replica, reads are served by
  the first healthy one, divergent or missing replicas are healed on
  read (**read-repair**), and :func:`rebalance` re-replicates after a
  shard is lost or added.
- :mod:`repro.service.fleet.router` -- :class:`FleetRouter`: the front
  door.  The second server of the daemon's JSON-lines loop
  (:func:`repro.service.daemon.serve_lines`), so it speaks the member
  daemons' protocol by construction; it health-checks members (reusing
  :class:`~repro.service.resilience.retry.CircuitBreaker`), routes each
  request to the member owning its digest, **hedges** slow requests to
  a replica owner after a latency deadline, fails over on member loss,
  respawns members it spawned, and degrades to in-process evaluation
  when every member is gone -- a request never fails outright.
- :mod:`repro.service.fleet.async_client` -- :class:`AsyncServiceClient`:
  an asyncio client keeping many submissions in flight, one pooled
  connection each (the router's own
  :class:`~repro.service.wire.ConnectionPool`), with per-request
  deadlines and the existing idempotent-verb retry matrix (the engine
  of ``tools/load_test.py`` / ``make load-test``).

See docs/ARCHITECTURE.md, "The evaluation fleet".
"""

from repro.service.fleet.async_client import AsyncServiceClient
from repro.service.fleet.ring import HashRing
from repro.service.fleet.router import (
    FleetRouter,
    serve_fleet,
    start_fleet_background,
)
from repro.service.fleet.sharded import (
    FLEET_MANIFEST,
    ShardedResultStore,
    rebalance,
)

__all__ = [
    "AsyncServiceClient",
    "FLEET_MANIFEST",
    "FleetRouter",
    "HashRing",
    "ShardedResultStore",
    "rebalance",
    "serve_fleet",
    "start_fleet_background",
]
