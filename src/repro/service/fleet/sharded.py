"""The sharded, replicated result store: N shards, R copies, one door.

A :class:`ShardedResultStore` speaks the same store protocol as a
single :class:`~repro.service.store.ResultStore` (``contains`` / ``get``
/ ``put`` / ``stats`` / ``counters`` / ``merge_stats`` / ``flush`` /
``verify``), so everything built on the PR 4 store -- the cache tier in
``run_cached_result``, the batch scheduler, the serving daemon, the
process pool's store-counter deltas -- runs unchanged on top of it.
Underneath, objects are spread over ``shards`` standard stores (each
with the full PR 7 journal/quarantine machinery) by consistent hashing
(:class:`~repro.service.fleet.ring.HashRing`) with ``replicas`` copies:

- **Write to all replicas.**  A put lands on every owner shard.  A
  shard that cannot be written (lost directory, permissions) is
  tolerated as long as one replica commits; the failure is counted
  (``replica_write_failures``) and the missing copy is queued for
  repair (healed by the next :meth:`flush`, read of that digest, or
  :func:`rebalance`).
- **Read from any, repair on read.**  A get walks the owners in rank
  order and serves the first healthy copy.  Owners that missed --
  vanished directory, torn object (quarantined by the shard itself) --
  are **read-repaired**: the good copy is re-replicated immediately and
  the heal is counted (``read_repairs``), so a lost shard converges
  back to full replication just by being read.
- **Rebalance / scrub.**  :func:`rebalance` walks every object in every
  shard directory, re-computes placement (optionally under a *new*
  shard count), copies objects to owners that lack them, prunes
  non-owner copies, and settles divergent replicas deterministically
  (the copy on the highest-ranked owner wins; losers are overwritten).
  ``python -m repro.service rebalance`` wraps it.

Layout under the fleet root::

    <root>/
      fleet.json             # {"schema": "fleet/v1", shards, replicas, vnodes}
      shard-00/              # a standard ResultStore root
      shard-01/
      ...

The manifest makes fleet-ness self-describing: ``open_store`` (and so
``REPRO_STORE`` / ``--store``) transparently opens a fleet root as a
:class:`ShardedResultStore` -- member daemons need no special flags.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Set

from repro.service.fleet.ring import DEFAULT_VNODES, HashRing, shard_name
from repro.service.resilience.journal import atomic_write_text
from repro.service.store import ResultStore

#: The manifest file naming a directory as a fleet store root.
FLEET_MANIFEST = "fleet.json"

_FLEET_SCHEMA = "fleet/v1"


def _count(name: str, amount: int = 1) -> None:
    """Mirror a fleet store event into the telemetry registry."""
    from repro.telemetry import registry

    registry().counter(f"service.fleet.{name}").inc(amount)


def read_manifest(root: Path) -> Optional[Dict[str, int]]:
    """The parsed fleet manifest, or ``None`` if ``root`` is not a fleet."""
    try:
        data = json.loads((Path(root) / FLEET_MANIFEST).read_text())
        if data.get("schema") != _FLEET_SCHEMA:
            return None
        return {
            "shards": int(data["shards"]),
            "replicas": int(data["replicas"]),
            "vnodes": int(data.get("vnodes", DEFAULT_VNODES)),
        }
    except (OSError, ValueError, KeyError, TypeError):
        return None


def write_manifest(
    root: Path, shards: int, replicas: int, vnodes: int = DEFAULT_VNODES
) -> None:
    Path(root).mkdir(parents=True, exist_ok=True)
    atomic_write_text(
        Path(root) / FLEET_MANIFEST,
        json.dumps(
            {
                "schema": _FLEET_SCHEMA,
                "shards": int(shards),
                "replicas": int(replicas),
                "vnodes": int(vnodes),
            },
            sort_keys=True,
        ),
        fsync=False,
    )


class ShardedResultStore:
    """R-way replicated store over N :class:`ResultStore` shards."""

    def __init__(
        self,
        root: os.PathLike,
        shards: Optional[int] = None,
        replicas: Optional[int] = None,
        vnodes: Optional[int] = None,
        max_bytes: Optional[int] = None,
        fsync: Optional[bool] = None,
    ) -> None:
        """Open (or create) the fleet store at ``root``.

        Without explicit ``shards``/``replicas`` the manifest written by
        a previous open is authoritative; passing them creates the
        manifest on first open and must agree with it afterwards (use
        :func:`rebalance` to change topology -- a silent re-ring would
        strand every existing object).  ``max_bytes`` bounds each shard
        individually.
        """
        self._root = Path(root)
        manifest = read_manifest(self._root)
        if manifest is None:
            if shards is None:
                raise ValueError(
                    f"{self._root} has no {FLEET_MANIFEST}; pass shards= "
                    "(and replicas=) to create a fleet store"
                )
            manifest = {
                "shards": int(shards),
                "replicas": int(replicas if replicas is not None else 2),
                "vnodes": int(vnodes if vnodes is not None else DEFAULT_VNODES),
            }
            if manifest["shards"] < 1:
                raise ValueError("shards must be >= 1")
            if manifest["replicas"] < 1:
                raise ValueError("replicas must be >= 1")
            write_manifest(self._root, **manifest)
        else:
            for key, given in (("shards", shards), ("replicas", replicas)):
                if given is not None and int(given) != manifest[key]:
                    raise ValueError(
                        f"{key}={given} disagrees with the fleet manifest's "
                        f"{manifest[key]}; run rebalance to change topology"
                    )
        self.num_shards = manifest["shards"]
        self.replicas = manifest["replicas"]
        self.ring = HashRing(
            [shard_name(i) for i in range(self.num_shards)],
            replicas=self.replicas,
            vnodes=manifest["vnodes"],
        )
        self._shards: Dict[str, ResultStore] = {
            name: ResultStore(
                self._root / name, max_bytes=max_bytes, fsync=fsync
            )
            for name in self.ring.shards
        }
        self._pending_repairs: Dict[str, Set[str]] = {}
        self._stats = {
            "hits": 0,
            "misses": 0,
            "puts": 0,
            "read_repairs": 0,
            "replica_write_failures": 0,
        }

    # -- identity ------------------------------------------------------------

    @property
    def root(self) -> Path:
        return self._root

    def shard(self, name: str) -> ResultStore:
        """One member shard's store handle (tests, rebalance, chaos)."""
        return self._shards[name]

    def owners(self, digest: str) -> List[str]:
        return self.ring.owners(digest)

    def __len__(self) -> int:
        return len(set(self.digests()))

    def __repr__(self) -> str:
        return (
            f"ShardedResultStore({str(self._root)!r}, "
            f"shards={self.num_shards}, replicas={self.replicas})"
        )

    # -- the store protocol --------------------------------------------------

    def contains(self, digest: str) -> bool:
        """Non-counting probe: does any owner replica hold the digest?"""
        return any(
            self._shards[name].contains(digest) for name in self.owners(digest)
        )

    def get(self, digest: str) -> Optional[Dict[str, Any]]:
        """First healthy replica's document; heals the others on the way.

        Owners are consulted in rank order; a replica that turns out to
        be missing or torn (the shard quarantines torn copies itself)
        is re-written from the healthy copy -- **read-repair** -- so
        replication converges back to R just by serving reads.
        """
        owners = self.owners(digest)
        document = None
        lacking: List[str] = []
        for name in owners:
            document = self._shards[name].get(digest)
            if document is not None:
                break
            lacking.append(name)
        if document is None:
            self._stats["misses"] += 1
            return None
        self._stats["hits"] += 1
        lacking.extend(self._pending_repairs.pop(digest, set()) - set(lacking))
        for name in lacking:
            if self._repair(digest, document, name):
                self._stats["read_repairs"] += 1
                _count("read_repairs")
        return document

    def _repair(self, digest: str, document: Mapping[str, Any], name: str) -> bool:
        try:
            self._shards[name].put(digest, document)
            return True
        except OSError:
            self._pending_repairs.setdefault(digest, set()).add(name)
            return False

    def put(self, digest: str, document: Mapping[str, Any]) -> Path:
        """Write the document to every owner replica.

        Succeeds as long as *one* replica commits; unwritable replicas
        are counted and queued for repair.  Raises only when no replica
        at all could take the write.
        """
        owners = self.owners(digest)
        committed: Optional[Path] = None
        last_error: Optional[OSError] = None
        for name in owners:
            try:
                path = self._shards[name].put(digest, document)
                if committed is None:
                    committed = path
                self._pending_repairs.get(digest, set()).discard(name)
            except OSError as exc:
                last_error = exc
                self._stats["replica_write_failures"] += 1
                _count("replica_write_failures")
                self._pending_repairs.setdefault(digest, set()).add(name)
        if committed is None:
            raise last_error if last_error is not None else OSError(
                f"no replica accepted digest {digest}"
            )
        self._stats["puts"] += 1
        return committed

    def heal(self) -> int:
        """Retry queued replica repairs; returns how many landed."""
        healed = 0
        for digest in list(self._pending_repairs):
            document = self.get(digest)  # get() performs the repairs
            if document is not None and digest not in self._pending_repairs:
                healed += 1
        return healed

    def flush(self) -> None:
        """Flush every shard's index and retry queued repairs."""
        self.heal()
        for store in self._shards.values():
            store.flush()

    # -- introspection -------------------------------------------------------

    def digests(self) -> Iterator[str]:
        """Union of every shard's known digests, sorted."""
        union: Set[str] = set()
        for store in self._shards.values():
            union.update(store.digests())
        return iter(sorted(union))

    def counters(self) -> Dict[str, int]:
        """Flat fleet-level counters (O(shards), no directory scans).

        Per-shard hit/miss counters are *not* summed in: one logical
        get touches several shards, and a flat delta that double-counts
        would lie to :meth:`merge_stats` consumers.  Shard internals
        stay visible via :meth:`stats`.
        """
        out = dict(self._stats)
        out["pending_repairs"] = sum(
            len(names) for names in self._pending_repairs.values()
        )
        return out

    def merge_stats(self, counters: Mapping[str, int]) -> None:
        """Fold another handle's fleet-level counters into this one."""
        for name in self._stats:
            self._stats[name] += int(counters.get(name, 0))

    def stats(self) -> Dict[str, Any]:
        """Fleet counters + occupancy + a per-shard breakdown."""
        per_shard = {name: s.stats() for name, s in self._shards.items()}
        return dict(
            self.counters(),
            shards=per_shard,
            entries=len(self),
            bytes=sum(s["bytes"] for s in per_shard.values()),
            evictions=sum(s["evictions"] for s in per_shard.values()),
            quarantined=sum(s["quarantined"] for s in per_shard.values()),
        )

    def verify(self) -> Dict[str, Any]:
        """Per-shard integrity scan plus a replication scrub.

        The per-shard half settles journals and quarantines torn
        objects exactly like a standalone store's :meth:`verify`; the
        scrub half then re-replicates under-replicated digests and
        settles divergence (see :func:`rebalance`).
        """
        shards_report = {
            name: store.verify() for name, store in self._shards.items()
        }
        scrub = rebalance(self._root, store=self)
        return {
            "entries": len(self),
            "checked": sum(r["checked"] for r in shards_report.values()),
            "quarantined_now": sum(
                r["quarantined_now"] for r in shards_report.values()
            ),
            "rolled_forward": sum(
                r["rolled_forward"] for r in shards_report.values()
            ),
            "discarded": sum(r["discarded"] for r in shards_report.values()),
            "shards": shards_report,
            "scrub": scrub,
        }


def rebalance(
    root: os.PathLike,
    shards: Optional[int] = None,
    replicas: Optional[int] = None,
    prune: bool = True,
    store: Optional[ShardedResultStore] = None,
) -> Dict[str, int]:
    """Re-replicate every object to its owners (optionally re-ringing).

    Walks every ``shard-*`` directory under ``root`` (including shards
    no longer in the manifest, so shrinking drains the orphans), and for
    every digest found anywhere:

    1. settles **divergence**: among parseable copies, the one held by
       the highest-ranked owner wins; disagreeing copies are overwritten
       (``divergent_healed`` counts digests, not copies);
    2. copies the winner to every owner lacking it (``replicated``);
    3. with ``prune`` (the default), drops copies from shards that do
       not own the digest (``pruned``) -- what actually *moves* data
       after a topology change.

    Passing ``shards``/``replicas`` rewrites the manifest first: this is
    the one sanctioned way to change fleet topology.  ``store`` reuses
    an already-open handle (same topology only).
    """
    root = Path(root)
    manifest = read_manifest(root)
    if manifest is None:
        raise ValueError(f"{root} is not a fleet store (no {FLEET_MANIFEST})")
    if shards is not None or replicas is not None:
        if store is not None:
            raise ValueError("pass either store= or a new topology, not both")
        manifest["shards"] = int(shards if shards is not None else manifest["shards"])
        manifest["replicas"] = int(
            replicas if replicas is not None else manifest["replicas"]
        )
        if manifest["shards"] < 1 or manifest["replicas"] < 1:
            raise ValueError("shards and replicas must be >= 1")
        write_manifest(root, **manifest)
    if store is None:
        store = ShardedResultStore(root)

    # Every shard directory on disk, manifest or not: orphans created by
    # a shrink still hold data that must be drained into the new ring.
    extra: Dict[str, ResultStore] = {}
    for path in sorted(root.glob("shard-*")):
        if path.is_dir() and path.name not in store.ring.shards:
            extra[path.name] = ResultStore(path)
    holders = dict(store._shards, **extra)

    everything: Set[str] = set()
    for handle in holders.values():
        everything.update(handle.digests())

    report = {
        "objects": len(everything),
        "replicated": 0,
        "pruned": 0,
        "divergent_healed": 0,
        "unreadable": 0,
    }
    for digest in sorted(everything):
        owners = store.owners(digest)
        copies: Dict[str, Optional[Dict[str, Any]]] = {
            name: handle.get(digest)
            for name, handle in holders.items()
            if handle.contains(digest)
        }
        winner: Optional[Dict[str, Any]] = None
        for name in owners:  # highest-ranked owner's copy wins ...
            if copies.get(name) is not None:
                winner = copies[name]
                break
        if winner is None:  # ... else any surviving copy (lost shard)
            winner = next((d for d in copies.values() if d is not None), None)
        if winner is None:
            report["unreadable"] += 1
            continue
        if any(
            copies.get(name) is not None and copies[name] != winner
            for name in copies
        ):
            report["divergent_healed"] += 1
        for name in owners:
            if copies.get(name) != winner:
                store._shards[name].put(digest, winner)
                if copies.get(name) is None:
                    report["replicated"] += 1
        if prune:
            for name, handle in holders.items():
                if name not in owners and name in copies:
                    handle.discard(digest)
                    report["pruned"] += 1
    for handle in holders.values():
        handle.flush()
    return report
