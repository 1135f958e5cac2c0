"""Content-addressed persistent result store.

A :class:`ResultStore` maps a **digest** -- the SHA-256 of a canonical
JSON *key payload* -- to one JSON document on disk.  The key payload
spells out everything the stored bytes depend on (system spec, workload
kind/params/seed, model scale, plus the :data:`CODE_VERSION` salt), so
equal inputs hit the same entry from any process on the machine and a
cost-model change invalidates every old entry at once instead of
serving stale numbers.

Layout under the store root::

    <root>/
      objects/<dd>/<digest>.json   # one JSON document per entry
      journal/<digest>.<pid>.json  # write-ahead intents (in-flight puts)
      quarantine/<digest>.json     # corrupt entries, preserved not served

The objects tree is the whole state: there is no index, so every
handle on a directory sees the same entries, and an ``index.json`` left
by an older store is ignored.

Design points:

- **Atomic, durable writes.**  Every object is written to a
  same-directory temporary file and ``os.replace``d into place, so a
  reader never observes a half-written entry and two concurrent
  writers of the same digest leave one intact winner (last writer
  wins; the content is identical by construction anyway).  With
  ``fsync`` enabled (the default), the temp file is fsynced *before*
  the rename and the directory after it, so a committed entry survives
  power loss; ``fsync=False`` (or ``REPRO_STORE_FSYNC=0``) is the fast
  path for tests and throwaway stores.
- **Journaled puts.**  Each object write is preceded by a write-ahead
  intent record (:class:`~repro.service.resilience.journal.IntentJournal`).
  Opening a store runs a **recovery scan**: interrupted puts are rolled
  forward (a complete temp file is renamed into place) or discarded
  (debris deleted); counts surface in :meth:`ResultStore.stats` as
  ``recovered_forward`` / ``recovered_discarded``.
- **Corruption tolerance.**  An entry that fails to parse (truncated,
  overwritten, hand-edited) is treated as a *miss* and **quarantined**
  -- moved to ``quarantine/``, never served, never silently destroyed
  (the bytes stay available for post-mortems); the ``quarantined``
  counter surfaces in ``stats``.
- **Stats.**  ``hits`` / ``misses`` / ``puts`` counters per store
  handle, surfaced by ``cache_stats()`` in the experiments layer, the
  ``stats`` verb of the serving daemon, and the CLIs; ``entries`` and
  ``bytes`` are counted from the objects tree.

The store knows nothing about what it holds: callers bring their own
codec (see :mod:`repro.service.codec` for ``SystemResult`` documents).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import threading
from pathlib import Path
from typing import Any, Dict, Iterator, Mapping, Optional

from repro.service.resilience.journal import IntentJournal, fsync_dir

#: Environment switch for the durability fast path: ``0`` disables the
#: fsync-before-rename discipline process-wide (tests, scratch stores).
FSYNC_ENV = "REPRO_STORE_FSYNC"

#: Salt folded into every digest.  Bump when the cost model or the
#: stored document schema changes meaning: old entries then simply stop
#: matching instead of replaying outdated results.
CODE_VERSION = "mondrian-store-v1"


def canonical_json(payload: Mapping[str, Any]) -> str:
    """The canonical text form a digest is computed over.

    Keys are sorted recursively and separators are fixed, so two dicts
    with equal content -- whatever their insertion order -- serialize to
    identical bytes (pinned by tests).
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest_payload(payload: Mapping[str, Any]) -> str:
    """Content address of a key payload: SHA-256 over canonical JSON."""
    text = canonical_json({"code_version": CODE_VERSION, **payload})
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _default_fsync() -> bool:
    return os.environ.get(FSYNC_ENV, "1") != "0"


def _parses_as_json(path: Path) -> bool:
    """Is this file a complete JSON document? (The journal's validator.)"""
    try:
        json.loads(path.read_bytes())
        return True
    except (OSError, ValueError):
        return False


def open_store(root: os.PathLike):
    """Open the store at ``root``, fleet-aware.

    A directory carrying a ``fleet.json`` manifest opens as a
    :class:`~repro.service.fleet.sharded.ShardedResultStore` (N shards,
    R replicas, read-repair); anything else opens as a plain
    :class:`ResultStore`.  Every path-based entry point -- ``--store``
    flags, ``REPRO_STORE``, worker store propagation, ``recover`` --
    routes through here, so a fleet root is a drop-in store directory.
    """
    if os.path.isfile(os.path.join(os.fspath(root), "fleet.json")):
        from repro.service.fleet.sharded import ShardedResultStore

        return ShardedResultStore(root)
    return ResultStore(root)


class ResultStore:
    """A content-addressed, on-disk JSON document store."""

    def __init__(self, root: os.PathLike, fsync: Optional[bool] = None) -> None:
        self._root = Path(root)
        self._objects = self._root / "objects"
        self._quarantine_dir = self._root / "quarantine"
        self._fsync = _default_fsync() if fsync is None else bool(fsync)
        self._stats = {
            "hits": 0,
            "misses": 0,
            "puts": 0,
            "quarantined": 0,
            "recovered_forward": 0,
            "recovered_discarded": 0,
        }
        self._objects.mkdir(parents=True, exist_ok=True)
        # One handle may be shared across threads (the daemon answers
        # read verbs while a batch writes); every counter update takes
        # this lock, so the counters never tear.
        self._lock = threading.RLock()
        self._journal = IntentJournal(self._root, fsync=self._fsync)
        self._recover()

    def _recover(self) -> None:
        """Startup recovery scan: settle every surviving write intent."""
        counts = self._journal.recover(
            validate=_parses_as_json, quarantine=self._quarantine
        )
        self._stats["recovered_forward"] += counts["rolled_forward"]
        self._stats["recovered_discarded"] += counts["discarded"]

    # -- identity ------------------------------------------------------------

    @property
    def root(self) -> Path:
        return self._root

    def __len__(self) -> int:
        return len(self._sizes())

    def __repr__(self) -> str:
        return f"ResultStore({str(self._root)!r}, {len(self)} entries)"

    def _object_path(self, digest: str) -> Path:
        return self._objects / digest[:2] / f"{digest}.json"

    def _sizes(self) -> Dict[str, int]:
        """Digest -> size in bytes of every object on disk (one scan)."""
        sizes = {}
        for path in self._objects.glob("*/*.json"):
            try:
                sizes[path.stem] = path.stat().st_size
            except OSError:
                continue  # removed mid-scan (discard, quarantine)
        return sizes

    # -- the store protocol --------------------------------------------------

    def contains(self, digest: str) -> bool:
        """Probe for an entry without touching stats."""
        return self._object_path(digest).is_file()

    def get(self, digest: str) -> Optional[Dict[str, Any]]:
        """The stored document, or ``None`` on a miss.

        A present-but-unparseable entry (truncated write from a killed
        process, manual corruption) counts as a miss and is quarantined
        so the next put can heal it.
        """
        path = self._object_path(digest)
        try:
            document = json.loads(path.read_bytes())
        except FileNotFoundError:
            with self._lock:
                self._stats["misses"] += 1
            return None
        except (OSError, ValueError):
            # Never serve a torn entry -- and never silently destroy it
            # either: quarantine preserves the bytes for post-mortems
            # while the next put heals the slot.
            with self._lock:
                self._stats["misses"] += 1
                self._quarantine(path)
            return None
        with self._lock:
            self._stats["hits"] += 1
        return document

    def put(self, digest: str, document: Mapping[str, Any]) -> Path:
        """Store one JSON document under its digest (idempotent).

        The write is **journaled**: an intent record naming the temp and
        final paths is persisted first, so a ``kill -9`` anywhere inside
        the put is settled by the next open's recovery scan -- rolled
        forward if the temp file was complete, discarded otherwise.
        The temp name carries the pid, so concurrent writers of the
        same digest never share (or tear) a temp file.
        """
        path = self._object_path(digest)
        text = json.dumps(document, sort_keys=True)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f".{digest}.{os.getpid()}.tmp"
        with self._journal.intent(digest, final=path, tmp=tmp):
            try:
                with open(tmp, "w") as fh:
                    fh.write(text)
                    if self._fsync:
                        fh.flush()
                        os.fsync(fh.fileno())
                os.replace(tmp, path)
                if self._fsync:
                    fsync_dir(path.parent)
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
                raise
        with self._lock:
            self._stats["puts"] += 1
        return path

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt object aside where it can never be served."""
        self._quarantine_dir.mkdir(parents=True, exist_ok=True)
        try:
            os.replace(path, self._quarantine_dir / path.name)
        except OSError:
            with contextlib.suppress(OSError):
                path.unlink()
        self._stats["quarantined"] += 1

    def discard(self, digest: str) -> None:
        """Remove one entry outright (fleet rebalance pruning).

        Unlike quarantine this *is* destruction -- only callers that
        hold (or just wrote) another replica of the digest use it.
        """
        with contextlib.suppress(OSError):
            self._object_path(digest).unlink()

    def flush(self) -> None:
        """Nothing to do: every put is on disk when it returns."""

    # -- introspection -------------------------------------------------------

    @property
    def fsync(self) -> bool:
        return self._fsync

    def verify(self) -> Dict[str, int]:
        """Full integrity scan: settle intents, validate every object.

        Walks the whole objects tree (not just journaled paths),
        quarantines anything that fails to parse, and reports what it
        found.  This is the explicit, heavyweight counterpart of the
        automatic startup recovery scan -- the chaos harness and the
        ``recover`` CLI call it to prove no torn write can ever be
        served.
        """
        with self._lock:
            recovered = self._journal.recover(
                validate=_parses_as_json, quarantine=self._quarantine
            )
            self._stats["recovered_forward"] += recovered["rolled_forward"]
            self._stats["recovered_discarded"] += recovered["discarded"]
            checked = corrupt = 0
            for path in sorted(self._objects.glob("*/*.json")):
                checked += 1
                if not _parses_as_json(path):
                    self._quarantine(path)
                    corrupt += 1
            debris = 0
            for tmp in self._objects.glob("*/.*.tmp"):
                # Unjournaled leftovers (pre-journal stores): plain
                # debris, safe to delete.
                with contextlib.suppress(OSError):
                    tmp.unlink()
                    debris += 1
            return {
                "checked": checked,
                "quarantined_now": corrupt,
                "quarantined_total": self._stats["quarantined"],
                "rolled_forward": self._stats["recovered_forward"],
                "discarded": self._stats["recovered_discarded"],
                "debris_removed": debris,
                "entries": len(self._sizes()),
            }

    def digests(self) -> Iterator[str]:
        """Digests of every object on disk, sorted."""
        return iter(sorted(self._sizes()))

    def merge_stats(self, counters: Mapping[str, int]) -> None:
        """Fold another handle's counters into this one.

        The process-pool runtime evaluates in workers, each with its own
        handle on the same directory; merging their counters back gives
        the parent the true traffic totals of the run.
        """
        with self._lock:
            for name in self._stats:
                self._stats[name] += int(counters.get(name, 0))

    def counters(self) -> Dict[str, int]:
        """Just the hit/miss/put counters -- O(1), no I/O.

        For hot paths (per-task worker deltas, health checks) that must
        not pay :meth:`stats`'s objects-tree scan.
        """
        with self._lock:
            return dict(self._stats)

    def stats(self) -> Dict[str, int]:
        """Hit/miss/put counters plus current occupancy.

        Occupancy is counted from the objects tree (an O(entries)
        directory scan, outside the lock), so entries other processes
        (pool workers, concurrent CLIs) wrote are counted; use
        :meth:`counters` where occupancy is not needed.
        """
        return self._stats_of(self._sizes())

    def _stats_of(self, sizes: Mapping[str, int]) -> Dict[str, int]:
        """The :meth:`stats` dict for one :meth:`_sizes` scan (a fleet
        store reuses its shards' scans for its own totals)."""
        return dict(self.counters(), entries=len(sizes), bytes=sum(sizes.values()))
