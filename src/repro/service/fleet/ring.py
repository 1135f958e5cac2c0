"""Consistent hashing over content-addressed digests.

The fleet places every stored object on ``replicas`` of ``N`` shards.
Placement must be (a) deterministic from the digest alone, so any
process -- member daemon, router, rebalance CLI -- computes the same
owners without coordination, and (b) *stable under membership change*:
growing or shrinking the fleet by one shard may only move ~1/N of the
keys, or every topology change would invalidate the whole store.

Classic consistent hashing delivers both: each shard projects
``vnodes`` points onto a 64-bit ring (SHA-256 of ``"name#i"``), a key
hashes to its own point (the store digests *are* SHA-256 hex, so the
leading 16 hex digits are already uniform), and the owners are the
first ``replicas`` **distinct** shards walking clockwise from the key's
point.  Virtual nodes smooth the load split; the distinct-walk
guarantees a replica set never collapses onto one shard while the
fleet has two or more (both property-tested in ``tests/test_fleet.py``).
"""

from __future__ import annotations

import bisect
import hashlib
from typing import List, Sequence, Tuple

#: Virtual nodes per shard: enough to keep the per-shard key share
#: within a few percent of 1/N at fleet sizes this repo runs (2..16).
DEFAULT_VNODES = 64


def shard_name(index: int) -> str:
    """The canonical shard directory name for slot ``index``."""
    return f"shard-{index:02d}"


def _point(token: str) -> int:
    """A 64-bit ring position for an arbitrary token."""
    return int.from_bytes(
        hashlib.sha256(token.encode("utf-8")).digest()[:8], "big"
    )


class HashRing:
    """``replicas``-way consistent placement of digests over shards."""

    def __init__(
        self,
        shards: Sequence[str],
        replicas: int = 2,
        vnodes: int = DEFAULT_VNODES,
    ) -> None:
        shards = list(shards)
        if not shards:
            raise ValueError("a ring needs at least one shard")
        if len(set(shards)) != len(shards):
            raise ValueError(f"duplicate shard names: {shards}")
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.shards: Tuple[str, ...] = tuple(shards)
        # More replicas than shards cannot place distinctly; clamp so a
        # 2-replica fleet degraded to one shard keeps working.
        self.replicas = min(replicas, len(shards))
        self.vnodes = vnodes
        points: List[Tuple[int, str]] = []
        for name in self.shards:
            for v in range(vnodes):
                points.append((_point(f"{name}#{v}"), name))
        # SHA-256 collisions on 64-bit prefixes are unobservable, but a
        # deterministic tiebreak keeps the ring identical everywhere.
        points.sort()
        self._points = [p for p, _ in points]
        self._owners_at = [name for _, name in points]

    @staticmethod
    def key_point(digest: str) -> int:
        """Ring position of a store digest (already-uniform SHA-256 hex)."""
        return int(digest[:16], 16)

    def owners(self, digest: str) -> List[str]:
        """The ``replicas`` distinct shards owning ``digest``, in rank order.

        The first entry is the **primary** owner; later entries are the
        replicas a reader falls back to and a hedged request targets.
        """
        start = bisect.bisect_right(self._points, self.key_point(digest))
        owners: List[str] = []
        seen = set()
        n = len(self._points)
        for step in range(n):
            name = self._owners_at[(start + step) % n]
            if name not in seen:
                seen.add(name)
                owners.append(name)
                if len(owners) == self.replicas:
                    break
        return owners

    def __repr__(self) -> str:
        return (
            f"HashRing({len(self.shards)} shards, replicas={self.replicas}, "
            f"vnodes={self.vnodes})"
        )
