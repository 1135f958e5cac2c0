"""Permutable-write support in the vault controller (paper sections 5.3-5.4).

During an operator's partitioning phase the software brackets its
shuffle in ``shuffle_begin`` / ``shuffle_end``.  The CPU configures each
vault controller with a destination buffer (base physical address, size,
object size) through memory-mapped registers; every write request marked
*permutable* that falls into the region is then appended to the buffer's
sequential tail, regardless of the address it carried.  This converts the
random interleaved arrival order of figure 2 into one sequential stream,
activating every DRAM row exactly once.

Correctness rests on the permutability property: the destination region
is a hash-bucket-like heap, so any arrival order is acceptable.  The
engine preserves the *multiset* of delivered objects (property-tested in
the suite) while renouncing any particular order.

:class:`ShuffleBarrier` models the completion protocol: during
``shuffle_begin`` every source announces how many bytes it will send to
each destination (information produced by the histogram step); a vault
controller that has received everything it expects raises its bit in the
MSI interrupt vector of every compute unit; compute units resume when all
bits are set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class PermutableRegionConfig:
    """Destination-buffer configuration written by the CPU at setup.

    ``object_b`` is the permutability granularity: the controller only
    permutes whole objects, never bytes within one (section 5.3), so the
    object size must not exceed the 256 B object-buffer/HMC message limit.
    """

    base: int
    size_b: int
    object_b: int
    max_object_b: int = 256

    def __post_init__(self) -> None:
        if self.size_b <= 0 or self.object_b <= 0:
            raise ValueError("region and object sizes must be positive")
        if self.object_b > self.max_object_b:
            raise ValueError(
                f"objects of {self.object_b} B exceed the {self.max_object_b} B "
                "message limit; objects that large already exploit row locality "
                "without permutation (paper section 5.3)"
            )
        if self.size_b % self.object_b:
            raise ValueError("region size must hold a whole number of objects")

    @property
    def capacity_objects(self) -> int:
        return self.size_b // self.object_b

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.base + self.size_b


class PermutableWriteEngine:
    """Sequential-tail write redirection for one vault controller.

    The engine is functional: it stores the delivered objects (opaque
    payloads) in arrival order so operators can read back exactly what the
    hardware would have materialized.  It also counts the writes the
    energy/performance models charge.
    """

    def __init__(self, config: PermutableRegionConfig) -> None:
        self._config = config
        self._objects: List[object] = []
        self._overflowed = False

    @property
    def config(self) -> PermutableRegionConfig:
        return self._config

    @property
    def objects_written(self) -> int:
        return len(self._objects)

    @property
    def bytes_written(self) -> int:
        return len(self._objects) * self._config.object_b

    @property
    def next_tail_addr(self) -> int:
        """Physical address the next arriving object will be written to."""
        return self._config.base + self.bytes_written

    @property
    def overflowed(self) -> bool:
        """True if a write arrived after the buffer filled.

        The paper handles this by raising an exception to the CPU, which
        re-runs the histogram with two-round partitioning; we surface the
        flag so callers can model that retry.
        """
        return self._overflowed

    def write(self, payload: object, marked_addr: Optional[int] = None) -> int:
        """Deliver one permutable object; returns the address it landed at.

        ``marked_addr`` is the address the request carried; it is ignored
        for placement (that is the whole point) but validated to be inside
        the configured region when provided, since the controller only
        treats stores *into the permutable region* as permutable.
        """
        if marked_addr is not None and not self._config.contains(marked_addr):
            raise ValueError(
                f"permutable store to {marked_addr:#x} misses the region "
                f"[{self._config.base:#x}, {self._config.base + self._config.size_b:#x})"
            )
        if len(self._objects) >= self._config.capacity_objects:
            self._overflowed = True
            raise MemoryError(
                "permutable destination buffer overflow; the CPU must retry "
                "the histogram with two-round partitioning (paper section 5.4)"
            )
        addr = self.next_tail_addr
        self._objects.append(payload)
        return addr

    def drain(self) -> List[object]:
        """Objects in the order the hardware materialized them."""
        return list(self._objects)


class ShuffleBarrier:
    """The shuffle_begin / shuffle_end completion protocol (section 5.4).

    Announcements live in one ``(source, destination)`` byte matrix plus
    a mask of the pairs already posted; deliveries are a per-vault byte
    count.  ``vault_complete`` mirrors the controller's MSI broadcast,
    and ``all_complete`` is the condition on which every compute unit's
    interrupt vector unblocks.
    """

    def __init__(self, num_vaults: int) -> None:
        if num_vaults < 1:
            raise ValueError("need at least one vault")
        self._num_vaults = num_vaults
        # announced[src, dest] = bytes src will send to dest
        self._announced = np.zeros((num_vaults, num_vaults), dtype=np.int64)
        self._posted = np.zeros((num_vaults, num_vaults), dtype=bool)
        self._delivered: List[int] = [0] * num_vaults
        self._sealed = False
        # Per-vault totals, frozen at seal() so the deliver hot path is
        # O(1) instead of re-summing a matrix column per call.
        self._expected: Optional[List[int]] = None

    @property
    def num_vaults(self) -> int:
        return self._num_vaults

    def announce(self, src: int, dest: int, size_b: int) -> None:
        """shuffle_begin step 1: a source posts its per-destination total."""
        if self._sealed:
            raise RuntimeError("cannot announce after the barrier is sealed")
        if size_b < 0:
            raise ValueError("announced size must be non-negative")
        self._check_vault(src)
        self._check_vault(dest)
        if self._posted[src, dest]:
            raise ValueError(f"source {src} already announced to vault {dest}")
        self._announced[src, dest] = size_b
        self._posted[src, dest] = True

    def announce_all(self, sizes_b: np.ndarray) -> None:
        """Bulk shuffle_begin: one call covering every (src, dest) pair.

        Equivalent to ``announce(src, dest, sizes_b[src, dest])`` for
        every pair: one block assignment into the announcement matrix
        instead of ``sources x destinations`` method calls.
        """
        if self._sealed:
            raise RuntimeError("cannot announce after the barrier is sealed")
        sizes = np.asarray(sizes_b)
        if sizes.ndim != 2:
            raise ValueError("sizes_b must be a (sources, destinations) matrix")
        num_src, num_dest = sizes.shape
        if num_src > self._num_vaults or num_dest > self._num_vaults:
            raise ValueError("announcement matrix exceeds the vault count")
        if num_src and num_dest and int(sizes.min()) < 0:
            raise ValueError("announced size must be non-negative")
        posted = self._posted[:num_src, :num_dest]
        if posted.any():
            # Name the first clash in (dest, src) order, as per-pair
            # announcements walking each destination's sources would.
            dest, src = np.argwhere(posted.T)[0].tolist()
            raise ValueError(f"source {src} already announced to vault {dest}")
        self._announced[:num_src, :num_dest] = sizes
        posted[:] = True

    def seal(self) -> None:
        """shuffle_begin step 2: all announcements exchanged; totals fixed.

        Freezes the per-vault expected totals: announcements are rejected
        after sealing, so the sums can never go stale.
        """
        self._sealed = True
        self._expected = self._announced.sum(axis=0).tolist()

    def expected_bytes(self, dest: int) -> int:
        self._check_vault(dest)
        if self._expected is not None:
            return self._expected[dest]
        return int(self._announced[:, dest].sum())

    def deliver(self, dest: int, size_b: int) -> None:
        """Record bytes arriving at a destination vault controller."""
        if not self._sealed:
            raise RuntimeError("barrier must be sealed before deliveries")
        self._check_vault(dest)
        if size_b < 0:
            raise ValueError("delivered size must be non-negative")
        self._delivered[dest] += size_b
        if self._delivered[dest] > self._expected[dest]:
            raise ValueError(
                f"vault {dest} received {self._delivered[dest]} bytes, more "
                f"than the announced {self._expected[dest]}"
            )

    def vault_complete(self, dest: int) -> bool:
        """Would vault ``dest`` have sent its MSI by now?"""
        self._check_vault(dest)
        return self._sealed and self._delivered[dest] == self._expected[dest]

    def all_complete(self) -> bool:
        """shuffle_end unblocks when every vault's MSI bit is set."""
        return self._sealed and self._delivered == self._expected

    def completion_vector(self) -> Tuple[bool, ...]:
        """The per-vault interrupt vector a compute unit observes."""
        return tuple(self.vault_complete(v) for v in range(self._num_vaults))

    def _check_vault(self, vault: int) -> None:
        if not 0 <= vault < self._num_vaults:
            raise ValueError(f"vault {vault} out of range [0, {self._num_vaults})")
