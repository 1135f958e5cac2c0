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

    ``announce_all`` posts the whole ``(source, destination)`` byte
    matrix at once; its column sums are each vault's expected total.
    Deliveries are a per-vault byte count, retired for every vault in
    one :meth:`deliver_all` or one destination at a time with
    :meth:`deliver` (a fault replay's per-stream path).
    ``vault_complete`` mirrors the controller's MSI broadcast, and
    ``all_complete`` is the condition on which every compute unit's
    interrupt vector unblocks.
    """

    def __init__(self, num_vaults: int) -> None:
        if num_vaults < 1:
            raise ValueError("need at least one vault")
        self._num_vaults = num_vaults
        self._expected = np.zeros(num_vaults, dtype=np.int64)
        self._delivered = np.zeros(num_vaults, dtype=np.int64)
        self._announced = False
        self._sealed = False

    @property
    def num_vaults(self) -> int:
        return self._num_vaults

    def announce_all(self, sizes_b: np.ndarray) -> None:
        """shuffle_begin step 1: every source posts its per-destination
        totals, as one ``(sources, destinations)`` byte matrix."""
        if self._sealed:
            raise RuntimeError("cannot announce after the barrier is sealed")
        if self._announced:
            raise ValueError("the sources already announced their totals")
        sizes = np.asarray(sizes_b)
        if sizes.ndim != 2:
            raise ValueError("sizes_b must be a (sources, destinations) matrix")
        num_src, num_dest = sizes.shape
        if num_src > self._num_vaults or num_dest > self._num_vaults:
            raise ValueError("announcement matrix exceeds the vault count")
        if num_src and num_dest and int(sizes.min()) < 0:
            raise ValueError("announced size must be non-negative")
        self._expected[:num_dest] = sizes.sum(axis=0)
        self._announced = True

    def seal(self) -> None:
        """shuffle_begin step 2: all announcements exchanged; totals fixed."""
        self._sealed = True

    def expected_bytes(self, dest: int) -> int:
        self._check_vault(dest)
        return int(self._expected[dest])

    def deliver(self, dest: int, size_b: int) -> None:
        """Record bytes arriving at one destination vault controller."""
        self._check_vault(dest)
        self._record(dest, np.array([size_b], dtype=np.int64))

    def deliver_all(self, sizes_b: np.ndarray) -> None:
        """Record bytes arriving at every vault at once: ``sizes_b[v]``
        more bytes at vault ``v`` (a vector shorter than the vault count
        delivers nothing to the vaults past its end)."""
        sizes = np.asarray(sizes_b, dtype=np.int64)
        if sizes.ndim != 1 or len(sizes) > self._num_vaults:
            raise ValueError(
                f"delivery vector of shape {sizes.shape} does not fit "
                f"{self._num_vaults} vaults"
            )
        self._record(0, sizes)

    def _record(self, first: int, sizes: np.ndarray) -> None:
        """Add ``sizes`` to the delivered counts of the vaults from ``first``."""
        if not self._sealed:
            raise RuntimeError("barrier must be sealed before deliveries")
        if len(sizes) and int(sizes.min()) < 0:
            raise ValueError("delivered size must be non-negative")
        vaults = slice(first, first + len(sizes))
        self._delivered[vaults] += sizes
        over = np.flatnonzero(self._delivered[vaults] > self._expected[vaults])
        if len(over):
            dest = first + int(over[0])
            raise ValueError(
                f"vault {dest} received {self._delivered[dest]} bytes, more "
                f"than the announced {self._expected[dest]}"
            )

    def vault_complete(self, dest: int) -> bool:
        """Would vault ``dest`` have sent its MSI by now?"""
        self._check_vault(dest)
        return self._sealed and bool(self._delivered[dest] == self._expected[dest])

    def all_complete(self) -> bool:
        """shuffle_end unblocks when every vault's MSI bit is set."""
        return self._sealed and bool(np.array_equal(self._delivered, self._expected))

    def completion_vector(self) -> Tuple[bool, ...]:
        """The per-vault interrupt vector a compute unit observes."""
        return tuple((self._sealed & (self._delivered == self._expected)).tolist())

    def _check_vault(self, vault: int) -> None:
        if not 0 <= vault < self._num_vaults:
            raise ValueError(f"vault {vault} out of range [0, {self._num_vaults})")
