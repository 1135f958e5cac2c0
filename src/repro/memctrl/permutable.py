"""The vault controllers' shuffle completion protocol (paper section 5.4).

During an operator's partitioning phase the software brackets its
shuffle in ``shuffle_begin`` / ``shuffle_end``.  Permutable writes
(section 5.3: marked stores appended to the destination buffer's
sequential tail, whatever address they carried) are priced by
:class:`~repro.shuffle.engine.ShuffleEngine`; this module holds only the
barrier that tells a compute unit the shuffle has finished.

:class:`ShuffleBarrier` models that protocol: during ``shuffle_begin``
every source announces how many bytes it will send to each destination
(information produced by the histogram step); a vault controller that
has received everything it expects raises its bit in the MSI interrupt
vector of every compute unit; compute units resume when all bits are
set.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


class ShuffleBarrier:
    """The shuffle_begin / shuffle_end completion protocol (section 5.4).

    ``announce_all`` posts the whole ``(source, destination)`` byte
    matrix at once; its column sums are each vault's expected total.
    Deliveries are a per-vault byte count, retired for every vault in
    one :meth:`deliver_all` or one destination at a time with
    :meth:`deliver` (a fault replay's per-stream path).
    ``completion_vector`` mirrors the controllers' MSI broadcasts, and
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

    def all_complete(self) -> bool:
        """shuffle_end unblocks when every vault's MSI bit is set."""
        return self._sealed and bool(np.array_equal(self._delivered, self._expected))

    def completion_vector(self) -> Tuple[bool, ...]:
        """The per-vault interrupt vector a compute unit observes."""
        return tuple((self._sealed & (self._delivered == self._expected)).tolist())

    def _check_vault(self, vault: int) -> None:
        if not 0 <= vault < self._num_vaults:
            raise ValueError(f"vault {vault} out of range [0, {self._num_vaults})")
