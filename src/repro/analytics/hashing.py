"""Key hashing used by the operators.

The two hashes match the paper's descriptions (section 6):

- **Low-order-bit bucketing** for Join/Group-by partitioning ("the hash
  function uses a number of the key's bits to determine each tuple's
  destination partition"; the CPU code uses 16 low bits, the NMP systems
  six bits matching the 64 vaults).  Sort's order-preserving high-order
  bit scheme maps key ranges to partitions directly in
  :func:`repro.operators.partition.destination_map`.
- **Multiplicative hashing** (:data:`HASH_MULTIPLIER`) for the probe
  phase's hash-table build.

With :data:`EMPTY_KEY` and :func:`next_pow2` that is the layout of the
linear-probing tables: the production :mod:`repro.columnar.hashtable`
and its test oracle :mod:`repro.operators.hashtable` share it without
importing each other.
"""

from __future__ import annotations

import numpy as np

#: Knuth's multiplicative constant (golden-ratio) for 64-bit keys: a
#: hash table of ``2**b`` slots puts a key in the top ``b`` bits of
#: ``key * HASH_MULTIPLIER``.
HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)
_KEY_BITS = 64

#: Hash-table sentinel for an empty slot.  Workload keys are drawn from a
#: bounded key space (default 48 bits), so the all-ones key cannot occur.
EMPTY_KEY = np.uint64(0xFFFFFFFFFFFFFFFF)


def next_pow2(n: int) -> int:
    """Smallest power of two >= ``n`` (1 for ``n <= 1``)."""
    return 1 if n <= 1 else 1 << (n - 1).bit_length()


def bucket_of_low_bits(keys: np.ndarray, num_bits: int) -> np.ndarray:
    """Partition id from the ``num_bits`` low-order key bits."""
    if not 1 <= num_bits < _KEY_BITS:
        raise ValueError("num_bits must be in [1, 63]")
    keys = np.asarray(keys, dtype=np.uint64)
    mask = np.uint64((1 << num_bits) - 1)
    return (keys & mask).astype(np.int64)
