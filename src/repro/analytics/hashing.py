"""Key hashing used by the operators.

Three functions matching the paper's descriptions (section 6):

- **Low-order-bit bucketing** for Join/Group-by partitioning ("the hash
  function uses a number of the key's bits to determine each tuple's
  destination partition"; the CPU code uses 16 low bits, the NMP systems
  six bits matching the 64 vaults).
- **High-order-bit bucketing** for Sort partitioning, producing range
  partitions whose keys are strictly ordered across partitions.
- **Multiplicative hashing** for the probe phase's hash-table build.

It also holds the two constants of the linear-probing tables' layout
(:data:`EMPTY_KEY`, :func:`next_pow2`), so the scalar and segmented
tables share them without importing each other.
"""

from __future__ import annotations

import numpy as np

#: Knuth's multiplicative constant (golden-ratio) for 64-bit keys.
_MULT_CONST = np.uint64(0x9E3779B97F4A7C15)
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


def bucket_of_high_bits(
    keys: np.ndarray, num_bits: int, key_space_bits: int = _KEY_BITS
) -> np.ndarray:
    """Range-partition id from the high-order bits of the key.

    ``key_space_bits`` bounds the keys actually used (workloads draw keys
    below ``2**key_space_bits``); taking the top ``num_bits`` of that
    space yields partitions holding strictly disjoint key ranges -- the
    property the Sort operator's partitioning needs.
    """
    if not 1 <= num_bits <= key_space_bits <= _KEY_BITS:
        raise ValueError("need 1 <= num_bits <= key_space_bits <= 64")
    keys = np.asarray(keys, dtype=np.uint64)
    shift = np.uint64(key_space_bits - num_bits)
    return (keys >> shift).astype(np.int64)


def multiplicative_hash(keys: np.ndarray, num_bits: int) -> np.ndarray:
    """Knuth multiplicative hash to ``num_bits``-bit slot indices."""
    if not 1 <= num_bits < _KEY_BITS:
        raise ValueError("num_bits must be in [1, 63]")
    keys = np.asarray(keys, dtype=np.uint64)
    with np.errstate(over="ignore"):
        mixed = keys * _MULT_CONST
    shift = np.uint64(_KEY_BITS - num_bits)
    return (mixed >> shift).astype(np.int64)


def hash_table_slot(keys: np.ndarray, table_size: int) -> np.ndarray:
    """Slot index in a power-of-two hash table."""
    if table_size <= 0 or table_size & (table_size - 1):
        raise ValueError("table_size must be a positive power of two")
    num_bits = table_size.bit_length() - 1
    if num_bits == 0:
        return np.zeros(len(np.atleast_1d(keys)), dtype=np.int64)
    return multiplicative_hash(keys, num_bits)
