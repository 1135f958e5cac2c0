"""Relations as numpy structured arrays of 16-byte key/payload tuples."""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

KEY_B = 8
PAYLOAD_B = 8
TUPLE_B = KEY_B + PAYLOAD_B

#: dtype of one tuple: 8-byte unsigned key, 8-byte unsigned payload.
TUPLE_DTYPE = np.dtype([("key", np.uint64), ("payload", np.uint64)])


class Relation:
    """A columnar relation of (key, payload) tuples.

    Thin, explicit wrapper over a structured array; all operators consume
    and produce Relations so data provenance stays obvious.
    """

    def __init__(self, data: np.ndarray, name: str = "relation") -> None:
        if data.dtype != TUPLE_DTYPE:
            raise TypeError(f"relation data must have dtype {TUPLE_DTYPE}, got {data.dtype}")
        if data.ndim != 1:
            raise ValueError("relation data must be one-dimensional")
        self._data = data
        self.name = name

    # -- construction ---------------------------------------------------

    @classmethod
    def from_arrays(
        cls, keys: np.ndarray, payloads: np.ndarray, name: str = "relation"
    ) -> "Relation":
        keys = np.asarray(keys, dtype=np.uint64)
        payloads = np.asarray(payloads, dtype=np.uint64)
        if keys.shape != payloads.shape:
            raise ValueError("keys and payloads must have equal length")
        data = np.empty(keys.shape[0], dtype=TUPLE_DTYPE)
        data["key"] = keys
        data["payload"] = payloads
        return cls(data, name)

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[int, int]], name: str = "relation") -> "Relation":
        pairs = list(pairs)
        keys = np.array([k for k, _ in pairs], dtype=np.uint64)
        payloads = np.array([p for _, p in pairs], dtype=np.uint64)
        return cls.from_arrays(keys, payloads, name)

    @classmethod
    def empty(cls, name: str = "relation") -> "Relation":
        return cls(np.empty(0, dtype=TUPLE_DTYPE), name)

    # -- views ------------------------------------------------------------

    @property
    def keys(self) -> np.ndarray:
        return self._data["key"]

    @property
    def payloads(self) -> np.ndarray:
        return self._data["payload"]

    @property
    def data(self) -> np.ndarray:
        return self._data

    def __len__(self) -> int:
        return len(self._data)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return np.array_equal(self._data, other._data)

    def __repr__(self) -> str:
        return f"Relation({self.name!r}, n={len(self)})"

    # -- transformations --------------------------------------------------

    def take(self, indices: np.ndarray) -> "Relation":
        return Relation(self._data[indices], self.name)

    def sorted_by_key(self) -> "Relation":
        # Imported here: the columnar package imports this module.
        from repro.columnar.kernels import stable_argsort

        order = stable_argsort(self.keys)
        return self.take(order)

    def is_sorted(self) -> bool:
        keys = self.keys
        return bool(np.all(keys[:-1] <= keys[1:])) if len(keys) > 1 else True

    def multiset_equal(self, other: "Relation") -> bool:
        """Order-insensitive equality -- the permutability correctness
        criterion (same tuples, any arrangement).

        When the widest key and the widest payload of both sides fit one
        word together (``key_bits + payload_bits <= 64``), each tuple is
        coded as ``(key << payload_bits) | payload`` -- an injective
        code, so equal sorted codes mean equal multisets -- and the two
        sides' codes are compared after one SIMD value sort each
        (``uint32`` when 32 bits hold them).  Wider tuples are brought
        to (key, payload) order by sorting the columns (a
        structured-dtype ``np.sort(order=...)`` would re-promote the
        tuple dtype on every call) and compared column-wise.
        """
        if len(self) != len(other):
            return False
        if len(self) == 0:
            return True
        key_bits = max(int(self.keys.max()), int(other.keys.max())).bit_length()
        payload_bits = max(
            int(self.payloads.max()), int(other.payloads.max())
        ).bit_length()
        if key_bits + payload_bits <= 64:
            # Imported here: the columnar package imports this module.
            from repro.columnar.kernels import word_dtype

            dtype = word_dtype(key_bits + payload_bits)
            return np.array_equal(
                _sorted_codes(self, payload_bits, dtype),
                _sorted_codes(other, payload_bits, dtype),
            )
        mine, theirs = _key_payload_order(self), _key_payload_order(other)
        return np.array_equal(self.keys[mine], other.keys[theirs]) and np.array_equal(
            self.payloads[mine], other.payloads[theirs]
        )


def _sorted_codes(rel: Relation, payload_bits: int, dtype: type) -> np.ndarray:
    """``rel``'s ``(key << payload_bits) | payload`` codes as sorted
    ``dtype`` words; every key and payload must fit its field."""
    codes = rel.payloads.astype(dtype)
    if payload_bits < 8 * codes.itemsize:  # else every key is zero
        codes |= rel.keys.astype(dtype) << dtype(payload_bits)
    codes.sort()
    return codes


def _key_payload_order(rel: Relation) -> np.ndarray:
    """A permutation listing ``rel``'s tuples in (key, payload) order.

    A sort by payload, then a stable sort by key: the gathered columns
    equal those of ``np.lexsort((payloads, keys))``.  Tuples that tie on
    both fields are identical, so the first sort need not be stable.
    """
    # Imported here: the columnar package imports this module.
    from repro.columnar.kernels import stable_argsort

    order = np.argsort(rel.payloads)
    return order[stable_argsort(rel.keys[order])]
