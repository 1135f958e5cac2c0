"""Typed workload families: the suite subsystem's generator layer.

Every family is a frozen dataclass that deterministically materializes
named input tables (:class:`~repro.analytics.tuples.Relation`) from a
seed -- same params + same seed = byte-identical relations in every
interpreter, which is what lets suite runs flow through the
content-addressed cache/store path (``cache_params()`` spells out the
full generator identity).  Four families cover the workload axes the
six synthetic presets never did:

- :class:`CompositeKeyFamily` -- multi-column ``(region, store, day)``
  keys packed into one ``uint64`` under the columnar layer's bit-budget
  rule (:mod:`repro.columnar.kernels`): total packed width <= 62 bits,
  keeping keys below ``2**63``, clear of the hash tables' all-ones
  empty-slot sentinel, with segment bits to spare.
- :class:`StringKeyFamily` -- string product names dictionary-encoded
  by :class:`DictEncoder` into dense int64 codes, so string-keyed
  analytics run on the existing integer kernels unchanged; sorted-vocab
  encoding turns name-prefix predicates into contiguous code ranges.
- :class:`WindowedFamily` -- a time-series event stream with strictly
  increasing timestamps; keys are tumbling-window ids
  (``timestamp >> window_shift``), so windowed aggregation is a plain
  group-by on the window key.
- :class:`SkewFamily` -- Zipf-popular foreign keys with named presets
  (:data:`SKEW_PRESETS`), the parameterized skew axis the two-round
  partitioning protocol is priced against.

All payloads stay below ``2**32`` so chained aggregates remain exact in
float64 (the pipeline layer's invariant).
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.analytics.tuples import Relation

#: Packed composite keys must stay below 2**63 (the hash tables
#: reserve 2**64-1 as their empty slot); capping the
#: packed width at 62 additionally leaves room for segment bits in the
#: columnar composite codes (the bit-budget rule).
MAX_PACKED_BITS = 62

#: Payloads below 2**32 keep chained float64 aggregates exact.
PAYLOAD_BITS = 32

#: Named skew presets: Zipf exponent per family member (0.0 = uniform).
SKEW_PRESETS: Dict[str, float] = {
    "uniform": 0.0,
    "mild": 0.6,
    "zipf": 1.1,
    "hotspot": 1.6,
}


def _payloads(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(0, 1 << PAYLOAD_BITS, size=n, dtype=np.uint64)


# ---------------------------------------------------------------------------
# Composite multi-column keys.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnSpec:
    """One column of a packed composite key: a name, a bit width, and
    the cardinality of its value domain (values are ``[0, cardinality)``
    and must fit the width)."""

    name: str
    bits: int
    cardinality: int

    def __post_init__(self) -> None:
        if not 1 <= self.bits <= MAX_PACKED_BITS:
            raise ValueError(f"column {self.name!r}: bits must be in [1, {MAX_PACKED_BITS}]")
        if not 1 <= self.cardinality <= (1 << self.bits):
            raise ValueError(
                f"column {self.name!r}: cardinality {self.cardinality} does "
                f"not fit {self.bits} bits"
            )


def packed_bits(specs: Sequence[ColumnSpec]) -> int:
    """Total packed width; enforces the bit-budget rule."""
    total = sum(spec.bits for spec in specs)
    if total > MAX_PACKED_BITS:
        raise ValueError(
            f"composite key needs {total} bits; the packed budget is "
            f"{MAX_PACKED_BITS} (keys must stay below 2**63 and leave "
            "segment bits for the columnar composite codes)"
        )
    return total


def pack_columns(
    columns: Sequence[np.ndarray], specs: Sequence[ColumnSpec]
) -> np.ndarray:
    """Pack per-column integer arrays into one ``uint64`` key column.

    The first spec occupies the *highest* bits, so packed keys sort
    lexicographically by column order -- range partitioning on high
    order bits partitions by the leading column, and a leading-column
    predicate is a contiguous key range.
    """
    if len(columns) != len(specs):
        raise ValueError("need exactly one array per column spec")
    total = packed_bits(specs)
    packed = np.zeros(len(columns[0]) if columns else 0, dtype=np.uint64)
    shift = total
    for values, spec in zip(columns, specs):
        values = np.asarray(values, dtype=np.uint64)
        if values.size and int(values.max()) >= spec.cardinality:
            raise ValueError(
                f"column {spec.name!r} holds values >= its cardinality "
                f"{spec.cardinality}"
            )
        shift -= spec.bits
        packed |= values << np.uint64(shift)
    return packed


def leading_column_range(specs: Sequence[ColumnSpec], below: int) -> int:
    """The packed-key bound equivalent to ``leading column < below``.

    Because the leading column occupies the highest bits, the predicate
    is one integer compare on the packed key -- the reason analytic
    filters on composite keys stay vectorized.
    """
    total = packed_bits(specs)
    return below << (total - specs[0].bits)


@dataclass(frozen=True)
class CompositeKeyFamily:
    """Sales-style facts keyed by a packed (region, store, day) triple.

    ``dimension`` holds one row per distinct composite key (the FK
    target); ``facts`` draws its keys from the dimension, so the join
    invariant (every fact matches exactly one dimension row) holds by
    construction.
    """

    family = "composite-key"

    region_bits: int = 6
    regions: int = 40
    store_bits: int = 12
    stores: int = 3000
    day_bits: int = 9
    days: int = 364
    n_dimension: int = 2_000
    n_facts: int = 8_000

    @property
    def specs(self) -> Tuple[ColumnSpec, ...]:
        return (
            ColumnSpec("region", self.region_bits, self.regions),
            ColumnSpec("store", self.store_bits, self.stores),
            ColumnSpec("day", self.day_bits, self.days),
        )

    @property
    def key_space_bits(self) -> int:
        return packed_bits(self.specs)

    def tables(self, seed: int) -> Dict[str, Relation]:
        rng = np.random.default_rng(seed)
        domain = self.regions * self.stores * self.days
        # Draw extra combo indices to survive deduplication, then trim
        # (the make_join_workload idiom: the domain is far larger than
        # n_dimension, so 2n+16 candidates always suffice in practice).
        candidates = np.unique(
            rng.integers(0, domain, size=self.n_dimension * 2 + 16, dtype=np.int64)
        )
        if len(candidates) < self.n_dimension:
            raise ValueError("composite domain too small for the dimension size")
        combos = rng.permutation(candidates)[: self.n_dimension]
        day = combos % self.days
        store = (combos // self.days) % self.stores
        region = combos // (self.days * self.stores)
        dim_keys = pack_columns([region, store, day], self.specs)
        facts_keys = rng.choice(dim_keys, size=self.n_facts).astype(np.uint64)
        return {
            "dimension": Relation.from_arrays(
                dim_keys, _payloads(rng, self.n_dimension), "dimension"
            ),
            "facts": Relation.from_arrays(
                facts_keys, _payloads(rng, self.n_facts), "facts"
            ),
        }

    def cache_params(self) -> Dict[str, Any]:
        return dict(asdict(self), family=self.family)


# ---------------------------------------------------------------------------
# Dictionary-encoded string keys.
# ---------------------------------------------------------------------------


class DictEncoder:
    """Deterministic dictionary encoding of string keys to int64 codes.

    The vocabulary is sorted and deduplicated once; a word's code is its
    rank, so encoded relations run on the integer columnar kernels
    unchanged and *prefix* predicates over the strings become contiguous
    code ranges.
    """

    def __init__(self, vocabulary: Sequence[str]) -> None:
        vocab = sorted(set(str(w) for w in vocabulary))
        if not vocab:
            raise ValueError("vocabulary must not be empty")
        self._vocab: Tuple[str, ...] = tuple(vocab)
        self._arr = np.array(self._vocab)

    @property
    def vocabulary(self) -> Tuple[str, ...]:
        return self._vocab

    def __len__(self) -> int:
        return len(self._vocab)

    @property
    def key_space_bits(self) -> int:
        """Bits needed to hold every code (>= 1)."""
        return max(1, (len(self._vocab) - 1).bit_length())

    def encode(self, words: Sequence[str]) -> np.ndarray:
        """Codes for ``words``; unknown words raise ``KeyError``."""
        words_arr = np.asarray(list(words), dtype=self._arr.dtype)
        codes = np.searchsorted(self._arr, words_arr)
        codes = np.minimum(codes, len(self._vocab) - 1)
        bad = self._arr[codes] != words_arr
        if np.any(bad):
            unknown = sorted(set(np.asarray(words_arr)[bad].tolist()))[:3]
            raise KeyError(f"words not in vocabulary: {unknown}")
        return codes.astype(np.uint64)

    def decode(self, codes: np.ndarray) -> List[str]:
        codes = np.asarray(codes, dtype=np.int64)
        if codes.size and (int(codes.min()) < 0 or int(codes.max()) >= len(self)):
            raise KeyError("code out of vocabulary range")
        return self._arr[codes].tolist()

    def bound(self, word: str) -> int:
        """Number of vocabulary words lexicographically below ``word``
        -- the code bound equivalent to the predicate ``name < word``."""
        return int(np.searchsorted(self._arr, word))


#: Deterministic product-name vocabulary components.
_ADJECTIVES = ("amber", "bold", "calm", "deep", "ember", "fine", "gold", "high")
_NOUNS = ("anchor", "basin", "cobalt", "delta", "fjord", "grove", "harbor", "inlet")


def product_vocabulary(variants: int = 24) -> List[str]:
    """``adjective-noun-NN`` names: 8 x 8 x ``variants`` distinct SKUs."""
    if variants < 1:
        raise ValueError("need at least one variant per name pair")
    return [
        f"{adj}-{noun}-{i:02d}"
        for adj, noun in itertools.product(_ADJECTIVES, _NOUNS)
        for i in range(variants)
    ]


@dataclass(frozen=True)
class StringKeyFamily:
    """Orders referencing string-named products through a dictionary.

    ``products`` is the dictionary-encoded dimension (one row per SKU,
    key = code); ``orders`` draws product codes uniformly.
    """

    family = "string-key"

    name_variants: int = 24
    n_orders: int = 8_000

    def encoder(self) -> DictEncoder:
        """The product dictionary, built once per (frozen) family."""
        return self._encoder

    @cached_property
    def _encoder(self) -> DictEncoder:
        return DictEncoder(product_vocabulary(self.name_variants))

    @property
    def key_space_bits(self) -> int:
        return self.encoder().key_space_bits

    def tables(self, seed: int) -> Dict[str, Relation]:
        rng = np.random.default_rng(seed)
        encoder = self.encoder()
        codes = encoder.encode(encoder.vocabulary)
        orders = rng.choice(codes, size=self.n_orders).astype(np.uint64)
        return {
            "products": Relation.from_arrays(
                codes, _payloads(rng, len(codes)), "products"
            ),
            "orders": Relation.from_arrays(
                orders, _payloads(rng, self.n_orders), "orders"
            ),
        }

    def cache_params(self) -> Dict[str, Any]:
        return dict(asdict(self), family=self.family)


# ---------------------------------------------------------------------------
# Windowed / time-series event streams.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WindowedFamily:
    """A click-stream whose keys are tumbling-window ids.

    Timestamps increase strictly (unit gaps drawn in
    ``[1, max_gap]``), and the window id is ``timestamp >>
    window_shift`` -- so grouping by key aggregates per window, and a
    time-range filter is an integer range predicate on the key.
    """

    family = "windowed"

    n_events: int = 8_000
    max_gap: int = 7
    window_shift: int = 7

    @property
    def max_timestamp(self) -> int:
        """Upper bound on the final timestamp (params only, not data)."""
        return self.n_events * self.max_gap

    @property
    def key_space_bits(self) -> int:
        return max(1, (self.max_timestamp >> self.window_shift).bit_length())

    def tables(self, seed: int) -> Dict[str, Relation]:
        rng = np.random.default_rng(seed)
        gaps = rng.integers(1, self.max_gap + 1, size=self.n_events, dtype=np.uint64)
        timestamps = np.cumsum(gaps, dtype=np.uint64)
        windows = timestamps >> np.uint64(self.window_shift)
        return {
            "clicks": Relation.from_arrays(
                windows, _payloads(rng, self.n_events), "clicks"
            ),
        }

    def cache_params(self) -> Dict[str, Any]:
        return dict(asdict(self), family=self.family)


# ---------------------------------------------------------------------------
# Parameterized skew families.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SkewFamily:
    """FK events whose key popularity follows a named Zipf preset.

    ``preset`` picks the exponent from :data:`SKEW_PRESETS`
    (``uniform`` degenerates to equal weights), so suites sweep the
    skew *family* by name instead of hand-tuning alphas.
    """

    family = "skew-family"

    preset: str = "hotspot"
    n_users: int = 2_000
    n_events: int = 8_000
    user_key_bits: int = 32

    def __post_init__(self) -> None:
        if self.preset not in SKEW_PRESETS:
            raise ValueError(
                f"unknown skew preset {self.preset!r}; choose from "
                f"{sorted(SKEW_PRESETS)}"
            )

    @property
    def alpha(self) -> float:
        return SKEW_PRESETS[self.preset]

    @property
    def key_space_bits(self) -> int:
        return self.user_key_bits

    def tables(self, seed: int) -> Dict[str, Relation]:
        rng = np.random.default_rng(seed)
        candidates = np.unique(
            rng.integers(
                0, 1 << self.user_key_bits, size=self.n_users * 2 + 16, dtype=np.uint64
            )
        )
        if len(candidates) < self.n_users:
            raise ValueError("user key space too small for the requested users")
        user_keys = rng.permutation(candidates)[: self.n_users].astype(np.uint64)
        ranks = np.arange(1, self.n_users + 1, dtype=np.float64)
        weights = ranks ** (-self.alpha)
        weights /= weights.sum()
        event_keys = rng.choice(user_keys, size=self.n_events, p=weights).astype(
            np.uint64
        )
        return {
            "users": Relation.from_arrays(
                user_keys, _payloads(rng, self.n_users), "users"
            ),
            "events": Relation.from_arrays(
                event_keys, _payloads(rng, self.n_events), "events"
            ),
        }

    def cache_params(self) -> Dict[str, Any]:
        return dict(asdict(self), family=self.family)
