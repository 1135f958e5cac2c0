"""Network message-interleaving models.

The order in which a destination vault sees writes from concurrent
sources is a property of the memory network.  Two models:

- :func:`round_robin_interleave`: sources inject in lockstep -- the
  idealized pattern of paper figure 2 ("message arrival order: A0 B0 A1
  B1 ...").
- :func:`random_interleave`: sources progress at jittered rates, a more
  adversarial arrival order.  Row-buffer locality at the destination is
  equally destroyed; permutability is insensitive to the model (a
  property the test suite checks).

**The FIFO contract.**  Every model preserves per-source FIFO order:
the network never reorders the messages of one flow, only the merge
across flows.  A model therefore returns just the arrival *sources*, an
int64 array -- arrival ``k`` comes from stream ``sources[k]`` -- and the
element it carries is implied: the ``i``-th arrival from a source is
element ``i`` of that source's stream.  The shuffle engine turns that
into write slots for all destinations at once
(:func:`repro.shuffle.engine.arrival_slots`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.config.system import INTERLEAVE_RANDOM, INTERLEAVE_ROUND_ROBIN

#: Arrival order: the source stream of each arrival, an int64 array.
ArrivalOrder = np.ndarray


def stream_starts(lengths: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum: start of each stream in the concatenation.

    Shared with the shuffle engine, which uses the same offsets to map
    arrival order into the concatenated inbound streams."""
    starts = np.zeros(len(lengths), dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    return starts


def round_robin_interleave(stream_lengths: Sequence[int]) -> ArrivalOrder:
    """Arrival sources, round-robin.

    Sources with exhausted streams drop out of the rotation, matching a
    network where every source injects at the same rate until done.
    Equivalently: element ``(src, idx)`` arrives in round ``idx``, and
    rounds drain in source order -- so the arrival order is a stable
    sort of all elements by ``(idx, src)``.
    """
    lengths = np.asarray(stream_lengths, dtype=np.int64)
    total = int(lengths.sum()) if len(lengths) else 0
    if total == 0:
        return np.empty(0, dtype=np.int64)
    sources = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
    indices = np.arange(total, dtype=np.int64) - np.repeat(
        stream_starts(lengths), lengths
    )
    return sources[np.lexsort((sources, indices))]


def random_interleave(
    stream_lengths: Sequence[int], seed: int = 0
) -> ArrivalOrder:
    """Arrival sources under randomized source progress.

    The merge order across sources is uniformly random: one seeded
    permutation of every stream's tuples, each drawn tuple naming only
    its source.
    """
    lengths = np.asarray(stream_lengths, dtype=np.int64)
    total = int(lengths.sum()) if len(lengths) else 0
    if total == 0:
        return np.empty(0, dtype=np.int64)
    sources = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
    return sources[np.random.default_rng(seed).permutation(total)]


#: Named interleave models, keyed by the one shared vocabulary
#: (``repro.config.system.INTERLEAVE_MODELS``).
NAMED_INTERLEAVES = {
    INTERLEAVE_ROUND_ROBIN: round_robin_interleave,
    INTERLEAVE_RANDOM: random_interleave,
}


def get_interleave(name: str):
    """Interleave callable for a configured model name.

    The ``random`` model keeps its default seed, so a given configuration
    still produces one deterministic arrival order.
    """
    try:
        return NAMED_INTERLEAVES[name]
    except KeyError:
        raise KeyError(
            f"unknown interleave model {name!r}; "
            f"choose from {sorted(NAMED_INTERLEAVES)}"
        ) from None
