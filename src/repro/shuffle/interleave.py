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
element ``i`` of that source's stream.

**One call per shuffle.**  A model takes the whole ``(source,
destination)`` tuple-count histogram and answers for every destination
at once: the arrivals are listed destination by destination, each
destination's in its network order.  A destination's arrivals depend
on its own column only, so a one-destination histogram per call gives
the same arrivals -- the per-destination form the reference shuffle
uses.  The shuffle engine turns the arrivals into write slots for all
destinations at once (:func:`repro.shuffle.engine.arrival_slots`).
"""

from __future__ import annotations

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


def _grouped_sources(hist: np.ndarray) -> np.ndarray:
    """Source of every tuple in ``(dest, src)``-grouped order: each
    destination's inbound streams back to back, in source order."""
    num_src, num_dest = hist.shape
    return np.repeat(
        np.tile(np.arange(num_src, dtype=np.int64), num_dest), hist.T.reshape(-1)
    )


def round_robin_interleave(hist: np.ndarray) -> ArrivalOrder:
    """Arrival sources, round-robin.

    Sources with exhausted streams drop out of the rotation, matching a
    network where every source injects at the same rate until done.
    Equivalently: element ``(src, idx)`` arrives in round ``idx``, and
    rounds drain in source order -- so every destination's arrival order
    is a stable sort of its elements by ``(idx, src)``.
    """
    sources = _grouped_sources(hist)
    stream_lens = hist.T.reshape(-1)
    indices = np.arange(len(sources), dtype=np.int64) - np.repeat(
        stream_starts(stream_lens), stream_lens
    )
    dests = np.repeat(np.arange(hist.shape[1], dtype=np.int64), hist.sum(axis=0))
    return sources[np.lexsort((sources, indices, dests))]


def random_interleave(hist: np.ndarray, seed: int = 0) -> ArrivalOrder:
    """Arrival sources under randomized source progress.

    Each destination's merge order across sources is uniformly random:
    destination ``d`` draws the seeded permutation
    ``default_rng(seed).permutation(n_d)`` of its ``n_d`` inbound
    tuples, each drawn tuple naming only its source.  One generator
    serves every destination: rewinding it to the seed's initial state
    before each draw replays the same random stream a fresh
    ``default_rng(seed)`` would, and shuffling each destination's slice
    of one ``arange`` in place permutes it exactly as ``permutation``
    permutes its own ``arange``.
    """
    dest_totals = hist.sum(axis=0).tolist()
    picks = np.arange(sum(dest_totals), dtype=np.int64)
    rng = np.random.default_rng(seed)
    bits = rng.bit_generator
    initial = bits.state
    start = 0
    for total in dest_totals:
        if total > 1:
            bits.state = initial
            rng.shuffle(picks[start : start + total])
        start += total
    return _grouped_sources(hist)[picks]


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
