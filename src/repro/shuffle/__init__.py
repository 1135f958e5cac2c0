"""The partitioning-phase data shuffle (paper figure 2, sections 4.1.2, 5.3-5.4).

Multiple source partitions concurrently push tuples toward destination
partitions; the memory network interleaves their messages, so writes
arrive at each destination in an order no single source controls.  The
shuffle engine models that interleaving functionally (real tuples move),
drives the shuffle_begin/shuffle_end barrier protocol, and produces the
destination relations plus the (source, destination) histogram.
:func:`write_traces` derives from that histogram, on demand, the
per-destination arrival traces the event-accurate DRAM model can replay.
"""

from repro.shuffle.engine import ShuffleEngine, ShuffleResult, write_traces
from repro.shuffle.interleave import (
    NAMED_INTERLEAVES,
    get_interleave,
    random_interleave,
    round_robin_interleave,
)

__all__ = [
    "NAMED_INTERLEAVES",
    "ShuffleEngine",
    "ShuffleResult",
    "get_interleave",
    "random_interleave",
    "round_robin_interleave",
    "write_traces",
]
