"""The partitioning-phase data shuffle (paper figure 2, sections 4.1.2, 5.3-5.4).

Multiple source partitions concurrently push tuples toward destination
partitions; the memory network interleaves their messages, so writes
arrive at each destination in an order no single source controls.  The
shuffle engine models that interleaving functionally (real tuples move),
drives the shuffle_begin/shuffle_end barrier protocol, and produces one
buffer of every destination's tuples (sliced into destination relations
on demand) plus the (source, destination) histogram.
Interleave models name only the source of each arrival (per-source FIFO
order is their contract) and answer for the whole histogram in one
call; :func:`arrival_slots` maps every arrival of
every destination to its addressed write slot in one pass, for the
permutable shuffle's arrival order and for :func:`write_traces`, which
derives from the histogram, on demand, the per-destination arrival
traces the event-accurate DRAM model can replay.
"""

from repro.shuffle.engine import (
    ShuffleEngine,
    ShuffleResult,
    arrival_slots,
    write_traces,
)
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
    "arrival_slots",
    "get_interleave",
    "random_interleave",
    "round_robin_interleave",
    "write_traces",
]
