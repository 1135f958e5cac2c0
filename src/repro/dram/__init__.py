"""HMC-style stacked-DRAM model.

:mod:`repro.dram.analytic` holds the closed-form estimators of row
activations, latency and achievable bandwidth for the access-pattern
classes the operators produce (sequential streams, uniform random
accesses, and the interleaved write streams of the partitioning
shuffle).  The performance/energy pipeline uses them so experiments can
be scaled to paper-sized inputs.

:mod:`repro.dram.bank` / :mod:`repro.dram.vault` are a test-only
reference: an event-accurate per-bank row-buffer state machine with the
Table 3 timings and an FR-FCFS vault scheduler.  Exact, but only
practical for scaled-down traces; the test suite cross-validates the
analytic estimators against it.  Import them by module path -- this
package does not load them.
"""

from repro.dram.analytic import (
    AccessPattern,
    InterleavedWrites,
    RandomAccesses,
    SequentialStream,
    estimate_pattern,
    PatternEstimate,
)

__all__ = [
    "AccessPattern",
    "InterleavedWrites",
    "PatternEstimate",
    "RandomAccesses",
    "SequentialStream",
    "estimate_pattern",
]
