"""Memory-level-parallelism arithmetic (paper section 3.2).

The paper's worked example: an ARM Cortex-A57 with a 128-entry ROB and
one 8-byte access every 6 instructions can keep ~20 accesses in flight;
at 30 ns memory latency that is at most ``20 * 64 B / 30 ns = 5.3 GB/s``
of the vault's 8 GB/s (using cache-block transfers), while the core burns
1.5 W -- several times the 312 mW vault budget.  These helpers reproduce
that arithmetic and are exercised directly by the section 3.2 experiment.
"""

from __future__ import annotations


def outstanding_accesses(
    rob_entries: int, instructions_per_mem: float, mshrs: int
) -> float:
    """In-flight memory accesses an OoO window can sustain."""
    if rob_entries <= 0 or instructions_per_mem <= 0 or mshrs <= 0:
        raise ValueError("all arguments must be positive")
    return min(rob_entries / instructions_per_mem, mshrs)


def mlp_limited_bandwidth_bps(
    mlp: float, latency_ns: float, access_b: int
) -> float:
    """Bandwidth achievable from ``mlp`` concurrent accesses (Little's law)."""
    if mlp <= 0 or latency_ns <= 0 or access_b <= 0:
        raise ValueError("all arguments must be positive")
    return mlp * access_b / (latency_ns * 1e-9)
