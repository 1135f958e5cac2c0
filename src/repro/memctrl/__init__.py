"""Vault-controller extensions of the Mondrian Data Engine.

- :mod:`repro.memctrl.permutable`: the permutable-write engine -- marked
  stores arriving at a destination vault are written to the sequential
  tail of the destination buffer instead of their addressed location
  (paper section 5.3), plus the shuffle_begin/shuffle_end handshake with
  its message-signaled-interrupt completion vector (section 5.4).
"""

from repro.memctrl.permutable import (
    PermutableRegionConfig,
    PermutableWriteEngine,
    ShuffleBarrier,
)

__all__ = [
    "PermutableRegionConfig",
    "PermutableWriteEngine",
    "ShuffleBarrier",
]
