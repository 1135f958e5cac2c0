"""Interconnect parameters (paper Table 3, "Common").

- On-chip NOC: 2D mesh, 16 B links, 3 cycles/hop.
- Inter-HMC network: SerDes links at 10 GHz, 160 Gb/s per direction;
  fully connected between the four stacks for the NMP systems, a star
  centered on the CPU for the CPU-centric system.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class InterconnectConfig:
    """Mesh-NoC and SerDes-link parameters."""

    noc_link_b: int = 16
    noc_cycles_per_hop: int = 3
    noc_frequency_hz: float = 1.0e9
    serdes_bw_gbps_per_dir: float = 160.0
    serdes_frequency_hz: float = 10.0e9

    def __post_init__(self) -> None:
        if self.noc_link_b <= 0 or self.noc_cycles_per_hop <= 0:
            raise ValueError("NoC parameters must be positive")
        if self.serdes_bw_gbps_per_dir <= 0:
            raise ValueError("SerDes bandwidth must be positive")

    @property
    def serdes_bw_bps_per_dir(self) -> float:
        """Peak bytes/second of one SerDes link direction."""
        return self.serdes_bw_gbps_per_dir * 1e9 / 8

    def noc_hop_latency_ns(self) -> float:
        return self.noc_cycles_per_hop / self.noc_frequency_hz * 1e9

    def noc_serialization_ns(self, message_b: int) -> float:
        """Time to push a message through one 16 B-wide link."""
        if message_b < 0:
            raise ValueError("message size must be non-negative")
        flits = (message_b + self.noc_link_b - 1) // self.noc_link_b
        return flits / self.noc_frequency_hz * 1e9
