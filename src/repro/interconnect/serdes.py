"""Inter-stack SerDes link model.

Table 3: SerDes links at 10 GHz, 160 Gb/s per direction.  The link's
Table 4 energy (1 pJ/bit idle, 3 pJ/bit busy) is charged by
:mod:`repro.energy.model`, from the run's energy events and the
topology's link count.  The *idle* term dominates whenever utilization
is low -- the links burn 1 pJ for every bit slot whether or not data
flows -- which is why the paper's figure 8 shows a large SerDes+NOC
share for the underutilizing baselines.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config.interconnect import InterconnectConfig


@dataclass(frozen=True)
class SerdesLink:
    """One bidirectional SerDes link between two devices."""

    config: InterconnectConfig

    @property
    def bw_bps_per_dir(self) -> float:
        return self.config.serdes_bw_bps_per_dir

    def transfer_ns(self, size_b: int) -> float:
        """Serialization time of a message on one direction."""
        if size_b < 0:
            raise ValueError("size must be non-negative")
        return size_b / self.bw_bps_per_dir * 1e9
