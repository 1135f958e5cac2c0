"""DRAM timing and HMC geometry parameters (paper Table 3, "Common").

The paper models a 32 GB system built from four 8 GB HMC stacks.  Each
modeled stack has 16 vaults of 512 MB (the real HMC has 32 x 256 MB; the
authors halve the vault count "because of simulation limitations" and we
follow them).  Each vault is a vertical slice through 8 DRAM layers; we
model each layer slice as one independently schedulable bank, so a vault
has 8 banks.  HMC rows are 256 B -- far smaller than the multi-KB rows of
planar DDR -- and the access granularity is configurable between 8 B and
256 B.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DramTiming:
    """DRAM timing parameters in nanoseconds (paper Table 3).

    Attributes mirror the conventional JEDEC names:

    - ``t_ck_ns``: clock period of the DRAM command clock.
    - ``t_ras_ns``: minimum time a row must stay open after activation.
    - ``t_rcd_ns``: activate-to-read/write delay.
    - ``t_cas_ns``: read command to first data (CAS latency).
    - ``t_wr_ns``: write recovery time before precharge.
    - ``t_rp_ns``: precharge time before the next activation.
    """

    t_ck_ns: float = 1.6
    t_ras_ns: float = 22.4
    t_rcd_ns: float = 11.2
    t_cas_ns: float = 11.2
    t_wr_ns: float = 14.4
    t_rp_ns: float = 11.2

    def __post_init__(self) -> None:
        for name in ("t_ck_ns", "t_ras_ns", "t_rcd_ns", "t_cas_ns", "t_wr_ns", "t_rp_ns"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")

    @property
    def row_miss_latency_ns(self) -> float:
        """Latency of an access that must precharge and activate first."""
        return self.t_rp_ns + self.t_rcd_ns + self.t_cas_ns

    @property
    def row_hit_latency_ns(self) -> float:
        """Latency of an access that hits the open row buffer."""
        return self.t_cas_ns

    @property
    def row_cycle_ns(self) -> float:
        """Minimum activate-to-activate interval for one bank (tRC)."""
        return self.t_ras_ns + self.t_rp_ns


@dataclass(frozen=True)
class HmcGeometry:
    """Geometry of the modeled HMC-based memory system (paper Table 3).

    ``32GB: 8 layers x 16 vaults x 4 stacks`` with 512 MB vaults, 256 B
    rows, and 8 GB/s peak bandwidth per vault.
    """

    num_stacks: int = 4
    vaults_per_stack: int = 16
    layers: int = 8
    vault_capacity_b: int = 512 * 1024 * 1024
    row_size_b: int = 256
    min_access_b: int = 8
    max_access_b: int = 256
    vault_peak_bw_gbps: float = 8.0

    def __post_init__(self) -> None:
        if self.num_stacks < 1 or self.vaults_per_stack < 1 or self.layers < 1:
            raise ValueError("geometry counts must be >= 1")
        if self.row_size_b <= 0 or self.vault_capacity_b <= 0:
            raise ValueError("sizes must be positive")
        if self.vault_capacity_b % self.row_size_b:
            raise ValueError("vault capacity must be a whole number of rows")
        if self.max_access_b < self.min_access_b:
            raise ValueError("max_access_b must be >= min_access_b")

    @property
    def total_vaults(self) -> int:
        return self.num_stacks * self.vaults_per_stack

    @property
    def banks_per_vault(self) -> int:
        """One bank per DRAM layer slice of the vault."""
        return self.layers

    @property
    def vault_peak_bw_bps(self) -> float:
        return self.vault_peak_bw_gbps * 1e9


def default_hmc_geometry() -> HmcGeometry:
    """The paper's 32 GB, 4-stack, 64-vault organization."""
    return HmcGeometry()
