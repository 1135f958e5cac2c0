"""Event-count based energy model (paper section 6, Table 4).

Component conventions (matching figure 8's legend):

- **DRAM dynamic** -- row activations at 0.65 nJ each plus 2 pJ/bit of
  row-buffer transfer.
- **DRAM static** -- 980 mW background power per 8 GB cube times runtime.
- **cores** -- peak core power scaled by utilization times runtime,
  summed over compute units, plus LLC access energy and leakage (the LLC
  exists only in the CPU-centric machine).
- **SerDes+NOC** -- SerDes idle slots (1 pJ/bit both directions, every
  link, all the time) plus busy bytes (3 pJ/bit), plus mesh transfer
  energy (0.04 pJ/bit/mm) and NoC leakage (30 mW per stack).

SerDes idle energy deliberately accrues whether or not traffic flows --
that is why low-bandwidth-utilization systems show a large SerDes+NOC
share in figure 8.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config.system import SystemConfig


@dataclass(frozen=True)
class EnergyEvents:
    """Countable energy-bearing events of one phase."""

    dram_activations: float = 0.0
    dram_bytes: float = 0.0
    llc_accesses: float = 0.0
    noc_bit_mm: float = 0.0
    serdes_bytes: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "dram_activations",
            "dram_bytes",
            "llc_accesses",
            "noc_bit_mm",
            "serdes_bytes",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass
class EnergyBreakdown:
    """Joules per component (figure 8's four bars + the LLC detail)."""

    dram_dynamic_j: float = 0.0
    dram_static_j: float = 0.0
    core_j: float = 0.0
    llc_j: float = 0.0
    serdes_noc_j: float = 0.0

    @property
    def total_j(self) -> float:
        return (
            self.dram_dynamic_j
            + self.dram_static_j
            + self.core_j
            + self.llc_j
            + self.serdes_noc_j
        )

    def fractions(self) -> dict:
        """Figure 8's normalized breakdown (LLC folded into cores, as the
        paper groups cache energy with the compute side)."""
        total = self.total_j
        if total <= 0:
            return {"dram_dyn": 0.0, "dram_static": 0.0, "cores": 0.0, "serdes_noc": 0.0}
        return {
            "dram_dyn": self.dram_dynamic_j / total,
            "dram_static": self.dram_static_j / total,
            "cores": (self.core_j + self.llc_j) / total,
            "serdes_noc": self.serdes_noc_j / total,
        }

    def accumulate(self, other: "EnergyBreakdown") -> None:
        self.dram_dynamic_j += other.dram_dynamic_j
        self.dram_static_j += other.dram_static_j
        self.core_j += other.core_j
        self.llc_j += other.llc_j
        self.serdes_noc_j += other.serdes_noc_j


class EnergyModel:
    """Turns (events, runtime, utilization) into an EnergyBreakdown."""

    def __init__(self, config: SystemConfig, num_serdes_links: int) -> None:
        if num_serdes_links < 0:
            raise ValueError("link count must be non-negative")
        self._config = config
        self._links = num_serdes_links

    @property
    def config(self) -> SystemConfig:
        return self._config

    def phase_energy(
        self, events: EnergyEvents, runtime_s: float, core_utilization: float
    ) -> EnergyBreakdown:
        """Energy of one phase lasting ``runtime_s`` seconds."""
        if runtime_s < 0:
            raise ValueError("runtime must be non-negative")
        if not 0.0 <= core_utilization <= 1.0:
            raise ValueError("utilization must be in [0, 1]")
        cfg = self._config
        e = cfg.energy

        dram_dynamic = (
            events.dram_activations * e.dram_activation_j
            + events.dram_bytes * 8 * e.dram_access_j_per_bit
        )
        dram_static = e.hmc_background_w_per_cube * cfg.geometry.num_stacks * runtime_s
        core = cfg.core.peak_power_w * cfg.num_cores * core_utilization * runtime_s

        llc = 0.0
        if cfg.has_cache_hierarchy and cfg.llc_b:
            llc = events.llc_accesses * e.llc_access_j + e.llc_leakage_w * runtime_s

        serdes_idle = (
            self._links
            * cfg.interconnect.serdes_bw_bps_per_dir
            * 8  # bytes/s -> bits/s
            * 2  # both directions
            * runtime_s
            * e.serdes_idle_j_per_bit
        )
        serdes_busy = events.serdes_bytes * 8 * e.serdes_busy_j_per_bit
        noc_dynamic = events.noc_bit_mm * e.noc_j_per_bit_mm
        noc_leak = e.noc_leakage_w * cfg.geometry.num_stacks * runtime_s

        return EnergyBreakdown(
            dram_dynamic_j=dram_dynamic,
            dram_static_j=dram_static,
            core_j=core,
            llc_j=llc,
            serdes_noc_j=serdes_idle + serdes_busy + noc_dynamic + noc_leak,
        )
