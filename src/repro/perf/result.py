"""System-level run results and the paper's comparison metrics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.energy.model import EnergyBreakdown
from repro.perf.model import PhasePerf


@dataclass
class SystemResult:
    """One operator executed on one system configuration."""

    system: str
    operator: str
    variant: str
    phase_perfs: List[PhasePerf]
    energy: EnergyBreakdown
    output: Any
    metadata: Dict[str, Any] = field(default_factory=dict)

    @property
    def runtime_s(self) -> float:
        return sum(p.time_s for p in self.phase_perfs)

    @property
    def partition_time_s(self) -> float:
        return sum(p.time_s for p in self.phase_perfs if p.phase.is_partitioning)

    @property
    def probe_time_s(self) -> float:
        return sum(p.time_s for p in self.phase_perfs if not p.phase.is_partitioning)

    @property
    def perf_per_watt(self) -> float:
        """Performance per watt (figure 9's metric).

        Performance is 1/runtime and average power is energy/runtime, so
        perf/W reduces to 1/energy: the system that spends fewer joules
        on the same work is the more efficient one.
        """
        if self.energy.total_j <= 0:
            return 0.0
        return 1.0 / self.energy.total_j

    def phase(self, name: str) -> PhasePerf:
        for p in self.phase_perfs:
            if p.phase.name == name:
                return p
        raise KeyError(f"no phase named {name!r}")


def speedup(baseline: SystemResult, candidate: SystemResult) -> float:
    """Runtime speedup of ``candidate`` over ``baseline``."""
    if candidate.runtime_s <= 0:
        raise ValueError("candidate runtime must be positive")
    return baseline.runtime_s / candidate.runtime_s


def partition_speedup(baseline: SystemResult, candidate: SystemResult) -> float:
    if candidate.partition_time_s <= 0:
        raise ValueError("candidate partition time must be positive")
    return baseline.partition_time_s / candidate.partition_time_s


def probe_speedup(baseline: SystemResult, candidate: SystemResult) -> float:
    if candidate.probe_time_s <= 0:
        raise ValueError("candidate probe time must be positive")
    return baseline.probe_time_s / candidate.probe_time_s


def efficiency_improvement(baseline: SystemResult, candidate: SystemResult) -> float:
    """Performance-per-watt improvement (figure 9's metric)."""
    if candidate.perf_per_watt <= 0:
        raise ValueError("candidate efficiency must be positive")
    if baseline.perf_per_watt <= 0:
        raise ValueError("baseline efficiency must be positive")
    return candidate.perf_per_watt / baseline.perf_per_watt
