"""Presets for the six evaluated system configurations (paper section 6).

=================  ===========  =============  ==============  ============
Preset             Cores        Partitioning   Probe variant   Topology
=================  ===========  =============  ==============  ============
cpu                16x A57      addressed      hash (random)   star
nmp                64x Krait    addressed      best-of (rand)  full mesh
nmp-rand           64x Krait    addressed      hash (random)   full mesh
nmp-seq            64x Krait    addressed      sort (seq)      full mesh
nmp-perm           64x Krait    permutable     hash (random)   full mesh
mondrian-noperm    64x A35+SIMD addressed      sort (seq)      full mesh
mondrian           64x A35+SIMD permutable     sort (seq)      full mesh
=================  ===========  =============  ==============  ============

The ``nmp`` alias composes the paper's "best NMP baseline"
(NMP-perm partitioning is *not* included: plain NMP partitioning with the
NMP-rand probe), matching how figure 7 combines phases.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.config.cores import (
    CoreConfig,
    cortex_a35_mondrian,
    cortex_a57_cpu,
    krait400_nmp,
)
from repro.config.dram import DramTiming, HmcGeometry
from repro.config.energy import EnergyConfig
from repro.config.interconnect import InterconnectConfig
from repro.faults.plan import FaultSpec

#: Partitioning-phase write handling.
PARTITION_ADDRESSED = "addressed"
PARTITION_PERMUTABLE = "permutable"

#: Probe-phase algorithm family.
PROBE_HASH = "hash"
PROBE_SORT = "sort"

#: Inter-stack network topologies.
TOPOLOGY_STAR = "star"
TOPOLOGY_FULL = "fully-connected"

#: Shuffle-network arrival-order models (see ``repro.shuffle.interleave``).
INTERLEAVE_ROUND_ROBIN = "round-robin"
INTERLEAVE_RANDOM = "random"
INTERLEAVE_MODELS = (INTERLEAVE_ROUND_ROBIN, INTERLEAVE_RANDOM)

#: Every configuration the evaluation section measures, in evaluation
#: order (``experiments.common.ALL_SYSTEMS`` re-exports this).
EVALUATED_PRESETS = (
    "cpu",
    "nmp-rand",
    "nmp-seq",
    "nmp-perm",
    "mondrian-noperm",
    "mondrian",
)


@dataclass(frozen=True)
class SystemConfig:
    """A complete machine + software configuration for one experiment."""

    name: str
    kind: str  # "cpu" | "nmp" | "mondrian"
    core: CoreConfig
    num_cores: int
    partition_scheme: str
    probe_algorithm: str
    topology: str
    has_cache_hierarchy: bool
    llc_b: int
    geometry: HmcGeometry = field(default_factory=HmcGeometry)
    timing: DramTiming = field(default_factory=DramTiming)
    energy: EnergyConfig = field(default_factory=EnergyConfig)
    interconnect: InterconnectConfig = field(default_factory=InterconnectConfig)
    interleave_model: str = INTERLEAVE_ROUND_ROBIN
    #: Deterministic shuffle fault schedule (``repro.faults``); the
    #: default injects nothing and leaves results byte-identical.
    faults: FaultSpec = field(default_factory=FaultSpec)

    def __post_init__(self) -> None:
        if not isinstance(self.faults, FaultSpec):
            raise ValueError("faults must be a FaultSpec")
        if self.kind not in ("cpu", "nmp", "mondrian"):
            raise ValueError(f"unknown system kind: {self.kind!r}")
        if self.partition_scheme not in (PARTITION_ADDRESSED, PARTITION_PERMUTABLE):
            raise ValueError(f"unknown partition scheme: {self.partition_scheme!r}")
        if self.probe_algorithm not in (PROBE_HASH, PROBE_SORT):
            raise ValueError(f"unknown probe algorithm: {self.probe_algorithm!r}")
        if self.topology not in (TOPOLOGY_STAR, TOPOLOGY_FULL):
            raise ValueError(f"unknown topology: {self.topology!r}")
        if self.interleave_model not in INTERLEAVE_MODELS:
            raise ValueError(f"unknown interleave model: {self.interleave_model!r}")
        if self.num_cores < 1:
            raise ValueError("num_cores must be >= 1")
        if self.kind == "cpu" and self.partition_scheme == PARTITION_PERMUTABLE:
            # Permutable stores live in the vault memory controllers
            # (section 4.1): a CPU-centric system addresses memory from
            # across the SerDes links and cannot delegate placement.
            raise ValueError(
                "permutable partitioning requires near-memory compute "
                "(kind 'nmp' or 'mondrian'); the CPU-centric system has no "
                "vault-controller write path"
            )

    @property
    def is_near_memory(self) -> bool:
        """True when compute units sit on the HMC logic layer."""
        return self.kind in ("nmp", "mondrian")

    @property
    def uses_permutability(self) -> bool:
        return self.partition_scheme == PARTITION_PERMUTABLE

    def with_overrides(self, **kwargs) -> "SystemConfig":
        """Return a copy with fields replaced (for ablation sweeps)."""
        return replace(self, **kwargs)


def _cpu_preset() -> SystemConfig:
    return SystemConfig(
        name="cpu",
        kind="cpu",
        core=cortex_a57_cpu(),
        num_cores=16,
        partition_scheme=PARTITION_ADDRESSED,
        probe_algorithm=PROBE_HASH,
        topology=TOPOLOGY_STAR,
        has_cache_hierarchy=True,
        llc_b=4 * 1024 * 1024,
    )


def _nmp_preset(name: str, partition_scheme: str, probe_algorithm: str) -> SystemConfig:
    return SystemConfig(
        name=name,
        kind="nmp",
        core=krait400_nmp(),
        num_cores=64,
        partition_scheme=partition_scheme,
        probe_algorithm=probe_algorithm,
        topology=TOPOLOGY_FULL,
        has_cache_hierarchy=True,
        llc_b=0,
    )


def _mondrian_preset(name: str, partition_scheme: str) -> SystemConfig:
    return SystemConfig(
        name=name,
        kind="mondrian",
        core=cortex_a35_mondrian(),
        num_cores=64,
        partition_scheme=partition_scheme,
        probe_algorithm=PROBE_SORT,
        topology=TOPOLOGY_FULL,
        has_cache_hierarchy=False,
        llc_b=0,
    )


SYSTEM_PRESETS = {
    "cpu": _cpu_preset(),
    "nmp": _nmp_preset("nmp", PARTITION_ADDRESSED, PROBE_HASH),
    "nmp-rand": _nmp_preset("nmp-rand", PARTITION_ADDRESSED, PROBE_HASH),
    "nmp-seq": _nmp_preset("nmp-seq", PARTITION_ADDRESSED, PROBE_SORT),
    "nmp-perm": _nmp_preset("nmp-perm", PARTITION_PERMUTABLE, PROBE_HASH),
    "mondrian-noperm": _mondrian_preset("mondrian-noperm", PARTITION_ADDRESSED),
    "mondrian": _mondrian_preset("mondrian", PARTITION_PERMUTABLE),
}


def get_preset(name: str) -> SystemConfig:
    """Look up a system preset by name.

    Raises ``KeyError`` with the list of valid names on a miss.
    """
    try:
        return SYSTEM_PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown system preset {name!r}; valid presets: {', '.join(SYSTEM_PRESETS)}"
        ) from None
