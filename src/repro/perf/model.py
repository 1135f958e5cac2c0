"""Phase evaluation: one PhaseCost on one machine.

For each phase the evaluator:

1. divides the aggregate work over the machine's compute units and runs
   the matching core model (OoO or in-order SIMD);
2. applies system-level caps the per-unit model cannot see -- the
   all-to-all shuffle's SerDes egress limit and the destination vaults'
   sustainable write rate for interleaved (addressed vs permutable)
   traffic;
3. produces the DRAM/network event counts the energy model charges.

Phase time is the max of the core time and the system-level caps: the
units run the same uniform work in parallel, and whichever resource
saturates first paces the phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.config.system import SystemConfig
from repro.cores import build_core_model
from repro.cores.base import CoreEstimate
from repro.cores.profile import WorkProfile
from repro.dram.analytic import (
    InterleavedWrites,
    RandomAccesses,
    estimate_pattern,
)
from repro.energy.model import EnergyEvents
from repro.interconnect.topology import Topology
from repro.operators.base import PhaseCost
from repro.perf.memenv import derive_mem_environment, rand_region_cache_level


@dataclass
class PhasePerf:
    """Evaluated performance of one phase on one machine."""

    phase: PhaseCost
    time_ns: float
    core: CoreEstimate
    events: EnergyEvents
    core_utilization: float
    limits: Dict[str, float]

    @property
    def time_s(self) -> float:
        return self.time_ns * 1e-9

    @property
    def achieved_bw_bps(self) -> float:
        """System-wide bytes moved per second during this phase."""
        if self.time_ns <= 0:
            return 0.0
        return self.phase.total_bytes / (self.time_ns * 1e-9)


class PhaseEvaluator:
    """Evaluates phases for one (config, topology) machine."""

    def __init__(self, config: SystemConfig, topology: Topology) -> None:
        self._config = config
        self._topology = topology
        self._core_model = build_core_model(config.core)

    @property
    def config(self) -> SystemConfig:
        return self._config

    def _unit_profile(self, phase: PhaseCost) -> WorkProfile:
        """Divide a phase over the units and express its memory behaviour
        the way this machine's cores experience it.

        Shuffle-phase writes diverge by machine: NMP units inject posted
        write messages straight into the memory network (fire-and-forget,
        so the core sees them as streamed output), while CPU cores push
        them through the coherent cache hierarchy -- each tuple write
        allocates its destination line (RFO), a dependent remote access.
        Permutable shuffles stream on every machine.
        """
        cfg = self._config
        units = cfg.num_cores
        remote_fraction = 0.0
        rand_reads = phase.rand_reads
        rand_writes = phase.rand_writes
        rand_access_b = phase.rand_access_b
        seq_write_b = phase.seq_write_b

        if phase.shuffle_b:
            remote_fraction = (units - 1) / units if units > 1 else 0.0
            if cfg.is_near_memory or phase.permutable_writes:
                # Posted/permutable: the shuffle bytes stream out.
                seq_write_b += phase.shuffle_b
                rand_writes = 0.0
            # else: the CPU's addressed writes stay in rand_writes (the
            # RFO path); the bytes are accounted there, not as streams.

        # Machines with caches move cache blocks on random DRAM misses.
        if cfg.has_cache_hierarchy and phase.rand_region_b > cfg.core.l1d_b:
            rand_access_b = max(rand_access_b, cfg.core.cache_block_b)

        return WorkProfile(
            name=phase.name,
            instructions=phase.instructions / units,
            simd_ops=phase.simd_ops / units,
            dep_ilp=phase.dep_ilp,
            mem_parallelism=phase.mem_parallelism,
            rand_reads=rand_reads / units,
            rand_writes=rand_writes / units,
            rand_access_b=rand_access_b,
            seq_read_b=phase.seq_read_b / units,
            seq_write_b=seq_write_b / units,
            remote_fraction=remote_fraction,
            simd_vectorizable=phase.simd_vectorizable,
        )

    def _system_caps(self, phase: PhaseCost) -> Dict[str, float]:
        """System-level time floors (ns) beyond the per-unit core model."""
        caps: Dict[str, float] = {}
        geo = self._config.geometry
        if phase.shuffle_b:
            # SerDes egress across all stacks.  Fault-injection retries
            # re-cross the wire and backoff/straggler stalls hold it idle
            # (both expressed in bytes at this bandwidth), so the egress
            # cap prices the whole disrupted critical path.
            network_bw = self._topology.shuffle_egress_bw_bps() * geo.num_stacks
            wire_b = phase.shuffle_b + phase.retry_shuffle_b + phase.backoff_stall_b
            caps["network"] = wire_b / network_bw * 1e9
            # Destination vaults absorbing interleaved writes.
            per_vault_b = phase.shuffle_b / geo.total_vaults
            pattern = InterleavedWrites(
                total_b=int(per_vault_b),
                object_b=phase.object_b,
                num_sources=max(1, self._config.num_cores - 1),
                permutable=phase.permutable_writes,
            )
            est = estimate_pattern(pattern, geo, self._config.timing)
            caps["dest_dram"] = per_vault_b / est.sustainable_bw_bps * 1e9
        return caps

    def _events(self, phase: PhaseCost, time_ns: float) -> EnergyEvents:
        """DRAM/LLC/network event counts of one phase, system-wide."""
        geo = self._config.geometry
        cfg = self._config
        activations = 0.0
        dram_bytes = 0.0
        llc_accesses = 0.0
        serdes_bytes = 0.0
        noc_bit_mm = 0.0
        # Mean distance a bit travels on a stack's mesh, at 1 mm per hop.
        mean_mm = self._topology.mesh.mean_hops()

        # Sequential streams: one activation per row.
        seq_bytes = phase.seq_read_b + phase.seq_write_b
        if seq_bytes:
            activations += seq_bytes / geo.row_size_b
            dram_bytes += seq_bytes

        # Random accesses: depends on which level captures the region.
        # Shuffle-phase writes are charged once, as interleaved writes at
        # the destinations (below), never as plain random traffic.
        level = rand_region_cache_level(cfg, phase.rand_region_b)
        rand_count = phase.rand_reads + (0 if phase.shuffle_b else phase.rand_writes)
        if rand_count:
            if level == "memory":
                access_b = (
                    cfg.core.cache_block_b
                    if cfg.has_cache_hierarchy
                    else max(phase.rand_access_b, geo.min_access_b)
                )
                pattern = RandomAccesses(
                    count=int(rand_count),
                    access_b=access_b,
                    region_b=phase.rand_region_b,
                )
                est = estimate_pattern(pattern, geo, cfg.timing)
                activations += est.activations
                dram_bytes += est.bytes
            elif level == "llc":
                llc_accesses += rand_count

        # Shuffle traffic: interleaved writes at the destinations.
        if phase.shuffle_b:
            per_vault_b = phase.shuffle_b / geo.total_vaults
            pattern = InterleavedWrites(
                total_b=int(per_vault_b),
                object_b=phase.object_b,
                num_sources=max(1, cfg.num_cores - 1),
                permutable=phase.permutable_writes,
            )
            est = estimate_pattern(pattern, geo, cfg.timing)
            activations += est.activations * geo.total_vaults
            dram_bytes += phase.shuffle_b
            remote = phase.shuffle_b * (geo.num_stacks - 1) / geo.num_stacks
            if cfg.is_near_memory:
                serdes_bytes += remote
            else:
                serdes_bytes += phase.shuffle_b * 2  # up to the hub, back down
            noc_bit_mm += phase.shuffle_b * 8 * mean_mm

        # Fault-injection retries: re-sent and duplicated deliveries burn
        # SerDes and NoC energy like shuffle traffic, but never commit to
        # destination DRAM (drops are lost in flight, duplicates are
        # discarded at the controller).  Backoff stall is idle time --
        # no dynamic events; leakage scales with phase time as usual.
        if phase.retry_shuffle_b:
            if cfg.is_near_memory:
                serdes_bytes += (
                    phase.retry_shuffle_b * (geo.num_stacks - 1) / geo.num_stacks
                )
            else:
                serdes_bytes += phase.retry_shuffle_b * 2
            noc_bit_mm += phase.retry_shuffle_b * 8 * mean_mm

        # CPU-centric: *all* DRAM traffic crosses a SerDes link and the
        # mesh, and every cache-block demand touches the LLC.
        if not cfg.is_near_memory:
            serdes_bytes += seq_bytes
            noc_bit_mm += seq_bytes * 8 * mean_mm
            llc_accesses += seq_bytes / cfg.core.cache_block_b
            if rand_count and level == "memory":
                serdes_bytes += rand_count * cfg.core.cache_block_b
                noc_bit_mm += rand_count * cfg.core.cache_block_b * 8 * mean_mm

        return EnergyEvents(
            dram_activations=activations,
            dram_bytes=dram_bytes,
            llc_accesses=llc_accesses,
            noc_bit_mm=noc_bit_mm,
            serdes_bytes=serdes_bytes,
        )

    def evaluate(self, phase: PhaseCost) -> PhasePerf:
        """Time, events and utilization of one phase on this machine."""
        profile = self._unit_profile(phase)
        env = derive_mem_environment(self._config, self._topology, phase)
        core = self._core_model.estimate(profile, env)
        limits = {"core": core.time_ns}
        limits.update(self._system_caps(phase))
        time_ns = max(limits.values())
        events = self._events(phase, time_ns)
        utilization = _core_utilization(core, time_ns)
        return PhasePerf(
            phase=phase,
            time_ns=time_ns,
            core=core,
            events=events,
            core_utilization=utilization,
            limits=limits,
        )


#: Floor utilization: a stalled core still burns leakage + clock power.
MIN_CORE_UTILIZATION = 0.3


def _core_utilization(core: CoreEstimate, phase_time_ns: float) -> float:
    """Fraction of peak core power drawn during the phase.

    Utilization follows the share of time the pipeline is doing useful
    work (compute time over total phase time), floored by idle power.
    """
    if phase_time_ns <= 0:
        return MIN_CORE_UTILIZATION
    busy = min(1.0, core.compute_time_ns / phase_time_ns)
    return max(MIN_CORE_UTILIZATION, busy)
