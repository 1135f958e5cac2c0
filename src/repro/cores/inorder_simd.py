"""The Mondrian compute unit: in-order dual-issue core + wide SIMD +
stream buffers (paper section 5.2).

Model highlights:

- Element operations marked SIMD-vectorizable execute ``lanes`` at a
  time (a 1024-bit unit processes eight 16 B tuples per instruction --
  the paper's sizing argument: one tuple every 4 cycles at 1 GHz matches
  8 GB/s, so 8 lanes give 8 tuples per 32 cycles of slack).
- Streams are fed by the binding-prefetch stream buffers, which decouple
  memory from the pipeline: a streaming phase runs at
  ``min(compute rate, vault bandwidth)`` with no latency stalls
  (``tests/test_energy_perf.py::TestMemEnvironment::test_stream_buffers_hide_dram_latency``
  checks every stream-buffer preset's rate against the vault peak and
  the 384 B buffer's latency cover).
- Random accesses are poison for this core: in-order, no ROB, MLP is
  essentially the stream-buffer count when accesses are independent and
  1 otherwise.  Mondrian's algorithms avoid them; the model charges the
  full penalty when a profile contains them (that is what the
  Mondrian-noperm / NMP-seq comparisons exercise).
"""

from __future__ import annotations

from repro.cores.base import CoreEstimate, CoreModel
from repro.cores.mlp import mlp_limited_bandwidth_bps
from repro.cores.profile import MemEnvironment, WorkProfile

#: In-order pipelines expose less compute/memory overlap than OoO ones,
#: but the stream buffers decouple streaming loads; dependency stalls on
#: random loads are what remains.
INORDER_STREAM_OVERLAP = 0.95
INORDER_RANDOM_OVERLAP = 0.30


class InOrderSimdCoreModel(CoreModel):
    """Dual-issue in-order core with a wide fixed-point SIMD unit."""

    def estimate(self, profile: WorkProfile, env: MemEnvironment) -> CoreEstimate:
        cfg = self._config
        cycle_ns = cfg.cycle_time_ns

        # Compute: vectorizable element ops collapse into wide
        # instructions; the scalar remainder issues at the dependency-
        # limited rate on the dual-issue pipeline.
        issue_ipc = min(float(cfg.issue_width), profile.dep_ilp)
        if profile.simd_vectorizable and profile.simd_ops and cfg.simd_width_bits:
            lanes = cfg.simd_lanes_64b
            simd_instructions = profile.simd_ops / lanes
            scalar_instructions = max(
                0.0, profile.instructions - profile.simd_ops
            )
            # The SIMD unit issues one wide op per cycle alongside the
            # scalar pipe (dual issue).
            compute_cycles = max(
                simd_instructions, scalar_instructions / issue_ipc
            )
        else:
            compute_cycles = profile.instructions / issue_ipc
        compute_ns = compute_cycles * cycle_ns

        # Random-access latency: in-order core, accesses stall the pipe.
        latency_ns_total = 0.0
        if profile.rand_accesses:
            latency = env.effective_rand_latency_ns(profile.remote_fraction)
            mlp = max(1.0, min(float(cfg.mshrs), profile.mem_parallelism))
            core_bw = mlp_limited_bandwidth_bps(mlp, latency, profile.rand_access_b)
            effective_bw = min(env.rand_bw_bps, core_bw)
            bytes_rand = profile.rand_accesses * profile.rand_access_b
            latency_ns_total = bytes_rand / effective_bw * 1e9

        # Streaming: stream buffers sustain the device's sequential rate.
        bandwidth_ns = 0.0
        seq_bytes = profile.seq_read_b + profile.seq_write_b
        if seq_bytes:
            bandwidth_ns = seq_bytes / env.seq_bw_bps * 1e9

        overlap = (
            INORDER_STREAM_OVERLAP
            if profile.rand_accesses == 0
            else INORDER_RANDOM_OVERLAP
        )
        return self._finish(
            profile, compute_ns, latency_ns_total, bandwidth_ns, overlap
        )
