"""Analytic compute-unit performance models.

The paper's methodology (section 6) measures IPC with sampled
cycle-accurate simulation and multiplies by functionally-measured
instruction counts.  We mirror the structure: operators produce
:class:`~repro.cores.profile.WorkProfile` descriptions of their dynamic
work (instruction counts, data-dependency ILP, memory accesses by
pattern), and the core models turn a profile plus a
:class:`~repro.cores.profile.MemEnvironment` into cycles, an effective
IPC and a bandwidth demand.

Two model families cover the three machines:

- :class:`~repro.cores.ooo.OutOfOrderCoreModel` -- Cortex-A57 (CPU) and
  Krait400 (NMP baseline): ROB-limited memory-level parallelism,
  overlap of compute and memory.
- :class:`~repro.cores.inorder_simd.InOrderSimdCoreModel` -- the Mondrian
  unit: dual-issue in-order with a wide fixed-point SIMD unit fed by
  stream buffers.
"""

from repro.cores.base import CoreEstimate, CoreModel
from repro.cores.inorder_simd import InOrderSimdCoreModel
from repro.cores.mlp import mlp_limited_bandwidth_bps
from repro.cores.ooo import OutOfOrderCoreModel
from repro.cores.profile import MemEnvironment, WorkProfile

__all__ = [
    "CoreEstimate",
    "CoreModel",
    "InOrderSimdCoreModel",
    "MemEnvironment",
    "OutOfOrderCoreModel",
    "WorkProfile",
    "mlp_limited_bandwidth_bps",
]


def build_core_model(core_config) -> CoreModel:
    """Pick the model family matching a :class:`repro.config.CoreConfig`."""
    if core_config.out_of_order:
        return OutOfOrderCoreModel(core_config)
    return InOrderSimdCoreModel(core_config)
