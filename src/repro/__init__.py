"""repro: a reproduction of *The Mondrian Data Engine* (ISCA 2017).

The package implements, from scratch, every subsystem the paper's
evaluation depends on:

- an HMC-style stacked-DRAM model with the Table 3 timing parameters
  (:mod:`repro.dram`);
- the vault controllers' permutable-write engine and shuffle barrier
  (:mod:`repro.memctrl`);
- on-chip mesh and inter-device SerDes interconnects
  (:mod:`repro.interconnect`);
- analytic core models for out-of-order and in-order-SIMD compute units
  (:mod:`repro.cores`);
- the four basic data operators -- Scan, Sort, Group by, Join -- in both
  the CPU-preferred hash-based form and the NMP-preferred sort-based form
  (:mod:`repro.operators`);
- the partitioning-phase data shuffle with network message interleaving
  (:mod:`repro.shuffle`);
- the Table 4 energy model (:mod:`repro.energy`) and the paper's
  IPC-times-instructions performance model (:mod:`repro.perf`);
- the six evaluated system configurations (:mod:`repro.systems`);
- one experiment driver per table/figure of the paper
  (:mod:`repro.experiments`); and
- the declarative scenario API -- SystemSpec builders, Scenario/Sweep
  grids and tidy ResultSet exports (:mod:`repro.api`); and
- the evaluation service -- content-addressed persistent result store,
  batching scheduler and serving daemon (:mod:`repro.service`).

Quickstart::

    from repro import systems, analytics
    workload = analytics.make_join_workload(n_r=10_000, n_s=40_000, seed=1)
    machine = systems.build_system("mondrian")
    result = machine.run_operator("join", workload)
    print(result.runtime_s, result.energy.total_j)
"""

import importlib

from repro.version import __version__

_SUBMODULES = (
    "analytics",
    "api",
    "config",
    "cores",
    "dram",
    "energy",
    "experiments",
    "interconnect",
    "memctrl",
    "operators",
    "perf",
    "service",
    "shuffle",
    "systems",
)

__all__ = list(_SUBMODULES) + ["__version__"]


def __getattr__(name):
    """Lazily import subpackages on first attribute access (PEP 562)."""
    if name in _SUBMODULES:
        module = importlib.import_module(f"repro.{name}")
        globals()[name] = module
        return module
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


def __dir__():
    return sorted(__all__)
