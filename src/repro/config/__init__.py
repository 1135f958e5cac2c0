"""System configuration: the paper's Table 3 (simulation parameters) and
Table 4 (power/energy of system components), plus presets for every
evaluated system configuration.

All quantities carry explicit units in their field names (``_ns``, ``_b``
for bytes, ``_w`` for watts, ``_j`` for joules, ``_hz``).
"""

from repro.config.cores import (
    CoreConfig,
    cortex_a35_mondrian,
    cortex_a57_cpu,
    krait400_nmp,
)
from repro.config.dram import DramTiming, HmcGeometry, default_hmc_geometry
from repro.config.energy import EnergyConfig, default_energy_config
from repro.config.interconnect import InterconnectConfig
from repro.config.system import (
    EVALUATED_PRESETS,
    SYSTEM_PRESETS,
    SystemConfig,
    get_preset,
)

__all__ = [
    "CoreConfig",
    "DramTiming",
    "EVALUATED_PRESETS",
    "EnergyConfig",
    "HmcGeometry",
    "InterconnectConfig",
    "SYSTEM_PRESETS",
    "SystemConfig",
    "cortex_a35_mondrian",
    "cortex_a57_cpu",
    "default_energy_config",
    "default_hmc_geometry",
    "get_preset",
    "krait400_nmp",
]
