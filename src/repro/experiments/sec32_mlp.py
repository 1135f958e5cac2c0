"""Section 3.2: memory-level parallelism vs NMP bandwidth and power.

The paper's worked example: a Cortex-A57-class OoO core (128-entry ROB,
one memory access per 6 instructions) sustains ~20 outstanding
accesses; at 30 ns latency and cache-block transfers that approaches
5.3 GB/s of the vault's 8 GB/s -- but the core's 1.5 W dwarfs the
312 mW per-vault budget.  Streaming with stream buffers reaches the full
8 GB/s within 180 mW.
"""

from __future__ import annotations

from typing import Dict

from repro.config.cores import cortex_a35_mondrian, cortex_a57_cpu, krait400_nmp
from repro.config.dram import default_hmc_geometry
from repro.cores.mlp import mlp_limited_bandwidth_bps
from repro.api import format_table

#: The paper's assumptions for this back-of-envelope analysis.
MEM_LATENCY_NS = 30.0
INSTRUCTIONS_PER_MEM = 6.0
#: The paper's example assumes one 8-byte access every 6 instructions,
#: with ~20 of them in flight: 20 x 8 B / 30 ns ~= 5.3 GB/s.
MEM_ACCESS_B = 8
A57_POWER_W = 1.5  # ARM Cortex-A57 at 1.8 GHz / 20 nm (paper's figure)
VAULT_POWER_BUDGET_W = 0.312


def run() -> Dict[str, object]:
    geo = default_hmc_geometry()
    cores = {
        "cortex-a57 (OoO)": (cortex_a57_cpu(), A57_POWER_W),
        "krait400 (OoO)": (krait400_nmp(), krait400_nmp().peak_power_w),
        "mondrian A35+SIMD": (cortex_a35_mondrian(), cortex_a35_mondrian().peak_power_w),
    }
    rows = []
    details = {}
    for name, (core, power_w) in cores.items():
        mlp = core.max_outstanding_mem(INSTRUCTIONS_PER_MEM)
        if core.has_stream_buffers:
            # Streaming saturates the vault's peak (section 5.2).
            bw = geo.vault_peak_bw_bps
        else:
            # Little's law on the 8 B accesses, exactly as the paper does
            # (20 in flight x 8 B / 30 ns ~= 5.3 GB/s).
            bw = mlp_limited_bandwidth_bps(mlp, MEM_LATENCY_NS, MEM_ACCESS_B)
            bw = min(bw, geo.vault_peak_bw_bps)
        within_budget = power_w <= VAULT_POWER_BUDGET_W
        details[name] = {
            "mlp": mlp,
            "bw_gbps": bw / 1e9,
            "power_w": power_w,
            "fits_vault_budget": within_budget,
        }
        rows.append(
            [
                name,
                f"{mlp:.1f}",
                f"{bw / 1e9:.1f} GB/s",
                f"{power_w * 1000:.0f} mW",
                "yes" if within_budget else "NO",
            ]
        )
    a57 = details["cortex-a57 (OoO)"]
    return {
        "details": details,
        "a57_mlp": a57["mlp"],
        "a57_bw_gbps": a57["bw_gbps"],
        "table": format_table(
            ["Core", "MLP", "Bandwidth", "Power", "Fits 312mW budget"], rows
        ),
    }


def main() -> None:
    out = run()
    print("Section 3.2: MLP-limited bandwidth under the vault power budget\n")
    print(out["table"])
    print(
        f"\nA57: ~{out['a57_mlp']:.0f} outstanding accesses -> "
        f"{out['a57_bw_gbps']:.1f} GB/s (paper: ~20 -> 5.3 GB/s of 8 GB/s peak)"
    )


if __name__ == "__main__":
    main()
