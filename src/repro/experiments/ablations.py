"""Ablation sweeps over the Mondrian design choices (DESIGN.md section 5).

1. **SIMD width** -- 128 to 1024 bits: the paper sizes the unit so eight
   16 B tuples process per instruction; narrower units leave the probe
   phase compute-bound.
2. **Row-buffer size** -- HMC 256 B vs HBM 2 KB vs Wide I/O 2 4 KB: the
   permutability energy saving grows with the row buffer (more wasted
   activation energy per random write).
3. **Scheduler window** -- how far FR-FCFS reordering alone can recover
   row locality from interleaved shuffle traffic without permutability
   (paper section 4.1.2: the distance is "typically too long for this
   scheduling window").
"""

from __future__ import annotations

from typing import Dict

from repro.analytics.tuples import TUPLE_B
from repro.api import Scenario, SystemSpec, format_table
from repro.config.dram import DramTiming, HmcGeometry
from repro.config.energy import default_energy_config
from repro.dram.analytic import InterleavedWrites, estimate_pattern
from repro.experiments.common import MODEL_SCALE


def simd_width_sweep(
    widths=(128, 256, 512, 1024), scale: float = MODEL_SCALE
) -> Dict[int, float]:
    """Mondrian join runtime vs SIMD width (seconds).

    Each width is a one-line :class:`SystemSpec` derivation -- the
    scenario API's core use case (hardware points the paper never
    measured).
    """
    runtimes = {}
    for width in widths:
        spec = SystemSpec("mondrian").with_simd(width).named(f"mondrian-simd{width}")
        runtimes[width] = (
            Scenario(spec, "join", model_scale=scale, seed=23).result().runtime_s
        )
    return runtimes


def row_buffer_sweep() -> Dict[int, Dict[str, float]]:
    """Shuffle-write activation energy: addressed vs permutable, per
    row-buffer size (joules per 2^20 shuffled 16 B tuples)."""
    energy = default_energy_config()
    timing = DramTiming()
    results = {}
    for row_b in (256, 2048, 4096):
        geo = HmcGeometry(row_size_b=row_b)
        # Activation energy scales with the row (HBM/WideIO2 copy more
        # cells per activation), which is exactly why the paper calls the
        # small-rowed HMC "a conservative example" (section 3.1).
        activation_j = energy.activation_j_for_row(row_b)
        total_b = (1 << 20) * TUPLE_B
        out = {}
        for label, permutable in (("addressed", False), ("permutable", True)):
            est = estimate_pattern(
                InterleavedWrites(
                    total_b=total_b, object_b=TUPLE_B, num_sources=63, permutable=permutable
                ),
                geo,
                timing,
            )
            out[label] = (
                est.activations * activation_j
                + est.bytes * 8 * energy.dram_access_j_per_bit
            )
        out["saving"] = out["addressed"] / out["permutable"]
        results[row_b] = out
    return results


def scheduler_window_sweep() -> Dict[int, float]:
    """Row-hit rate of addressed shuffle writes vs FR-FCFS window size
    (2^16 tuples from 63 sources).

    Shows that reordering alone only recovers locality once the window
    covers the source-interleave distance (~63 messages) -- far larger
    than practical scheduling windows.
    """
    geo = HmcGeometry()
    timing = DramTiming()
    hit_rates = {}
    for window in (4, 8, 16, 32, 64, 128):
        est = estimate_pattern(
            InterleavedWrites(
                total_b=(1 << 16) * TUPLE_B,
                object_b=TUPLE_B,
                num_sources=63,
                permutable=False,
            ),
            geo,
            timing,
            scheduler_window=window,
        )
        hit_rates[window] = est.row_hit_rate
    return hit_rates


def run(scale: float = MODEL_SCALE) -> Dict[str, object]:
    simd = simd_width_sweep(scale=scale)
    rows_simd = [
        [f"{w} bits", f"{t * 1e3:.2f} ms", f"{simd[128] / t:.2f}x"]
        for w, t in simd.items()
    ]
    row_buf = row_buffer_sweep()
    rows_rb = [
        [f"{rb} B", f"{v['addressed']:.4f} J", f"{v['permutable']:.4f} J", f"{v['saving']:.1f}x"]
        for rb, v in row_buf.items()
    ]
    window = scheduler_window_sweep()
    rows_win = [[str(w), f"{hr * 100:.0f}%"] for w, hr in window.items()]
    return {
        "simd": simd,
        "row_buffer": row_buf,
        "window": window,
        "simd_table": format_table(["SIMD width", "Join runtime", "vs 128b"], rows_simd),
        "row_buffer_table": format_table(
            ["Row buffer", "Addressed", "Permutable", "Saving"], rows_rb
        ),
        "window_table": format_table(["FR-FCFS window", "Row-hit rate"], rows_win),
    }


def main() -> None:
    out = run()
    print("Ablation 1: SIMD width (Mondrian, Join)\n")
    print(out["simd_table"])
    print("\nAblation 2: row-buffer size vs permutability saving\n")
    print(out["row_buffer_table"])
    print("\nAblation 3: FR-FCFS window vs shuffle row-hit rate\n")
    print(out["window_table"])


if __name__ == "__main__":
    main()
