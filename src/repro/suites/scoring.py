"""Layered suite scoring: which architecture wins where, and why.

The scoring engine turns a suite grid's tidy records
(:class:`~repro.api.results.ResultSet` rows from
:class:`~repro.suites.runner.SuiteRun`) into a ranked cross-suite
report.  Per (suite, system) cell, four **layers** each score in
``(0, 1]`` relative to the best system *on that suite*:

- ``time`` -- end-to-end runtime, ``best_time / time``;
- ``energy`` -- total energy, ``best_energy / energy``;
- ``balance`` -- stage evenness, ``1 / (n_stages * max stage-time
  fraction)`` (1.0 = perfectly even pipeline, small = one stage
  dominates), normalized by the suite's best;
- ``resilience`` -- fault-protocol overhead when the records carry the
  resilience columns (``best_overhead_factor / overhead_factor`` with
  overhead = retried + stalled bytes over useful bytes); a neutral 1.0
  everywhere for fault-free grids, so default reports do not invent a
  resilience axis.

The **composite** is the weighted sum (:data:`DEFAULT_WEIGHTS`), and
systems are binned into tiers per suite: ``A`` within 90% of the
suite's best composite, ``B`` within 65%, else ``C``.  The report adds
per-suite winners, per-family winners (mean composite over the
family's suites) and the overall ranking; ties break in grid order
(the ``EVALUATED_PRESETS`` order the records arrive in), so the JSON
export is deterministic and golden-testable.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Optional

from repro.api.results import ResultSet, format_table

#: Layer weights of the composite score (must sum to 1).
DEFAULT_WEIGHTS: Dict[str, float] = {
    "time": 0.4,
    "energy": 0.3,
    "balance": 0.15,
    "resilience": 0.15,
}

#: Tier thresholds, as fractions of the suite's best composite.
TIER_THRESHOLDS = (("A", 0.90), ("B", 0.65))

#: Schema tag of the exported report document.
REPORT_SCHEMA = "suite-report/v1"


def _tier(composite: float, best: float) -> str:
    for name, fraction in TIER_THRESHOLDS:
        if composite >= fraction * best:
            return name
    return "C"


def _argmax(cells: Mapping[str, Mapping[str, Any]], key: str) -> str:
    """First-encounter argmax (dict order = grid order = tie-break)."""
    return max(cells, key=lambda s: (cells[s][key], -list(cells).index(s)))


def _cell_metrics(records: List[Dict[str, Any]]) -> Dict[str, float]:
    """Raw per-(suite, system) measurements before cross-system scoring."""
    time_s = sum(r["time_s"] for r in records)
    energy_j = sum(r["energy_j"] for r in records)
    stage_time: Dict[str, float] = {}
    for r in records:
        stage_time[r["stage"]] = stage_time.get(r["stage"], 0.0) + r["time_s"]
    n_stages = max(1, len(stage_time))
    max_fraction = (
        max(stage_time.values()) / time_s if time_s > 0 else 1.0 / n_stages
    )
    balance = 1.0 / (n_stages * max_fraction) if max_fraction > 0 else 1.0
    metrics = {
        "time_s": time_s,
        "energy_j": energy_j,
        "stages": float(n_stages),
        "balance_raw": balance,
    }
    if any("retry_shuffle_b" in r for r in records):
        useful = sum(r["bytes"] for r in records)
        overhead = sum(
            r.get("retry_shuffle_b", 0.0) + r.get("backoff_stall_b", 0.0)
            for r in records
        )
        metrics["overhead_factor"] = 1.0 + (overhead / useful if useful else 0.0)
    return metrics


def score_records(
    results: ResultSet, weights: Optional[Mapping[str, float]] = None
) -> Dict[str, Any]:
    """Score a suite grid's records into the ranked report document."""
    weights = dict(DEFAULT_WEIGHTS if weights is None else weights)
    if sorted(weights) != sorted(DEFAULT_WEIGHTS):
        raise ValueError(
            f"weights must name exactly the layers {sorted(DEFAULT_WEIGHTS)}"
        )
    total_w = sum(weights.values())
    if total_w <= 0:
        raise ValueError("weights must sum to a positive total")
    weights = {k: v / total_w for k, v in weights.items()}

    if not len(results):
        raise ValueError("no records to score; run the suites first")

    # Group the tidy rows by suite, then system, in first-appearance
    # (grid) order -- the deterministic tie-break everywhere below.
    grouped: Dict[str, Dict[str, List[Dict[str, Any]]]] = {}
    families: Dict[str, str] = {}
    for record in results:
        suite = record["suite"]
        families.setdefault(suite, record["family"])
        grouped.setdefault(suite, {}).setdefault(record["system"], []).append(
            record
        )

    suites_report: Dict[str, Any] = {}
    for suite, per_system in grouped.items():
        cells = {sys: _cell_metrics(recs) for sys, recs in per_system.items()}
        best_time = min(c["time_s"] for c in cells.values())
        best_energy = min(c["energy_j"] for c in cells.values())
        best_balance = max(c["balance_raw"] for c in cells.values())
        overheads = [
            c["overhead_factor"] for c in cells.values() if "overhead_factor" in c
        ]
        best_overhead = min(overheads) if overheads else None
        scored: Dict[str, Any] = {}
        for system, cell in cells.items():
            layers = {
                "time": best_time / cell["time_s"] if cell["time_s"] else 1.0,
                "energy": (
                    best_energy / cell["energy_j"] if cell["energy_j"] else 1.0
                ),
                "balance": (
                    cell["balance_raw"] / best_balance if best_balance else 1.0
                ),
                "resilience": (
                    best_overhead / cell["overhead_factor"]
                    if best_overhead is not None and "overhead_factor" in cell
                    else 1.0
                ),
            }
            composite = sum(weights[k] * layers[k] for k in weights)
            scored[system] = {
                "time_s": cell["time_s"],
                "energy_j": cell["energy_j"],
                "layers": layers,
                "composite": composite,
            }
        best_composite = max(s["composite"] for s in scored.values())
        for entry in scored.values():
            entry["tier"] = _tier(entry["composite"], best_composite)
        suites_report[suite] = {
            "family": families[suite],
            "winner": _argmax(scored, "composite"),
            "systems": scored,
        }

    # Family and overall rollups: mean composite over member suites.
    family_scores: Dict[str, Dict[str, List[float]]] = {}
    overall: Dict[str, List[float]] = {}
    for suite, entry in suites_report.items():
        for system, cell in entry["systems"].items():
            family_scores.setdefault(entry["family"], {}).setdefault(
                system, []
            ).append(cell["composite"])
            overall.setdefault(system, []).append(cell["composite"])
    families_report = {
        family: {
            "mean_composite": {
                system: sum(vals) / len(vals) for system, vals in per_sys.items()
            },
        }
        for family, per_sys in family_scores.items()
    }
    for family, entry in families_report.items():
        entry["winner"] = _argmax(
            {s: {"composite": v} for s, v in entry["mean_composite"].items()},
            "composite",
        )
    ranking = [
        {"system": system, "score": sum(vals) / len(vals)}
        for system, vals in overall.items()
    ]
    ranking.sort(key=lambda e: -e["score"])

    return {
        "schema": REPORT_SCHEMA,
        "weights": weights,
        "suites": suites_report,
        "families": families_report,
        "ranking": ranking,
    }


def report_json(report: Mapping[str, Any]) -> str:
    """Deterministic JSON text of a report (sorted keys; the golden)."""
    return json.dumps(report, indent=2, sort_keys=True)


def render_report(report: Mapping[str, Any]) -> str:
    """The human report: per-suite tiers + family winners + ranking."""
    lines: List[str] = []
    lines.append("Per-suite scores (composite in (0, 1], tiered per suite):")
    rows = []
    for suite, entry in report["suites"].items():
        for system, cell in entry["systems"].items():
            layers = cell["layers"]
            rows.append(
                [
                    suite,
                    system,
                    f"{cell['time_s']:.4g}",
                    f"{cell['energy_j']:.4g}",
                    f"{layers['time']:.3f}",
                    f"{layers['energy']:.3f}",
                    f"{layers['balance']:.3f}",
                    f"{layers['resilience']:.3f}",
                    f"{cell['composite']:.3f}",
                    cell["tier"] + (" *" if system == entry["winner"] else ""),
                ]
            )
    lines.append(
        format_table(
            [
                "suite",
                "system",
                "time_s",
                "energy_j",
                "s_time",
                "s_energy",
                "s_balance",
                "s_resil",
                "composite",
                "tier",
            ],
            rows,
        )
    )
    lines.append("")
    lines.append("Family winners (mean composite over the family's suites):")
    lines.append(
        format_table(
            ["family", "winner", "mean_composite"],
            [
                [
                    family,
                    entry["winner"],
                    f"{entry['mean_composite'][entry['winner']]:.3f}",
                ]
                for family, entry in report["families"].items()
            ],
        )
    )
    lines.append("")
    lines.append("Overall ranking (mean composite across all suites):")
    lines.append(
        format_table(
            ["rank", "system", "score"],
            [
                [str(i + 1), entry["system"], f"{entry['score']:.3f}"]
                for i, entry in enumerate(report["ranking"])
            ],
        )
    )
    return "\n".join(lines)
