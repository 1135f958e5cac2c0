"""Table 2: phases of the basic data operators.

Reproduced *empirically*: each operator is executed in its Mondrian and
CPU variants and the phase records it emitted are classified into
Table 2's columns (histogram build, data distribution, hash-table
build, operation).  The assertions the tests make: Scan has no
partitioning phases; Join/Group by/Sort all have histogram + distribute;
the hash variants add a probe-side hash step while sort variants do not.
"""

from __future__ import annotations

from typing import Dict, List

from repro.api import format_table
from repro.experiments.common import make_workload
from repro.operators import OPERATOR_RUNNERS, OperatorVariant
from repro.operators.base import PHASE_DISTRIBUTE, PHASE_HISTOGRAM, PHASE_PROBE


def _variant(probe: str, num_partitions: int) -> OperatorVariant:
    return OperatorVariant(
        radix_bits=6,
        probe_algorithm=probe,
        permutable=False,
        simd=False,
        num_partitions=num_partitions,
        local_sort="mergesort",
    )


def phase_structure(operator: str, probe: str, num_partitions: int = 8) -> Dict[str, List[str]]:
    """Names of the phases one operator/variant executes, by category."""
    workload = make_workload(operator, seed=11, num_partitions=num_partitions)
    run = OPERATOR_RUNNERS[operator](workload, _variant(probe, num_partitions))
    structure: Dict[str, List[str]] = {
        PHASE_HISTOGRAM: [],
        PHASE_DISTRIBUTE: [],
        PHASE_PROBE: [],
    }
    for phase in run.phases:
        structure[phase.category].append(phase.name)
    return structure


def run(num_partitions: int = 8) -> Dict[str, object]:
    """Reproduce Table 2 from the executed phase records."""
    rows = []
    details = {}
    for operator in ("scan", "join", "groupby", "sort"):
        probe = "hash" if operator in ("join", "groupby") else "sort"
        structure = phase_structure(operator, probe, num_partitions)
        details[operator] = structure
        rows.append(
            [
                operator,
                ", ".join(structure[PHASE_HISTOGRAM]) or "-",
                ", ".join(structure[PHASE_DISTRIBUTE]) or "-",
                ", ".join(structure[PHASE_PROBE]) or "-",
            ]
        )
    table = format_table(
        ["Operator", "Histogram build", "Data distribution", "Probe"], rows
    )
    return {"structure": details, "table": table}


def main() -> None:
    print("Table 2: phases of basic data operators (measured)\n")
    print(run()["table"])


if __name__ == "__main__":
    main()
