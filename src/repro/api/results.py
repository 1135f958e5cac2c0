"""Tidy result records: the scenario API's output container.

A :class:`ResultSet` holds flat per-phase/per-energy-component records
(one dict per evaluated phase) and offers the small set of dataframe-ish
verbs experiment scripts actually need -- filtering, pivoting, column
selection, JSON/CSV export -- without a pandas dependency.  Figures pull
rows out of one ResultSet and render them with :func:`format_table`,
the one fixed-width table style every report uses.

Records are plain dicts of JSON-serializable scalars, so a ResultSet
round-trips losslessly through ``to_json``/``from_json`` (the sweep-smoke
golden test relies on that) and pickles cleanly across the ``--jobs``
process pool.

This module deliberately imports nothing from the rest of the package,
so low layers (``repro.pipeline.report``) can share :func:`format_table`
without an import cycle.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional


def format_table(headers: List[str], rows: List[List[Any]]) -> str:
    """Fixed-width ASCII table: the one table style every report uses."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), max((len(r[i]) for r in str_rows), default=0))
        for i in range(len(headers))
    ]
    def fmt(row):
        return "  ".join(c.ljust(w) for c, w in zip(row, widths))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(r) for r in str_rows)
    return "\n".join(lines)


class ResultSet:
    """An ordered collection of tidy result records.

    Every record is one evaluated phase: scenario coordinates (system,
    workload, scale, seed, ...), the phase's identity and time, and its
    energy split by component.  All verbs return new ResultSets or plain
    data; a ResultSet is never mutated after construction.
    """

    def __init__(self, records: Iterable[Mapping[str, Any]] = ()) -> None:
        self._records: List[Dict[str, Any]] = [dict(r) for r in records]

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self.to_records())

    def __add__(self, other: "ResultSet") -> "ResultSet":
        return ResultSet(self._records + other.to_records())

    def __repr__(self) -> str:
        return f"ResultSet({len(self._records)} records x {len(self.columns)} columns)"

    # -- access -------------------------------------------------------------

    def to_records(self) -> List[Dict[str, Any]]:
        """The records as a list of fresh dicts (callers may mutate)."""
        return [dict(r) for r in self._records]

    @property
    def columns(self) -> List[str]:
        """Union of record keys, in first-appearance order."""
        seen: Dict[str, None] = {}
        for record in self._records:
            for key in record:
                seen.setdefault(key)
        return list(seen)

    def unique(self, column: str) -> List[Any]:
        """Distinct values of one column, in first-appearance order."""
        seen: Dict[Any, None] = {}
        for record in self._records:
            if column in record:
                seen.setdefault(record[column])
        return list(seen)

    # -- filtering / aggregation --------------------------------------------

    def filter(
        self, predicate: Optional[Callable[[Dict[str, Any]], bool]] = None, **equals
    ) -> "ResultSet":
        """Records matching all ``column=value`` pairs (and ``predicate``).

        >>> rs = ResultSet([{"s": "cpu", "t": 1.0}, {"s": "mondrian", "t": 2.0}])
        >>> len(rs.filter(s="cpu"))
        1
        """
        def keep(record: Dict[str, Any]) -> bool:
            if any(record.get(k) != v for k, v in equals.items()):
                return False
            return predicate(record) if predicate is not None else True

        return ResultSet(r for r in self._records if keep(r))

    def total(self, column: str, **equals) -> float:
        """Sum of one numeric column over the matching records."""
        return float(
            sum(r[column] for r in self.filter(**equals)._records if column in r)
        )

    def pivot(self, index: str, columns: str, values: str) -> Dict[Any, Dict[Any, Any]]:
        """Sum ``values`` into a dict-of-dicts spreadsheet.

        Row and column orders follow first appearance, so reports built
        from a pivot are deterministic.

        Numeric cells sum as floats.  Non-numeric values (the suite
        records' string-typed ``suite``/``family``/label columns) pass
        through instead of raising: a cell keeps its first value, so a
        label column pivots to the label, not to an error.
        """
        cells: Dict[Any, Dict[Any, List[Any]]] = {}
        for record in self._records:
            if index not in record or columns not in record or values not in record:
                continue
            row = cells.setdefault(record[index], {})
            row.setdefault(record[columns], []).append(record[values])

        def cell(vs: List[Any]) -> Any:
            try:
                return sum(float(v) for v in vs)
            except (TypeError, ValueError):
                return vs[0]

        return {
            row: {col: cell(vs) for col, vs in row_cells.items()}
            for row, row_cells in cells.items()
        }

    # -- rendering / export -------------------------------------------------

    def table(self, columns: Optional[List[str]] = None) -> str:
        """The records as a fixed-width ASCII table (report style)."""
        cols = columns if columns is not None else self.columns
        rows = [[record.get(c, "") for c in cols] for record in self._records]
        return format_table(list(cols), rows)

    def to_json(self, path: Optional[str] = None) -> str:
        """Serialize to a JSON array of records; optionally write ``path``."""
        text = json.dumps(self._records, indent=2, sort_keys=True)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        return text

    @classmethod
    def from_json(cls, text: str) -> "ResultSet":
        records = json.loads(text)
        if not isinstance(records, list):
            raise ValueError("expected a JSON array of records")
        return cls(records)

    def to_csv(self, path: Optional[str] = None) -> str:
        """Serialize to CSV (header = :attr:`columns`); optionally write."""
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=self.columns)
        writer.writeheader()
        writer.writerows(self._records)
        text = buffer.getvalue()
        if path is not None:
            with open(path, "w", newline="") as fh:
                fh.write(text)
        return text
