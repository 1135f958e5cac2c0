"""Benchmark suites: typed workload families, analytic query suites,
and the cross-suite ranking report.

The declarative layer above the scenario/pipeline APIs:

- :mod:`repro.suites.families` -- deterministic typed generators
  (composite packed keys, dictionary-encoded strings, tumbling-window
  streams, named Zipf skew presets);
- :mod:`repro.suites.registry` -- named multi-operator query suites
  built from those families (:data:`SUITES`);
- :mod:`repro.suites.runner` -- the cached suite x system-preset grid
  driver (:class:`SuiteRun`, :class:`SuitePoint`);
- :mod:`repro.suites.scoring` -- the layered scoring engine and the
  tiered "which architecture wins where" report.

CLI: ``python -m repro.suites run|list|score`` (see USAGE.md).

>>> from repro.suites import SUITES, FAMILIES
>>> sorted(FAMILIES) == sorted({s.family_name for s in SUITES.values()})
True
"""

from repro.suites.families import (
    ColumnSpec,
    CompositeKeyFamily,
    DictEncoder,
    SKEW_PRESETS,
    SkewFamily,
    StringKeyFamily,
    WindowedFamily,
    pack_columns,
    product_vocabulary,
)
from repro.suites.registry import FAMILIES, SUITES, Suite, get_suite
from repro.suites.runner import (
    DEFAULT_SCALE,
    SuiteOutcome,
    SuitePoint,
    SuiteRun,
    functional_digests,
    run_suite_point,
)
from repro.suites.scoring import (
    DEFAULT_WEIGHTS,
    render_report,
    report_json,
    score_records,
)

__all__ = [
    "ColumnSpec",
    "CompositeKeyFamily",
    "DEFAULT_SCALE",
    "DEFAULT_WEIGHTS",
    "DictEncoder",
    "FAMILIES",
    "SKEW_PRESETS",
    "SUITES",
    "SkewFamily",
    "StringKeyFamily",
    "Suite",
    "SuiteOutcome",
    "SuitePoint",
    "SuiteRun",
    "WindowedFamily",
    "functional_digests",
    "get_suite",
    "pack_columns",
    "product_vocabulary",
    "render_report",
    "report_json",
    "run_suite_point",
    "score_records",
]
