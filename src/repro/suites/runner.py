"""The suite driver: every suite x every system preset, cached end-to-end.

:func:`run_suite_point` evaluates one :class:`SuitePoint` (suite x
system x scale x seed x partitions) through the same three-tier lookup
operator scenarios use (:func:`repro.experiments.common.tiered`): an
in-process memory tier (a :class:`~repro.experiments.common.CacheTier`
enrolled via ``register_cache_tier`` so ``clear_caches``/``cache_stats``
cover it), a probe of the persistent content-addressed store
(``REPRO_STORE`` / ``--store``; documents use the ``suite-run/v1``
schema of :mod:`repro.service.codec`), and only then a real
:meth:`~repro.systems.machine.Machine.run_pipeline` execution whose
result is written back.  Fresh processes replay warm suite grids with
zero pipeline executions, and a memory hit write-throughs to a late-
configured store exactly like the operator path does.

The functional query output is summarized by a SHA-256 digest of the
final relation's bytes.  The digest is part of the stored document, so
store replays keep satisfying the functional goldens even though the
tuples themselves are not persisted -- and because generation is
deterministic, the digest is identical across presets: every system
must compute the *same answer*, only the costs differ.

:class:`SuiteRun` sweeps a grid of points into one tidy
:class:`~repro.api.results.ResultSet` (suite-major order), optionally
across a process pool exactly like :class:`repro.api.Sweep`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from operator import methodcaller
from typing import Any, Dict, List, Tuple

from repro.api.results import ResultSet
from repro.api.scenario import records_from_result
from repro.experiments import common
from repro.perf.result import SystemResult
from repro.suites.registry import SUITES, get_suite
from repro.telemetry import span as _span
from repro.telemetry import trace as _trace

#: Default cost-model scale for suite grids: 5 suites x 6 presets is a
#: 30-point grid, so suites default lighter than the single-operator
#: figures' 2000x while staying far beyond every cache level.
DEFAULT_SCALE = 100.0

_SUITE_RESULTS = common.register_cache_tier(common.CacheTier("suite-result"))


@dataclass(frozen=True)
class SuitePoint:
    """One (suite, system, scale, seed, partitions) evaluation point."""

    suite: str
    system: str
    model_scale: float = DEFAULT_SCALE
    seed: int = 17
    num_partitions: int = common.NUM_PARTITIONS

    def __post_init__(self) -> None:
        get_suite(self.suite)  # validates the name
        if not isinstance(self.system, str):
            raise TypeError(
                "suite points evaluate named system presets; got "
                f"{type(self.system).__name__}"
            )
        common.machine_for(self.system)  # validates the preset
        if self.model_scale <= 0:
            raise ValueError("model_scale must be positive")
        if self.num_partitions < 1:
            raise ValueError("need at least one partition")

    def records(self) -> List[Dict[str, Any]]:
        """Tidy per-phase records, one block per pipeline stage."""
        suite = get_suite(self.suite)
        outcome = run_suite_point(self)
        machine = common.machine_for(self.system)
        base = {
            "suite": self.suite,
            "family": suite.family_name,
            "system": self.system,
            "scale": float(self.model_scale),
            "seed": int(self.seed),
            "num_partitions": int(self.num_partitions),
        }
        records: List[Dict[str, Any]] = []
        for stage, _operator, _table, result in outcome.stages:
            records.extend(
                records_from_result(machine, result, dict(base, stage=stage))
            )
        return records

    def run(self) -> ResultSet:
        return ResultSet(self.records())


@dataclass
class SuiteOutcome:
    """One evaluated suite run: per-stage results + the answer digest."""

    suite: str
    family: str
    system: str
    stages: List[Tuple[str, str, str, SystemResult]]
    output_digest: str

    @property
    def runtime_s(self) -> float:
        return sum(
            sum(p.time_s for p in result.phase_perfs)
            for _, _, _, result in self.stages
        )

    @property
    def energy_j(self) -> float:
        return sum(result.energy.total_j for _, _, _, result in self.stages)


def relation_digest(relation) -> str:
    """Content digest of a relation's exact tuple bytes."""
    return hashlib.sha256(relation.data.tobytes()).hexdigest()


def suite_store_payload(point: SuitePoint) -> Dict[str, Any]:
    """The canonical key payload naming one suite run (store twin of
    the memory tier's tuple key; the suite's full ``cache_params`` ride
    along so edited generators or plans can never replay stale runs)."""
    return {
        "kind": "suite-result",
        "suite": get_suite(point.suite).cache_params(),
        "system": {"preset": point.system},
        "scale": float(point.model_scale),
        "seed": int(point.seed),
        "num_partitions": int(point.num_partitions),
    }


def _execute(point: SuitePoint) -> SuiteOutcome:
    """Really run the suite's pipeline (the cache-miss path)."""
    suite = get_suite(point.suite)
    plan = suite.build_plan(seed=point.seed, num_partitions=point.num_partitions)
    machine = common.machine_for(point.system)
    perf = machine.run_pipeline(plan, scale_factor=point.model_scale)
    stages = [
        (sp.stage, sp.operator, sp.output_table, sp.result) for sp in perf.stages
    ]
    final = stages[-1][3].output
    return SuiteOutcome(
        suite=point.suite,
        family=suite.family_name,
        system=point.system,
        stages=stages,
        output_digest=relation_digest(final),
    )


def run_suite_point(point: SuitePoint) -> SuiteOutcome:
    """Evaluate one point through memory tier -> store -> pipeline."""
    tracer = _trace.active_tracer()
    if tracer is not None:
        with tracer.span(
            "suite_point",
            category="suites",
            suite=point.suite,
            system=point.system,
            scale=float(point.model_scale),
        ):
            return _run_suite_point(point)
    return _run_suite_point(point)


def _run_suite_point(point: SuitePoint) -> SuiteOutcome:
    key = (
        "suite-result",
        point.suite,
        point.system,
        float(point.model_scale),
        int(point.seed),
        int(point.num_partitions),
    )
    return common.tiered(
        _SUITE_RESULTS,
        key,
        lambda: suite_store_payload(point),
        lambda: _execute(point),
        _outcome_to_document,
        _outcome_from_document,
    )


def _outcome_to_document(outcome: SuiteOutcome) -> Dict[str, Any]:
    from repro.service.codec import suite_run_to_document

    return suite_run_to_document(
        outcome.suite,
        outcome.family,
        outcome.system,
        outcome.stages,
        outcome.output_digest,
    )


def _outcome_from_document(document: Dict[str, Any]) -> SuiteOutcome:
    from repro.service.codec import suite_run_from_document

    restored = suite_run_from_document(document)
    return SuiteOutcome(
        suite=restored["suite"],
        family=restored["family"],
        system=restored["system"],
        stages=restored["stages"],
        output_digest=restored["output_digest"],
    )


# ---------------------------------------------------------------------------
# Grid driver.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteRun:
    """A grid of suite points: suites x system presets, one batch.

    Mirrors :class:`repro.api.Sweep`: ``run(jobs=N)`` fans points over a
    process pool, records return in grid (suite-major) order either
    way, so equal grids export byte-identical results regardless of
    worker count.
    """

    suites: Tuple[str, ...] = tuple(SUITES)
    systems: Tuple[str, ...] = common.ALL_SYSTEMS
    model_scale: float = DEFAULT_SCALE
    seed: int = 17
    num_partitions: int = common.NUM_PARTITIONS

    def __post_init__(self) -> None:
        for name in ("suites", "systems"):
            value = getattr(self, name)
            if isinstance(value, str):
                value = (value,)
            if not value:
                raise ValueError(f"suite-run axis {name!r} must not be empty")
            object.__setattr__(self, name, tuple(value))

    @property
    def size(self) -> int:
        return len(self.suites) * len(self.systems)

    def points(self) -> List[SuitePoint]:
        return [
            SuitePoint(
                suite=suite,
                system=system,
                model_scale=self.model_scale,
                seed=self.seed,
                num_partitions=self.num_partitions,
            )
            for suite in self.suites
            for system in self.systems
        ]

    def outcomes(self) -> List[SuiteOutcome]:
        """Every point's :class:`SuiteOutcome`, grid order (sequential;
        points hit the shared cache, so this is cheap after ``run``)."""
        return [run_suite_point(point) for point in self.points()]

    def run(self, jobs: int = 1) -> ResultSet:
        """Evaluate the whole grid into one tidy :class:`ResultSet`."""
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        points = self.points()
        with _span(
            "suite_run", category="suites", points=len(points), jobs=jobs
        ):
            chunks = common.fan_out(
                methodcaller("records"), points, jobs, span=_pool_span
            )
            return ResultSet(r for chunk in chunks for r in chunk)


def _pool_span(point: SuitePoint) -> Tuple[str, str, Dict[str, Any]]:
    return "pool_worker", "suites", {"suite": point.suite, "system": point.system}


def functional_digests() -> Dict[str, str]:
    """Per-suite digest of the final answer relation (system-agnostic).

    Executes each suite's plan functionally once (CPU preset, unit
    scale, seed 17, the default partition count) -- every preset
    computes the same answer bytes, which the cross-preset digest test
    asserts directly.
    """
    num_partitions = common.NUM_PARTITIONS
    digests = {}
    for name in SUITES:
        plan = get_suite(name).build_plan(seed=17, num_partitions=num_partitions)
        machine = common.machine_for("cpu")
        run = plan.execute(machine.variant(num_partitions))
        digests[name] = relation_digest(run.output)
    return digests
