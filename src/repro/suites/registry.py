"""The suite registry: named analytic query suites over typed families.

A :class:`Suite` binds one typed workload family
(:mod:`repro.suites.families`) to a TPC-H-style multi-operator plan
(filter -> partition -> join -> group-by shapes built from the pipeline
layer's stages).  ``build_plan(seed, num_partitions)`` materializes the
family's tables deterministically and returns an executable
:class:`~repro.pipeline.plan.QueryPlan`; the runner sweeps every suite
across the system presets and the scoring layer ranks the outcomes.

Suites are versioned through ``cache_params()``: the full generator
parameterization plus a per-suite plan tag feed the content-addressed
cache/store key, so editing a suite's plan or sizes can never replay a
stale stored run.

A family's tables depend only on the family and the seed, so every
preset of one suite run shares one materialization: ``build_plan``
memoizes them in the memory-only ``suite-tables`` cache tier (dropped by
``clear_caches``) and marks the shared arrays read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

from repro.analytics.tuples import Relation
from repro.experiments import common
from repro.pipeline.plan import QueryPlan
from repro.pipeline.stage import (
    FilterStage,
    GroupByStage,
    JoinStage,
    PartitionStage,
    PipelineStage,
    SortStage,
)
from repro.suites.families import (
    CompositeKeyFamily,
    SkewFamily,
    StringKeyFamily,
    WindowedFamily,
    leading_column_range,
)


_TABLES = common.register_cache_tier(common.CacheTier("suite-tables"))


def _read_only(tables: Dict[str, Relation]) -> Dict[str, Relation]:
    """Freeze shared tables: a stage writing into its input raises
    instead of changing another preset's answer."""
    for relation in tables.values():
        relation.data.flags.writeable = False
    return tables


def _family_tables(family: Any, seed: int) -> Dict[str, Relation]:
    """``family.tables(seed)`` with read-only arrays, built once per
    (family, seed)."""
    return dict(
        _TABLES.get_or_build(
            ("suite-tables", family, int(seed)),
            lambda: _read_only(family.tables(seed)),
        )
    )


@dataclass(frozen=True)
class Suite:
    """One named analytic suite: a typed family plus its query plan."""

    name: str
    family: Any  # a families.* dataclass instance
    description: str
    build_stages: Callable[[Any], List[PipelineStage]]
    plan_version: str = "v1"

    @property
    def family_name(self) -> str:
        return self.family.family

    def build_plan(self, seed: int = 17, num_partitions: int = 64) -> QueryPlan:
        """Deterministically materialize tables and assemble the plan."""
        return QueryPlan(
            name=self.name,
            tables=_family_tables(self.family, seed),
            stages=self.build_stages(self.family),
            num_partitions=num_partitions,
            key_space_bits=self.family.key_space_bits,
            description=self.description,
        )

    def stage_names(self) -> List[str]:
        """The plan's stage names without materializing any tables."""
        return [stage.name for stage in self.build_stages(self.family)]

    def cache_params(self) -> Dict[str, Any]:
        """The content-key payload naming this suite's exact identity."""
        return {
            "suite": self.name,
            "plan_version": self.plan_version,
            "family": self.family.cache_params(),
        }


# ---------------------------------------------------------------------------
# Plan builders (one per suite; families arrive as the argument so the
# same builder can serve every preset of a parameterized family).
# ---------------------------------------------------------------------------


def _composite_stages(family: CompositeKeyFamily) -> List[PipelineStage]:
    bound = leading_column_range(family.specs, family.regions // 2)
    return [
        FilterStage("facts", "region_facts", lambda keys: keys < bound,
                    name="filter:region"),
        PartitionStage("region_facts", "facts_shuffled"),
        JoinStage("dimension", "facts_shuffled", "enriched"),
        GroupByStage("enriched", "sales_per_key", aggregate="sum"),
    ]


def _dict_stages(family: StringKeyFamily) -> List[PipelineStage]:
    # Sorted-vocabulary encoding turns the name predicate "starts below
    # 'f'" into one integer compare on the codes.
    bound = family.encoder().bound("f")
    return [
        FilterStage("orders", "early_skus", lambda keys: keys < bound,
                    name="filter:prefix"),
        JoinStage("products", "early_skus", "enriched"),
        GroupByStage("enriched", "spend_per_sku", aggregate="sum"),
        SortStage("spend_per_sku", "ranked_skus"),
    ]


def _windowed_stages(family: WindowedFamily) -> List[PipelineStage]:
    warmup = 4  # drop the stream's first windows (partial observations)
    return [
        FilterStage("clicks", "steady_clicks", lambda keys: keys >= warmup,
                    name="filter:warmup"),
        PartitionStage("steady_clicks", "clicks_shuffled"),
        GroupByStage("clicks_shuffled", "per_window", aggregate="avg"),
        SortStage("per_window", "timeline"),
    ]


def _skew_stages(family: SkewFamily) -> List[PipelineStage]:
    return [
        PartitionStage("events", "events_balanced", skew_aware=True),
        JoinStage("users", "events_balanced", "enriched"),
        GroupByStage("enriched", "spend_per_user", aggregate="sum"),
    ]


#: The registry, in report order: >= one suite per family, with the
#: skew family shipped at two named presets to show parameterization.
SUITES: Dict[str, Suite] = {
    suite.name: suite
    for suite in (
        Suite(
            name="composite-sales",
            family=CompositeKeyFamily(),
            description="(region, store, day) packed-key sales rollup: "
                        "filter -> partition -> join -> group-by",
            build_stages=_composite_stages,
        ),
        Suite(
            name="dict-products",
            family=StringKeyFamily(),
            description="dictionary-encoded SKU analytics: prefix filter "
                        "-> join -> group-by -> rank",
            build_stages=_dict_stages,
        ),
        Suite(
            name="windowed-clicks",
            family=WindowedFamily(),
            description="tumbling-window stream aggregation: warmup filter "
                        "-> partition -> per-window avg -> sort",
            build_stages=_windowed_stages,
        ),
        Suite(
            name="skew-mild",
            family=SkewFamily(preset="mild"),
            description="mild-Zipf FK events: skew-aware partition -> join "
                        "-> group-by",
            build_stages=_skew_stages,
        ),
        Suite(
            name="skew-hotspot",
            family=SkewFamily(preset="hotspot"),
            description="hotspot-Zipf FK events: skew-aware partition -> "
                        "join -> group-by",
            build_stages=_skew_stages,
        ),
    )
}

#: Distinct family names, registry order (the acceptance gate's axis).
FAMILIES: Tuple[str, ...] = tuple(
    dict.fromkeys(suite.family_name for suite in SUITES.values())
)


def get_suite(name: str) -> Suite:
    try:
        return SUITES[name]
    except KeyError:
        raise KeyError(
            f"unknown suite {name!r}; choose from {sorted(SUITES)}"
        ) from None
