"""Shared experiment plumbing: default workloads, scale, result caching.

Two dataset sizes are in play everywhere:

- **Functional size** (``FUNCTIONAL_N``): the tuples Python actually
  moves through partitioning and probing -- kept in the tens of
  thousands so the whole suite runs in seconds and outputs stay
  exactly verifiable.
- **Modeled size** = functional size x ``MODEL_SCALE``: the dataset the
  ``PhaseCost`` records *describe*.  Every operator runner takes the
  factor as ``model_scale`` (machines pass it as ``scale_factor``) and
  emits costs for the larger dataset: per-tuple-linear quantities scale
  exactly, and size-dependent structure -- mergesort pass counts,
  hash-table region sizes -- is recomputed at modeled size, not scaled.

The default ``MODEL_SCALE`` of 2000x turns the ~20k-tuple functional
runs into a ~40M-tuple (~0.6 GB) modeled dataset: a mid-size slice of
the paper's 32 GB machine (512 MB vaults filled with 16 B tuples) that
keeps per-partition working sets far beyond every cache level, as in the
paper.  ``run_all --fast`` and the test suite use 500x, which preserves
all qualitative orderings.

**Shared experiment runtime.**  Workload generation and functional
operator runs are memoized in module-level, *content-keyed* caches: the
key spells out everything that determines the result bytes (operator,
functional tuple count, seed, partition count; plus system preset and
model scale for results), so fig6/fig7/fig8/fig9/table5 -- which all
evaluate overlapping (system, operator) pairs -- compute each pair once
per process instead of once per figure.  ``run_all --no-cache`` (or
:func:`set_cache_enabled`) restores the recompute-everything behaviour,
and ``run_all --jobs N`` runs experiment sections in a process pool
(each worker holds its own cache).

Between the two sits a third, memory-only tier, ``operator-run``.
Running an operator is two calls: ``Machine.execute`` (the functional
run) and ``Machine.evaluate_run`` (costing it on one machine).  A run
depends only on the workload, the machine's
:class:`~repro.operators.base.OperatorVariant` and the model scale, so
:func:`operator_run_key` keys it by operator, functional size, seed,
partition count, variant and scale -- not by system.  Systems that
differ only in how a run is costed (core count, SIMD width, topology)
execute it once and cost it each on their own; interleave and fault
overlays are part of the variant, so they never share.  Sharing is
sound because variants and fault specs are frozen, and ``evaluate_run``
builds a fresh result with its own metadata copy.  Runs are never
persisted: the store holds evaluated results only.

The caches are addressed either by preset name *or* by any
:class:`~repro.api.spec.SystemSpec`-like object exposing ``cache_key``
and ``to_config()`` -- which is how the scenario API (:mod:`repro.api`)
evaluates hardware points the paper never measured through the same
memoization.

Below the in-memory tiers sits an optional **persistent, content-
addressed result store** (``REPRO_STORE=dir`` or the CLIs' ``--store``
flag; :mod:`repro.service.store`): evaluated results are written as
JSON documents keyed by a digest of the full content key, so fresh
processes -- repeated CLI invocations, CI runs, the serving daemon's
clients -- replay warm scenarios with zero simulation executions.
:func:`cache_stats` reports every tier's hits/misses/evictions.

Two decisions every evaluation entry point shares live here, once:

- :func:`tiered` is the memory tier -> store probe -> build-and-put
  lookup behind both :func:`run_cached_result` and the suite runner's
  :func:`repro.suites.runner.run_suite_point`.
- :func:`fan_out` is the only process pool: ``Sweep.run``,
  ``SuiteRun.run``, the batch scheduler and ``run_all --jobs`` hand it a
  picklable ``fn`` and their items.  Workers run :func:`run_in_worker`,
  which installs the parent's cache/store/trace selection and reports
  each task's store-counter delta and spans; ``fan_out`` merges them
  into the parent.
"""

from __future__ import annotations

import functools
import os
from concurrent import futures
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analytics.workload import (
    make_groupby_workload,
    make_join_workload,
    make_scan_workload,
    make_sort_workload,
)
from repro.config.system import EVALUATED_PRESETS
from repro.perf.result import SystemResult
from repro.systems import build_system
from repro.telemetry import trace as _trace

#: Functional dataset sizes (tuples actually moved in Python).
FUNCTIONAL_N = {
    "scan": 20_000,
    "sort": 16_000,
    "groupby": 16_000,
    "join": (4_000, 16_000),
}

#: Cost-model scale: functional tuples x MODEL_SCALE = modeled tuples.
#: 2000x turns the 20k-tuple functional runs into a ~40M-tuple modeled
#: dataset (~0.6 GB of 16 B tuples), a mid-size slice of the paper's
#: 32 GB machine that keeps per-partition working sets far beyond every
#: cache level, as in the paper.
MODEL_SCALE = 2000.0

#: Memory partitions = vaults in the paper's machine.
NUM_PARTITIONS = 64

#: All evaluated configurations, evaluation order (one shared constant:
#: ``repro.config.system.EVALUATED_PRESETS``).
ALL_SYSTEMS = EVALUATED_PRESETS

OPERATORS = ("scan", "sort", "groupby", "join")


# ---------------------------------------------------------------------------
# Cache tiers: in-process memory tiers + an optional persistent store.
# ---------------------------------------------------------------------------

#: Sentinel distinguishing "cached None" from "not cached".
_MISS = object()


class CacheTier:
    """One named get/put cache tier with hit/miss/eviction counters.

    The memory tiers below wrap plain dicts (unbounded, so their
    eviction count stays 0); the persistent disk tier
    (:class:`repro.service.store.ResultStore`) exposes the same
    ``stats()`` shape, which is what lets :func:`cache_stats` report
    every tier uniformly.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._data: Dict[Tuple, Any] = {}
        self._stats = {"hits": 0, "misses": 0, "evictions": 0}

    def get(self, key: Tuple) -> Any:
        """The cached value, or the module sentinel ``_MISS``."""
        value = self._data.get(key, _MISS)
        self._stats["hits" if value is not _MISS else "misses"] += 1
        return value

    def put(self, key: Tuple, value: Any) -> Any:
        self._data[key] = value
        return value

    def get_or_build(self, key: Tuple, build):
        value = self.get(key)
        if value is _MISS:
            value = self.put(key, build())
        return value

    def clear(self) -> None:
        self._data.clear()
        self._stats.update(hits=0, misses=0, evictions=0)

    def __len__(self) -> int:
        return len(self._data)

    def stats(self) -> Dict[str, int]:
        return dict(self._stats, entries=len(self._data))


_WORKLOADS = CacheTier("workload")
_RUNS = CacheTier("operator-run")  # memory only: runs are never persisted
_RESULTS = CacheTier("result")
_CACHE_ENABLED = True

#: Tiers registered by higher layers (the suite subsystem's result
#: memo), so ``clear_caches``/``cache_stats`` stay the one switchboard
#: without this module importing upward.
_EXTRA_TIERS: List[CacheTier] = []


def register_cache_tier(tier: CacheTier) -> CacheTier:
    """Enroll a higher layer's tier in clear/stats handling (idempotent)."""
    if tier not in _EXTRA_TIERS:
        _EXTRA_TIERS.append(tier)
    return tier

#: (store root, tier key) pairs already confirmed on disk, so the
#: memory-hit write-through in :func:`tiered` costs one digest + stat
#: per key per process instead of per hit.  Tier keys differ in their
#: first element ("result", "suite-result"), so one set serves all tiers.
_PERSISTED: set = set()


def set_cache_enabled(enabled: bool) -> bool:
    """Toggle the shared in-memory caches; returns the previous setting.

    Only the memory tiers are affected: the persistent store (see
    :func:`configure_store`) is an independent tier, so ``--no-cache``
    still measures cold in-process runs while a warm store keeps
    serving across processes.
    """
    global _CACHE_ENABLED
    previous = _CACHE_ENABLED
    _CACHE_ENABLED = bool(enabled)
    return previous


def cache_enabled() -> bool:
    return _CACHE_ENABLED


def clear_caches() -> None:
    """Drop all memoized workloads, results and machine singletons.

    The persistent store is *not* cleared (it is durable by design);
    only the handle's in-process state survives via
    :func:`configure_store`.
    """
    from repro.systems.machine import clear_machine_cache

    _WORKLOADS.clear()
    _RUNS.clear()
    _RESULTS.clear()
    for tier in _EXTRA_TIERS:
        tier.clear()
    _PERSISTED.clear()
    _spec_machine.cache_clear()
    clear_machine_cache()


#: Times this process fell back from the evaluation daemon to local
#: in-process evaluation (the client's ``degrade="local"`` path).
_DEGRADED = 0


def note_degraded() -> int:
    """Count one degradation to local evaluation; returns the total."""
    global _DEGRADED
    _DEGRADED += 1
    return _DEGRADED


def degraded_count() -> int:
    """How many service calls this process served locally after failure."""
    return _DEGRADED


def cache_stats() -> Dict[str, Any]:
    """Per-tier hit/miss/eviction counters, plus legacy aggregates.

    The top-level ``hits``/``misses`` keys sum the workload and result
    tiers (the pre-service shape); ``tiers`` breaks every memory tier
    down (``operator-run`` included) and adds the persistent store when
    one is active.  ``degraded`` counts service calls this process
    answered locally after daemon failure.
    """
    tiers: Dict[str, Any] = {
        _WORKLOADS.name: _WORKLOADS.stats(),
        _RUNS.name: _RUNS.stats(),
        _RESULTS.name: _RESULTS.stats(),
    }
    for tier in _EXTRA_TIERS:
        tiers[tier.name] = tier.stats()
    store = active_store()
    if store is not None:
        tiers["store"] = store.stats()
    return {
        "hits": _WORKLOADS.stats()["hits"] + _RESULTS.stats()["hits"],
        "misses": _WORKLOADS.stats()["misses"] + _RESULTS.stats()["misses"],
        "degraded": _DEGRADED,
        "tiers": tiers,
    }


# ---------------------------------------------------------------------------
# The persistent store tier (REPRO_STORE / --store).
# ---------------------------------------------------------------------------

#: Environment variables configuring the default persistent tier.
STORE_ENV = "REPRO_STORE"
STORE_MAX_BYTES_ENV = "REPRO_STORE_MAX_BYTES"

_STORE: Optional[Any] = None  # ResultStore handle (lazy import)
_STORE_PATH: Optional[str] = None
_STORE_EXPLICIT = False


def configure_store(path: Optional[Any], max_bytes: Optional[int] = None):
    """Select the persistent result-store for this process.

    ``path`` is a store directory, an already-open
    :class:`~repro.service.store.ResultStore` handle (its counters then
    stay continuous across reconfigurations -- how the scheduler scopes
    its store to one batch at a time), or ``None`` to revert to the
    environment default (``REPRO_STORE``).  Returns the active handle
    (or ``None``).  The CLIs' ``--store`` flag lands here.
    """
    global _STORE, _STORE_PATH, _STORE_EXPLICIT
    if path is None:
        _STORE, _STORE_PATH, _STORE_EXPLICIT = None, None, False
        return active_store()
    if isinstance(path, (str, os.PathLike)):
        # Fleet-aware: a directory carrying a fleet.json manifest opens
        # as a sharded, replicated store (see repro.service.fleet).
        from repro.service.store import open_store

        _STORE = open_store(path, max_bytes=max_bytes or _env_max_bytes())
    else:
        _STORE = path  # an already-open store handle (any store protocol)
    _STORE_PATH = str(_STORE.root)
    _STORE_EXPLICIT = True
    return _STORE


def store_selection() -> Tuple:
    """Opaque snapshot of the store selection, for save/restore.

    Lets a scoped user (the batch scheduler, tests) install its own
    store for a window and put the process back exactly as it was:
    ``previous = store_selection(); ...; restore_store_selection(previous)``.
    """
    return (_STORE_EXPLICIT, _STORE, _STORE_PATH)


def restore_store_selection(selection: Tuple) -> None:
    """Undo a :func:`configure_store` using a prior snapshot."""
    global _STORE, _STORE_PATH, _STORE_EXPLICIT
    _STORE_EXPLICIT, _STORE, _STORE_PATH = selection


def _env_max_bytes() -> Optional[int]:
    import os

    raw = os.environ.get(STORE_MAX_BYTES_ENV)
    return int(raw) if raw else None


def active_store():
    """The persistent tier in effect: explicit ``--store`` beats env.

    Reads ``REPRO_STORE`` on every call (not at import), so a caller or
    test that sets the variable mid-process still gets the tier; the
    handle is cached per path to keep its stats continuous.
    """
    global _STORE, _STORE_PATH
    if _STORE_EXPLICIT:
        return _STORE
    import os

    env = os.environ.get(STORE_ENV)
    if not env:
        return None
    if _STORE is None or _STORE_PATH != env:
        from repro.service.store import open_store

        _STORE = open_store(env, max_bytes=_env_max_bytes())
        _STORE_PATH = env
    return _STORE


def store_path() -> Optional[str]:
    """The active store's directory (for worker-process propagation)."""
    store = active_store()
    return str(store.root) if store is not None else None


def store_stats() -> Optional[Dict[str, int]]:
    """The active store's counters, or ``None`` without a store."""
    store = active_store()
    return store.stats() if store is not None else None


def result_store_payload(
    system: Any,
    operator: str,
    scale: float,
    seed: int,
    num_partitions: int,
) -> Dict[str, Any]:
    """The canonical key payload naming one (system, operator) result.

    This is the persistent twin of :func:`run_cached_result`'s tuple
    key: systems normalize to ``{"preset": name}`` (a no-override spec
    digests identically to its bare preset name) or the spec's
    ``to_dict`` form, and the functional size rides along because the
    stored numbers describe those exact bytes.  The digest additionally
    folds in :data:`repro.service.store.CODE_VERSION`.
    """
    if isinstance(system, str):
        system_desc: Dict[str, Any] = {"preset": system}
    elif getattr(system, "is_preset", False):
        system_desc = {"preset": system.base}
    else:
        system_desc = {"spec": system.to_dict()}
    functional_n = FUNCTIONAL_N.get(operator)
    return {
        "kind": "operator-result",
        "system": system_desc,
        "operator": operator,
        "functional_n": list(functional_n)
        if isinstance(functional_n, tuple)
        else functional_n,
        "scale": float(scale),
        "seed": int(seed),
        "num_partitions": int(num_partitions),
    }


def tiered(
    tier: CacheTier,
    key: Tuple,
    payload: Callable[[], Dict[str, Any]],
    build: Callable[[], Any],
    encode: Callable[[Any], Dict[str, Any]],
    decode: Callable[[Dict[str, Any]], Any],
) -> Any:
    """One memoized value: memory tier -> store probe -> build-and-put.

    ``key`` addresses ``tier`` (skipped while the memory caches are
    disabled); ``payload()`` names the value in the persistent store and
    is only computed when a store is active.  ``encode``/``decode`` map
    values to and from store documents; a document that fails to decode
    (schema drift, a hand-edited entry) counts as a miss and is
    overwritten by the rebuilt value.

    A memory hit still writes through to the store -- covering values
    computed before the store was configured and healing evicted
    entries -- once per (store root, key) per process (:data:`_PERSISTED`).
    """
    store = active_store()
    if _CACHE_ENABLED:
        cached = tier.get(key)
        if cached is not _MISS:
            if store is not None:
                marker = (str(store.root), key)
                if marker not in _PERSISTED:
                    from repro.service.store import digest_payload

                    digest = digest_payload(payload())
                    if not store.contains(digest):
                        store.put(digest, encode(cached))
                    _PERSISTED.add(marker)
            return cached

    if store is None:
        value = build()
    else:
        from repro.service.store import digest_payload

        digest = digest_payload(payload())
        document = store.get(digest)
        value = _MISS
        if document is not None:
            try:
                value = decode(document)
            except (KeyError, TypeError, ValueError):
                pass  # schema drift or a hand-edited entry: a miss
        if value is _MISS:
            value = build()
            store.put(digest, encode(value))
        _PERSISTED.add((str(store.root), key))

    if _CACHE_ENABLED:
        tier.put(key, value)
    return value


# ---------------------------------------------------------------------------
# The process boundary: one worker-side call, one parent-side pool.
# ---------------------------------------------------------------------------

#: ``span(item) -> (name, category, attributes)``: the span a traced
#: worker opens around ``fn(item)``.
SpanFn = Callable[[Any], Tuple[str, str, Dict[str, Any]]]


def worker_selection() -> Tuple[bool, Optional[str], bool]:
    """(cache flag, store path, trace flag) a worker must reproduce.

    Workers inherit the parent's store selection explicitly: an env-var
    default would survive ``fork`` anyway, but a ``--store`` flag set only
    in the parent would not.
    """
    return cache_enabled(), store_path(), _trace.active_tracer() is not None


def run_in_worker(
    fn: Callable[[Any], Any],
    item: Any,
    selection: Tuple[bool, Optional[str], bool],
    span: SpanFn,
) -> Tuple[Any, Optional[Dict[str, int]], Optional[List[Dict[str, Any]]]]:
    """Worker side of a fan-out: ``fn(item)`` under the parent's selection.

    Returns ``(value, store-counter delta, spans)``: the delta is the
    store traffic this task caused (``None`` without a store), and when
    the selection's trace flag is set, ``fn`` runs under a fresh
    worker-local tracer inside ``span(item)`` and the finished spans ship
    back as plain dicts (otherwise ``None``).
    """
    use_cache, store, trace_on = selection
    set_cache_enabled(use_cache)
    if store != store_path():
        configure_store(store)
    handle = active_store()
    before = handle.counters() if handle is not None else None
    spans = None
    if trace_on:
        with _trace.tracing() as tracer:
            name, category, attrs = span(item)
            with tracer.span(name, category=category, **attrs):
                value = fn(item)
            spans = tracer.to_dicts()
    else:
        value = fn(item)
    delta = None
    if handle is not None:
        after = handle.counters()
        delta = {k: after[k] - before[k] for k in before}
    return value, delta, spans


def fan_out(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    jobs: int,
    *,
    span: SpanFn,
) -> List[Any]:
    """``[fn(item) for item in items]``, across ``jobs`` processes.

    With ``jobs == 1`` (or at most one item) this is a plain in-process
    loop.  Otherwise ``fn`` and ``span`` must be picklable -- module
    functions, ``operator.methodcaller``, ``functools.partial`` -- and
    each item runs through :func:`run_in_worker` in a pool.  Each reply's
    store-counter delta merges into the parent's store and its spans
    re-parent under the parent's open span, in input order, so values,
    store stats and span ids do not depend on scheduling.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    store = active_store()
    tracer = _trace.active_tracer()
    call = functools.partial(
        run_in_worker, fn, selection=worker_selection(), span=span
    )
    values = []
    with futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        for value, delta, spans in pool.map(call, items):
            values.append(value)
            if store is not None and delta:
                store.merge_stats(delta)
            if tracer is not None and spans:
                tracer.adopt(spans, parent_id=tracer.current_span_id())
    return values


def _build_workload(operator: str, seed: int, num_partitions: int):
    if operator == "scan":
        return make_scan_workload(FUNCTIONAL_N["scan"], num_partitions, seed)
    if operator == "sort":
        return make_sort_workload(FUNCTIONAL_N["sort"], num_partitions, seed)
    if operator == "groupby":
        return make_groupby_workload(FUNCTIONAL_N["groupby"], num_partitions, seed=seed)
    if operator == "join":
        n_r, n_s = FUNCTIONAL_N["join"]
        return make_join_workload(n_r, n_s, num_partitions, seed)
    raise ValueError(f"unknown operator {operator!r}")


def make_workload(operator: str, seed: int = 17, num_partitions: int = NUM_PARTITIONS):
    """Default workload for one operator, memoized by content key.

    The key covers everything the generated bytes depend on -- operator,
    functional size, seed, partition count -- so every experiment module
    asking for the same relation shares one materialization.  Workloads
    are frozen dataclasses and operators never mutate their inputs
    (property-tested), which is what makes the sharing sound.
    """
    if operator not in FUNCTIONAL_N:
        raise ValueError(f"unknown operator {operator!r}")
    if not _CACHE_ENABLED:
        return _build_workload(operator, seed, num_partitions)
    key = ("workload", operator, FUNCTIONAL_N[operator], seed, num_partitions)
    return _WORKLOADS.get_or_build(
        key, lambda: _build_workload(operator, seed, num_partitions)
    )


@functools.lru_cache(maxsize=None)
def _spec_machine(spec) -> Any:
    """Machine singleton per custom (non-preset) system spec."""
    from repro.systems.machine import Machine

    return Machine(spec.to_config())


def machine_for(system) -> Any:
    """The machine singleton for a preset name or a SystemSpec.

    Preset names (and specs that add nothing to their base preset) share
    the per-preset singletons of :func:`repro.systems.build_system`;
    custom specs get their own memoized machine.  Specs are duck-typed:
    anything hashable with ``to_config()`` (plus optionally
    ``is_preset``/``base``) works.
    """
    if isinstance(system, str):
        return build_system(system)
    if getattr(system, "is_preset", False):
        return build_system(system.base)
    return _spec_machine(system)


def _system_token(system) -> Any:
    """The hashable cache-key component naming a system.

    Preset strings key exactly as they always have (so scenario-API
    callers share entries with the figure modules); specs key by their
    full content.
    """
    return system if isinstance(system, str) else system.cache_key


def run_cached_result(
    system: Any,
    operator: str,
    scale: float,
    seed: int = 17,
    num_partitions: int = NUM_PARTITIONS,
) -> SystemResult:
    """Functionally run + cost one (system, operator) pair, memoized.

    ``system`` is a preset name or a SystemSpec-like object (see
    :func:`machine_for`).  The content key adds the system token and the
    model scale to the workload key; results are immutable to their
    consumers (the figure modules only read them), so sharing one
    :class:`~repro.perf.result.SystemResult` across figures is safe.

    When a persistent store is active (``REPRO_STORE`` / ``--store``,
    see :func:`configure_store`), it acts as the second cache tier
    (:func:`tiered`): memory miss -> store probe -> simulate on a store
    miss and write the evaluated result back, so a *fresh process*
    replays warm sweeps with zero simulation executions.  Store-restored
    results carry ``output=None`` (the functional payload is not
    persisted; see :mod:`repro.service.codec`).
    """
    tracer = _trace.active_tracer()
    if tracer is not None:
        with tracer.span(
            "task",
            category="service",
            operator=operator,
            system=_system_token(system),
            scale=float(scale),
        ):
            return _run_cached_result(system, operator, scale, seed, num_partitions)
    return _run_cached_result(system, operator, scale, seed, num_partitions)


def operator_run_key(
    machine: Any, operator: str, scale: float, seed: int, num_partitions: int
) -> Tuple:
    """The content key of the functional run behind one operator point.

    A runner sees only the workload, the machine's
    :class:`~repro.operators.base.OperatorVariant` and the scale, so
    machines that differ only in how a run is costed (core count, SIMD
    width, topology) share one key.  The ``operator-run`` memory tier
    and the sweep's process-pool grouping both use it.
    """
    return (
        "operator-run",
        operator,
        FUNCTIONAL_N[operator],
        seed,
        num_partitions,
        machine.variant(num_partitions),
        float(scale),
    )


def _run_cached_result(
    system: Any, operator: str, scale: float, seed: int, num_partitions: int
) -> SystemResult:
    key = (
        "result",
        _system_token(system),
        operator,
        FUNCTIONAL_N.get(operator),
        float(scale),
        seed,
        num_partitions,
    )
    return tiered(
        _RESULTS,
        key,
        lambda: result_store_payload(system, operator, scale, seed, num_partitions),
        lambda: _build_result(system, operator, scale, seed, num_partitions),
        _result_to_document,
        _result_from_document,
    )


def _build_result(
    system: Any, operator: str, scale: float, seed: int, num_partitions: int
) -> SystemResult:
    """Execute (or reuse) the functional run, then cost it on ``system``.

    ``machine_for``, the operator runners and ``evaluate_run`` are all
    looked up per call, so tooling that wraps them sees every call.
    """
    machine = machine_for(system)
    workload = make_workload(operator, seed, num_partitions)

    def execute():
        return machine.execute(operator, workload, scale_factor=scale)

    if _CACHE_ENABLED:
        run = _RUNS.get_or_build(
            operator_run_key(machine, operator, scale, seed, num_partitions),
            execute,
        )
    else:
        run = execute()
    return machine.evaluate_run(run)


# The codec is looked up per call (not bound at import) so tooling that
# swaps ``repro.service.codec`` functions for wrappers sees every call.
def _result_to_document(result: SystemResult) -> Dict[str, Any]:
    from repro.service import codec

    return codec.result_to_document(result)


def _result_from_document(document: Dict[str, Any]) -> SystemResult:
    from repro.service import codec

    return codec.result_from_document(document)
