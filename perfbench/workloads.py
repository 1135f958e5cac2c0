"""The three benchmark workloads, each driven through public entry points.

- ``design-sweep``: one cold ``repro.api.Sweep.run(jobs=1)`` per
  repetition over the evaluated presets plus derived ``SystemSpec``s.
- ``query-suites``: one cold ``repro.suites.SuiteRun(...).run(jobs=1)``
  per repetition over every registered suite and preset.
- ``service-mix``: a closed loop of callers against a ``serve --fleet``
  router process over a pre-filled sharded store.

Every repetition starts from ``common.clear_caches()``.  All timings
are host time; simulated statistics only feed the golden-digest check.
The workload seed picks which pooled inputs each repetition uses, so
every output has a committed digest (see :mod:`goldens`).
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import json
import os
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import calibrate
import goldens
import layertrace

OPERATORS = ("scan", "sort", "groupby", "join")

SWEEP_SEEDS = tuple(range(101, 109))
SWEEP_PARTITIONS = (16, 64)
SWEEP_FIELDS = ("system", "workload", "seed", "num_partitions")

SUITE_SEEDS = tuple(range(201, 209))
SUITE_FIELDS = ("suite", "system", "seed")

SERVICE_READ_SEEDS = tuple(range(301, 311))
SERVICE_WRITE_SEEDS = tuple(range(401, 421))
SERVICE_PARTITIONS = (16, 64)
#: One block of the request mix: 10% writes, 5% cold reads, 85% warm
#: reads, in a seeded order within each block.
BLOCK = ("write",) * 2 + ("cold",) + ("warm",) * 17
#: Cold reads the warm-up makes, so warm reads have points to re-read.
WARMUP_READS = 50
#: Requests per second the measured phase is sized for (about the
#: reference host's rate): it sends ``seconds * NOMINAL_RATE`` requests,
#: the same work in every run.
NOMINAL_RATE = 350
#: The closed loop pauses every WINDOW requests to probe the host speed.
WINDOW = 100
SHARDS = 2
REPLICAS = 2
#: Closed-loop callers: at most two, and never more than the host's cores.
CALLERS = max(1, min(2, os.cpu_count() or 1))

#: Fixed work of the traced phase, the same in every run, so per-layer
#: numbers compare across runs: the first pooled seeds, or a request count.
TRACED_REPS = 3
TRACED_REQUESTS = 400


class Outcome:
    """What one workload run attempted, what failed, and what it measured."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.metrics: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}
        self.traffic: Dict[str, Any] = {}

    def check(self, ok: bool, what: str) -> None:
        """Count one attempted operation; record it as failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(what)


class Context:
    """The run's arguments plus the checkout it runs in."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, root: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.smoke = smoke
        self.root = root
        self.work = root / ".perfbench-work"

    def trace_path(self) -> Path:
        self.work.mkdir(exist_ok=True)
        return self.work / f"trace-{self.workload}-seed{self.seed}.json"


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile, once there are enough samples for it."""
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cycled_reps(one: Callable[[int], float], pool: Sequence[int], rng: random.Random,
                seconds: float, calibrator: calibrate.Calibrator
                ) -> List[Tuple[int, float, float]]:
    """Run ``one(seed)`` over every pooled seed, in a seeded order, in whole
    cycles until ``seconds`` have passed; returns (seed, raw seconds,
    scaled seconds) per repetition.

    Whole cycles give every run the same inputs in a different order, so
    the data-dependent part of a repetition's time cannot differ between
    runs.  Each repetition starts from a collected heap and is scaled by
    the host speed measured around it (see :mod:`calibrate`).
    """
    reps: List[Tuple[int, float, float]] = []
    deadline = time.perf_counter() + seconds
    while True:
        order = list(pool)
        rng.shuffle(order)
        for seed in order:
            gc.collect()
            raw = one(seed)
            reps.append((seed, raw, calibrator.scale(raw)))
        if time.perf_counter() >= deadline:
            return reps


def overhead_pct(reps: List[Tuple[int, float, float]], seeds: Sequence[int],
                 traced: Sequence[float]) -> float:
    """Traced minus untraced (scaled) time of the same seeds' repetitions,
    in % of the untraced time."""
    untraced = sum(median([t for s, _, t in reps if s == seed]) for seed in seeds)
    return (sum(traced) - untraced) / untraced * 100.0


def add_cache_stats(totals: Counter) -> None:
    """Fold the memory tiers' counters in before ``clear_caches`` resets them."""
    from repro.experiments import common

    tiers = common.cache_stats()["tiers"]
    for tier in ("workload", "result"):
        totals[f"{tier}.hits"] += tiers[tier]["hits"]
        totals[f"{tier}.misses"] += tiers[tier]["misses"]


def layer_metrics(recorder: layertrace.SpanRecorder, events: List[Dict[str, Any]],
                  caches: Counter) -> Dict[str, float]:
    """Per-layer self times and counts derived from the exported trace."""
    busy = layertrace.self_times_ms(events)
    out: Dict[str, float] = {}
    for name in ("analytics.make_workload", "systems.machine_for", "shuffle.run",
                 "perf.evaluate_run", "api.records", "api.export",
                 "suites.build_plan", "suites.digest", "pipeline.execute",
                 "pipeline.evaluate", "service.dispatch", "service.codec"):
        out[f"{name}.busy_ms"] = busy.get(name, 0.0)
    for op in OPERATORS:
        out[f"operators.{op}.busy_ms"] = busy.get(f"operators.{op}", 0.0)
    out["service.store.get_ms"] = busy.get("service.store.get", 0.0)
    out["service.store.put_ms"] = busy.get("service.store.put", 0.0)
    for name in ("analytics.make_workload.calls", "operators.calls",
                 "faults.retries", "perf.phases"):
        out[name] = float(recorder.counts.get(name, 0))
    for tier in ("workload", "result"):
        hits, misses = caches[f"{tier}.hits"], caches[f"{tier}.misses"]
        out[f"experiments.{tier}_cache.hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0
        )
    out["trace.spans"] = float(len(events))
    return out


def explained_share(events: List[Dict[str, Any]], root: str) -> float:
    """Share of the root spans' time spent in operator, shuffle, perf and
    workload-generation self time."""
    busy = layertrace.self_times_ms(events)
    explained = sum(
        ms for name, ms in busy.items()
        if name.startswith("operators.")
        or name in ("shuffle.run", "perf.evaluate_run", "analytics.make_workload")
    )
    total = layertrace.total_ms(events, root)
    return explained / total if total else 0.0


# ---------------------------------------------------------------------------
# design-sweep
# ---------------------------------------------------------------------------


def sweep_systems() -> List[Any]:
    """The evaluated presets plus derived points along five spec axes."""
    from repro.api import SystemSpec
    from repro.experiments import common

    return list(common.ALL_SYSTEMS) + [
        SystemSpec("mondrian").with_cores(16),
        SystemSpec("mondrian").with_cores(32),
        SystemSpec("mondrian").with_topology("star"),
        SystemSpec("nmp-perm").with_topology("star"),
        SystemSpec("mondrian").with_simd(256),
        SystemSpec("mondrian").with_simd(512),
        SystemSpec("mondrian").with_interleave("random"),
        SystemSpec("nmp-perm").with_interleave("random"),
        SystemSpec("mondrian").with_faults(
            seed=7, drop_prob=0.1, straggler_prob=0.1, duplicate_prob=0.05
        ),
    ]


def repeat_share(sweep) -> float:
    """Share of points whose functional run (operator variant, operator,
    workload) repeats an earlier point's in grid order."""
    from repro.experiments import common

    seen = set()
    repeats = 0
    scenarios = sweep.scenarios()
    for s in scenarios:
        key = (common.machine_for(s.system).variant(s.num_partitions),
               s.operator, s.seed, s.num_partitions)
        repeats += key in seen
        seen.add(key)
    return repeats / len(scenarios)


def verify_sweep(export: str, sweep, golden: Dict[str, str], out: Outcome) -> None:
    groups = goldens.group_records(json.loads(export), SWEEP_FIELDS)
    for s in sweep.scenarios():
        key = goldens.scenario_key(s.system_label, s.operator, s.seed, s.num_partitions)
        chunk = groups.get((s.system_label, s.operator, s.seed, s.num_partitions))
        out.check(
            chunk is not None and goldens.records_digest(chunk) == golden.get(key),
            f"design-sweep {key}: export differs from the golden digest",
        )


def design_sweep(ctx: Context, out: Outcome) -> None:
    from repro.api import Sweep
    from repro.experiments import common

    golden = goldens.load("design-sweep")
    systems, partitions, pool = sweep_systems(), SWEEP_PARTITIONS, SWEEP_SEEDS
    if ctx.smoke:
        systems, partitions, pool = [systems[0], systems[5], systems[-1]], (16,), pool[:2]

    def sweep_of(seed: int):
        return Sweep(systems=systems, workloads=OPERATORS, seeds=(seed,),
                     num_partitions=partitions)

    def one_rep(seed: int, caches: Optional[Counter] = None) -> float:
        sweep = sweep_of(seed)
        common.clear_caches()
        start = time.perf_counter()
        export = sweep.run(jobs=1).to_json()
        elapsed = time.perf_counter() - start
        if caches is not None:
            add_cache_stats(caches)
        verify_sweep(export, sweep, golden, out)
        return elapsed

    # Warm-up: a one-system sweep pays the interpreter's lazy first calls.
    sweep = Sweep(systems=systems[:1], workloads=OPERATORS, seeds=(pool[0],),
                  num_partitions=partitions[:1])
    verify_sweep(sweep.run(jobs=1).to_json(), sweep, golden, out)
    points = sweep_of(pool[0]).size
    calibrator = calibrate.Calibrator()
    reps = cycled_reps(one_rep, pool, random.Random(ctx.seed), ctx.seconds, calibrator)
    times = [t for _, _, t in reps]
    out.metrics.update(
        throughput_per_s=points * len(times) / sum(times),
        latency_ms_p50=median(times) * 1e3,
        peak_rss_mb=own_peak_rss_mb(),
    )
    out.traffic.update(points_per_rep=points, reps=len(times),
                       raw_ms_p50=median([raw for _, raw, _ in reps]) * 1e3,
                       speed_factor=calibrator.median_factor(),
                       repeat_share=repeat_share(sweep_of(pool[0])))
    out.layers["traffic.repeat_share"] = out.traffic["repeat_share"]

    if ctx.trace:
        recorder = layertrace.SpanRecorder()
        caches: Counter = Counter()
        traced_seeds = pool[:TRACED_REPS]
        with layertrace.traced_layers(recorder):
            traced = [calibrator.scale(one_rep(seed, caches)) for seed in traced_seeds]
        events = recorder.export(str(ctx.trace_path()))
        out.layers.update(layer_metrics(recorder, events, caches))
        out.layers["trace.overhead_pct"] = overhead_pct(reps, traced_seeds, traced)
        out.layers["trace.point_share_explained"] = explained_share(events, "api.point")


# ---------------------------------------------------------------------------
# query-suites
# ---------------------------------------------------------------------------


def hot_partition_shares(seed: int) -> Dict[str, float]:
    """Per suite: share of its largest table's tuples that the low-bit
    partitioner sends to the fullest of 64 partitions."""
    import numpy as np
    from repro.experiments import common
    from repro.operators.partition import SCHEME_LOW_BITS, destination_map
    from repro.suites.registry import SUITES

    variant = common.machine_for("mondrian").variant(common.NUM_PARTITIONS)
    shares = {}
    for name, suite in SUITES.items():
        plan = suite.build_plan(seed=seed, num_partitions=common.NUM_PARTITIONS)
        table = max(plan.tables.values(), key=len)
        dest = destination_map(table, variant, SCHEME_LOW_BITS, plan.key_space_bits)
        shares[name] = float(np.bincount(dest).max() / len(table))
    return shares


def query_suites(ctx: Context, out: Outcome) -> None:
    from repro.experiments import common
    from repro.suites.registry import SUITES
    from repro.suites.runner import SuiteRun

    golden = goldens.load("query-suites")
    suites, systems, pool = tuple(SUITES), common.ALL_SYSTEMS, SUITE_SEEDS
    if ctx.smoke:
        suites, systems = ("dict-products", "skew-hotspot"), ("cpu", "mondrian")
        pool = pool[:2]

    def one_rep(seed: int, caches: Optional[Counter] = None) -> float:
        common.clear_caches()
        run = SuiteRun(suites=suites, systems=systems, seed=seed)
        start = time.perf_counter()
        export = run.run(jobs=1).to_json()
        elapsed = time.perf_counter() - start
        if caches is not None:
            add_cache_stats(caches)
        groups = goldens.group_records(json.loads(export), SUITE_FIELDS)
        for point, outcome in zip(run.points(), run.outcomes()):
            key = f"{point.suite}|{point.system}|{seed}"
            chunk = groups.get((point.suite, point.system, seed))
            out.check(
                chunk is not None
                and goldens.records_digest(chunk) == golden.get(key)
                and outcome.output_digest == golden.get(f"output|{point.suite}|{seed}"),
                f"query-suites {key}: output differs from the golden digests",
            )
        return elapsed

    one_rep(pool[0])  # warm-up, verified but untimed
    points = len(suites) * len(systems)
    calibrator = calibrate.Calibrator()
    reps = cycled_reps(one_rep, pool, random.Random(ctx.seed), ctx.seconds, calibrator)
    times = [t for _, _, t in reps]
    out.metrics.update(
        throughput_per_s=points * len(times) / sum(times),
        latency_ms_p50=median(times) * 1e3,
        peak_rss_mb=own_peak_rss_mb(),
    )
    shares = hot_partition_shares(pool[0])
    out.traffic.update(points_per_rep=points, reps=len(times),
                       raw_ms_p50=median([raw for _, raw, _ in reps]) * 1e3,
                       speed_factor=calibrator.median_factor(),
                       hot_partition_share=shares)
    for name, share in shares.items():
        out.layers[f"traffic.hot_partition_share.{name}"] = share

    if ctx.trace:
        recorder = layertrace.SpanRecorder()
        caches: Counter = Counter()
        traced_seeds = pool[:TRACED_REPS]
        with layertrace.traced_layers(recorder):
            traced = [calibrator.scale(one_rep(seed, caches)) for seed in traced_seeds]
        events = recorder.export(str(ctx.trace_path()))
        out.layers.update(layer_metrics(recorder, events, caches))
        out.layers["trace.overhead_pct"] = overhead_pct(reps, traced_seeds, traced)
        out.layers["trace.point_share_explained"] = explained_share(events, "suites.point")


# ---------------------------------------------------------------------------
# service-mix
# ---------------------------------------------------------------------------


def service_points(seeds: Sequence[int], systems: Optional[Sequence[str]] = None
                   ) -> List[Dict[str, Any]]:
    """Scenario dicts (the wire form) for every preset x operator x seed x
    partition count."""
    from repro.experiments import common

    return [
        {"system": system, "operator": op, "model_scale": float(common.MODEL_SCALE),
         "seed": seed, "num_partitions": parts}
        for seed in seeds
        for system in (systems or common.ALL_SYSTEMS)
        for op in OPERATORS
        for parts in SERVICE_PARTITIONS
    ]


def point_key(point: Dict[str, Any]) -> str:
    return goldens.scenario_key(point["system"], point["operator"], point["seed"],
                                point["num_partitions"])


def stratified(points: Sequence[Dict[str, Any]], rng: random.Random) -> List[Dict[str, Any]]:
    """``points`` shuffled seed by seed: every run of consecutive points
    covers each (system, operator, partitions) combination about equally,
    so the cost of the first N taken hardly depends on the shuffle."""
    by_seed: Dict[int, List[Dict[str, Any]]] = {}
    for point in points:
        by_seed.setdefault(point["seed"], []).append(point)
    groups = list(by_seed.values())
    rng.shuffle(groups)
    ordered = []
    for group in groups:
        group = list(group)
        rng.shuffle(group)
        ordered.extend(group)
    return ordered[::-1]  # consumed with pop() from the end


class RequestPlan:
    """The seeded request stream, in shuffled blocks of ``BLOCK``.

    A ``write`` is a never-seen point, taken in order from a shuffled
    pool.  Reads are pre-filled points: a ``cold`` read is the next point
    no request has touched yet, which a member answers from the disk
    store; a ``warm`` read re-reads a touched point, which its owner
    answers from its memory tier.  Fixed counts per block keep the mix,
    and so the work per request, the same from first request to last and
    from run to run.
    """

    def __init__(self, rng: random.Random, reads, writes) -> None:
        self._rng = rng
        self._cold = stratified(reads, rng)
        self._writes = stratified(writes, rng)
        self._warm: List[Dict[str, Any]] = []
        self._block: List[str] = []
        self.exhausted = False

    def touch(self, count: int) -> List[Tuple[str, Dict[str, Any]]]:
        """The first reads of ``count`` cold points (the warm-up)."""
        return [("read", self._take_cold()) for _ in range(count)]

    def _take_cold(self) -> Dict[str, Any]:
        point = self._cold.pop()
        self._warm.append(point)
        return point

    def __next__(self) -> Tuple[str, Dict[str, Any]]:
        if not self._block:
            self._block = list(BLOCK)
            self._rng.shuffle(self._block)
        kind = self._block.pop()
        if kind == "write" and self._writes:
            return "write", self._writes.pop()
        if kind == "cold" and self._cold:
            return "read", self._take_cold()
        self.exhausted = self.exhausted or kind != "warm"
        return "read", self._rng.choice(self._warm)


def _vm_hwm_kb(pid: int) -> int:
    with contextlib.suppress(OSError):
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    return 0


class Fleet:
    """One ``python -m repro.service serve --fleet`` router process, whose
    member daemons it spawns itself."""

    def __init__(self, store_root: Path, env: Dict[str, str]) -> None:
        from repro.service.client import ServiceClient

        self.member_pids: List[int] = []
        self.port: Optional[int] = None
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "serve", "--fleet",
             "--store", str(store_root), "--shards", str(SHARDS),
             "--replicas", str(REPLICAS), "--host", "127.0.0.1", "--port", "0"],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        try:
            banner = self.proc.stdout.readline()
            match = re.search(r"serving on ([\w.]+):(\d+)", banner)
            if not match:
                raise RuntimeError(f"fleet router did not start: {banner!r}")
            self.host, self.port = match.group(1), int(match.group(2))
            with ServiceClient(self.host, self.port) as client:
                self.member_pids = [m["pid"] for m in client.ping()["members"]]
        except BaseException:
            self.stop()
            raise

    def peak_rss_mb(self) -> float:
        pids = [self.proc.pid] + self.member_pids
        return sum(_vm_hwm_kb(pid) for pid in pids) / 1024.0

    def stop(self) -> None:
        from repro.service.client import ServiceClient, ServiceError

        if self.proc.poll() is None and self.port is not None:
            with contextlib.suppress(OSError, ServiceError, ValueError):
                with ServiceClient(self.host, self.port, timeout=10.0, retries=0) as client:
                    client.shutdown()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30)
            # A clean shutdown stops the members (the router's children)
            # before the router exits; a killed router orphans them.
            for pid in self.member_pids:
                with contextlib.suppress(OSError):
                    os.kill(pid, signal.SIGKILL)
            for pid in self.member_pids:
                for _ in range(100):
                    if not Path(f"/proc/{pid}").exists():
                        break
                    time.sleep(0.05)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def fleet_setup(ctx: Context, index: int, points, env) -> Tuple[Fleet, Path, float]:
    """Pre-fill a fresh sharded store with ``points``, then boot a fleet on it."""
    from repro.experiments import common
    from repro.service.fleet import ShardedResultStore

    root = ctx.work / f"store-{os.getpid()}-{index}"
    shutil.rmtree(root, ignore_errors=True)
    common.clear_caches()
    start = time.perf_counter()
    store = ShardedResultStore(root, shards=SHARDS, replicas=REPLICAS, fsync=False)
    previous = common.store_selection()
    common.configure_store(store)
    try:
        for p in points:
            common.run_cached_result(p["system"], p["operator"], p["model_scale"],
                                     seed=p["seed"], num_partitions=p["num_partitions"])
    finally:
        common.restore_store_selection(previous)
    store.flush()
    fleet = Fleet(root, env)
    elapsed = time.perf_counter() - start
    common.clear_caches()
    return fleet, root, elapsed


async def _closed_loop(client, requests: Iterator[Tuple[str, Dict[str, Any]]], count: int,
                       recorder: Optional[layertrace.SpanRecorder] = None):
    """``CALLERS`` callers, each sending its next request only after the
    previous reply, until ``count`` requests.  Returns (replies, elapsed
    seconds, transport errors)."""
    replies: List[Tuple[str, Dict[str, Any], Any, float]] = []
    errors: List[Tuple[str, Dict[str, Any], str]] = []
    issued = 0
    started = time.perf_counter()

    async def caller() -> None:
        nonlocal issued
        while issued < count:
            issued += 1
            kind, point = next(requests)
            start = time.perf_counter_ns()
            try:
                result = await client.evaluate(point)
            except Exception as exc:  # noqa: BLE001 - counted as a failed request
                errors.append((kind, point, f"{type(exc).__name__}: {exc}"))
                continue
            end = time.perf_counter_ns()
            replies.append((kind, point, result, (end - start) / 1e6))
            if recorder is not None:
                recorder.record(f"fleet.{kind}", start, end, recorder.new_op())

    await asyncio.gather(*(caller() for _ in range(CALLERS)))
    return replies, time.perf_counter() - started, errors


class Window:
    """One calibrated stretch of the closed loop."""

    def __init__(self, replies, elapsed: float, errors, factor: float) -> None:
        self.replies = replies
        self.elapsed = elapsed
        self.errors = errors
        self.factor = factor

    def scaled_ms(self, kind: Optional[str] = None) -> List[float]:
        return [ms * self.factor for k, _, _, ms in self.replies if kind in (None, k)]


def run_windows(fleet: Fleet, requests: Iterator[Tuple[str, Dict[str, Any]]], total: int,
                calibrator: calibrate.Calibrator, window: int = WINDOW,
                recorder: Optional[layertrace.SpanRecorder] = None) -> List[Window]:
    """``total`` requests of the closed loop, in windows of ``window``
    requests, the host speed probed between windows while callers idle."""
    from repro.service.fleet import AsyncServiceClient

    async def loop() -> List[Window]:
        windows = []
        async with AsyncServiceClient(fleet.host, fleet.port, retries=2,
                                      max_connections=CALLERS) as client:
            left = total
            while left > 0:
                replies, elapsed, errors = await _closed_loop(
                    client, requests, count=min(window, left), recorder=recorder)
                windows.append(Window(replies, elapsed, errors, calibrator.scale(1.0)))
                left -= window
        return windows

    return asyncio.run(loop())


def _check_replies(windows: List[Window], golden: Dict[str, str], out: Outcome) -> None:
    for window in windows:
        for kind, point, error in window.errors:
            out.check(False, f"service-mix {kind} {point_key(point)}: {error}")
        for kind, point, result, _ms in window.replies:
            out.check(
                goldens.records_digest(result.to_records()) == golden.get(point_key(point)),
                f"service-mix {kind} {point_key(point)}: reply differs from the golden digest",
            )


def _fleet_counters(fleet: Fleet) -> Counter:
    """Router and member counters from the ``stats`` verb."""
    from repro.service.client import ServiceClient

    with ServiceClient(fleet.host, fleet.port) as client:
        stats = client.stats()
    counters: Counter = Counter()
    for name in ("hedges", "hedge_wins", "failovers", "degraded"):
        counters[f"fleet.{name}"] += stats["router"].get(name, 0)
    for member in stats["members"].values():
        store = member.get("store") or {}
        for name in ("hits", "misses", "puts"):
            counters[f"service.store.{name}"] += store.get(name, 0)
        for name in ("read_repairs", "replica_write_failures"):
            counters[f"fleet.{name}"] += store.get(name, 0)
        counters["memory.hits"] += member["cache"]["tiers"]["result"]["hits"]
    return counters


def _replay(store_root: Path, plan: RequestPlan, count: int, golden: Dict[str, str],
            out: Outcome, recorder: layertrace.SpanRecorder) -> Dict[str, List[float]]:
    """The same request mix dispatched in-process (no wire) over the
    fleet's store, with the service layers traced."""
    from repro.experiments import common
    from repro.service.daemon import EvaluationDaemon
    from repro.service.fleet import ShardedResultStore
    from repro.service.scheduler import BatchScheduler

    common.clear_caches()
    daemon = EvaluationDaemon(
        BatchScheduler(store=ShardedResultStore(store_root, fsync=False)))
    latencies: Dict[str, List[float]] = {"read": [], "write": []}
    try:
        with layertrace.traced_layers(recorder):
            for _ in range(count):
                kind, point = next(plan)
                start = time.perf_counter()
                result = daemon.dispatch({"verb": "evaluate", "scenario": point})
                latencies[kind].append((time.perf_counter() - start) * 1e3)
                out.check(
                    goldens.records_digest(result["records"]) == golden.get(point_key(point)),
                    f"service-mix replay {point_key(point)}: differs from the golden digest",
                )
    finally:
        daemon.scheduler.close()
    return latencies


def service_mix(ctx: Context, out: Outcome, env: Dict[str, str]) -> List[float]:
    """Runs the mix; returns the scaled fleet set-up times (added to
    ``setup_s``)."""
    golden = goldens.load("service-mix")
    systems = ("cpu", "mondrian") if ctx.smoke else None
    reads = service_points(SERVICE_READ_SEEDS[:1] if ctx.smoke else SERVICE_READ_SEEDS,
                           systems)
    writes = service_points(SERVICE_WRITE_SEEDS[:2] if ctx.smoke else SERVICE_WRITE_SEEDS, systems)
    setups = 1 if ctx.smoke else 3
    # Store writes skip fsync: its latency is the virtual disk's, which
    # varies far more from run to run than anything the service does.
    fleet_env = dict(env, REPRO_STORE_FSYNC="0")
    setup_times: List[float] = []
    roots: List[Path] = []
    fleet: Optional[Fleet] = None
    calibrator: Optional[calibrate.Calibrator] = None
    try:
        setup_calibrator = calibrate.Calibrator()
        for index in range(setups):
            if fleet is not None:
                fleet.stop()
            fleet, root, elapsed = fleet_setup(ctx, index, reads, fleet_env)
            roots.append(root)
            setup_times.append(setup_calibrator.scale(elapsed))
        plan = RequestPlan(random.Random(ctx.seed), reads, writes)
        calibrator = calibrate.Calibrator(processes=CALLERS)

        warmup = plan.touch(5 if ctx.smoke else WARMUP_READS)
        _check_replies(run_windows(fleet, iter(warmup), len(warmup), calibrator), golden, out)
        before = _fleet_counters(fleet)
        windows = run_windows(fleet, plan, max(1, round(ctx.seconds * NOMINAL_RATE)),
                              calibrator)
        delta = _fleet_counters(fleet)
        delta.subtract(before)
        _check_replies(windows, golden, out)
        out.metrics["peak_rss_mb"] = fleet.peak_rss_mb()

        replies = sum(len(w.replies) for w in windows)
        read_ms = [ms for w in windows for ms in w.scaled_ms("read")]
        write_ms = [ms for w in windows for ms in w.scaled_ms("write")]
        # Medians over windows: a burst of host contention moves a few
        # windows, not the run's figure.
        out.metrics.update(
            throughput_per_s=median([len(w.replies) / (w.elapsed * w.factor)
                                     for w in windows]),
            latency_ms_p50=median([median(w.scaled_ms()) for w in windows]),
        )
        disk, memory = delta["service.store.hits"], delta["memory.hits"]
        out.traffic.update(
            requests=replies + sum(len(w.errors) for w in windows),
            reads=len(read_ms), writes=len(write_ms), windows=len(windows),
            raw_ms_p50=median([ms for w in windows for _, _, _, ms in w.replies]),
            speed_factor=calibrator.median_factor(),
            read_ms_p50=median(read_ms), read_ms_p99=percentile(read_ms, 99),
            write_ms_p50=median(write_ms),
            disk_read_share=disk / (disk + memory) if disk + memory else 0.0,
            pools_exhausted=plan.exhausted,
        )
        out.layers.update({
            "fleet.read_ms_p50": out.traffic["read_ms_p50"],
            "fleet.read_ms_p99": out.traffic["read_ms_p99"],
            "fleet.write_ms_p50": out.traffic["write_ms_p50"],
            "traffic.disk_read_share": out.traffic["disk_read_share"],
        })

        if ctx.trace:
            recorder = layertrace.SpanRecorder()
            count = 40 if ctx.smoke else TRACED_REQUESTS
            before = _fleet_counters(fleet)
            traced = run_windows(fleet, plan, count, calibrator, window=count,
                                 recorder=recorder)
            delta = _fleet_counters(fleet)
            delta.subtract(before)
            _check_replies(traced, golden, out)
            for name in ("service.store.hits", "service.store.misses", "service.store.puts",
                         "fleet.hedges", "fleet.hedge_wins", "fleet.failovers",
                         "fleet.read_repairs", "fleet.replica_write_failures"):
                out.layers[name] = float(delta[name])
            fleet.stop()
            fleet = None
            replayed = _replay(roots[-1], plan, count, golden, out, recorder)
            events = recorder.export(str(ctx.trace_path()))
            caches: Counter = Counter()
            add_cache_stats(caches)
            out.layers.update(layer_metrics(recorder, events, caches))
            traced_read = median(traced[0].scaled_ms("read"))
            replay_factor = calibrator.scale(1.0)
            out.layers["fleet.wire_ms"] = traced_read - median(
                [ms * replay_factor for ms in replayed["read"]])
            out.layers["trace.overhead_pct"] = (
                (traced_read - out.traffic["read_ms_p50"]) / out.traffic["read_ms_p50"] * 100.0
            )
            out.layers["trace.point_share_explained"] = explained_share(
                events, "service.dispatch")
    finally:
        if calibrator is not None:
            calibrator.close()
        if fleet is not None:
            fleet.stop()
        for root in roots:
            shutil.rmtree(root, ignore_errors=True)
    return setup_times


# ---------------------------------------------------------------------------
# Set-up probe (runs in a fresh child process).
# ---------------------------------------------------------------------------


def setup_probe(workload: str) -> None:
    """Import the workload's entry points and build its machines."""
    from repro.experiments import common

    if workload == "design-sweep":
        from repro.api import Sweep  # noqa: F401 - the import is the work

        systems = sweep_systems()
    elif workload == "query-suites":
        from repro.suites.runner import SuiteRun  # noqa: F401

        systems = list(common.ALL_SYSTEMS)
    else:
        from repro.service.fleet import AsyncServiceClient, ShardedResultStore  # noqa: F401

        systems = list(common.ALL_SYSTEMS)
    for system in systems:
        common.machine_for(system)


WORKLOADS = ("design-sweep", "query-suites", "service-mix")
