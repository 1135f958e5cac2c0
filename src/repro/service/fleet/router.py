"""The fleet front door: one router, many member daemons.

A :class:`FleetRouter` is a lightweight asyncio daemon speaking the
exact newline-delimited JSON protocol of a single evaluation daemon --
existing clients (``ServiceClient``, ``python -m repro.service
submit``, the async client) point at the router and cannot tell the
difference -- while behind it, ``N`` ordinary member daemons (one per
store shard, all sharing the sharded store) do the evaluating:

- **Routing by shard ownership.**  An ``evaluate`` request's scenario
  digests to the same content address the store uses; the member
  co-located with the digest's primary owner shard gets the request,
  so the store probe is a local read on the data's home shard.
- **Hedging.**  If the routed member has not answered within
  ``hedge_after`` seconds, the request is *also* sent to the replica
  owner and the first success wins (safe: ``evaluate``/``sweep`` are
  idempotent by content address).  Tail latency becomes the minimum of
  two samples instead of a lost cause.
- **Pooled member connections.**  Each member keeps a
  :class:`~repro.service.wire.ConnectionPool` of the router's
  connections to it; a call has its connection to itself.  The losing
  side of a hedge is cancelled mid-read, so its socket -- whose stream
  may still carry a reply nobody will read -- is closed, never reused.
  A member's pool holds at most as many connections as calls to it
  ever ran at once, which ``MAX_INFLIGHT`` caps (health pings and
  ``stats`` aside).  A member's own error reply is relayed to the
  client verbatim and never failed over.
- **Failover & health.**  Member failures trip a per-member
  :class:`~repro.service.resilience.retry.CircuitBreaker`; a health
  loop pings members, notices dead processes, and **respawns** members
  the router spawned (backoff-paced by the shared
  :class:`~repro.service.resilience.retry.RetryPolicy`).  Requests
  simply fail over along the owner list and then to any live member.
- **Graceful degradation.**  With every member gone, the router
  evaluates in-process against the sharded store itself.  A request is
  never failed for lack of a healthy member.
- **Sweep fan-out.**  A ``sweep`` is expanded into per-scenario
  requests, routed concurrently (bounded in-flight), and reassembled
  in grid order -- so a fleet-served sweep exports byte-identically to
  a single-daemon or in-process run.

The router is the second server of the daemon's JSON-lines skeleton
(:func:`repro.service.daemon.serve_lines`): the wire loop and background
handle are the daemon's own, and the line format is
:mod:`repro.service.wire`'s.
``serve_fleet`` is the ``python -m repro.service serve --fleet`` entry
point; ``start_fleet_background`` is the test/doctest form.  Hedge,
failover, respawn and degrade events are counted in the telemetry
registry (``service.fleet.*``) and surface through ``stats``.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.service.daemon import (
    ServerHandle,
    ServiceProtocolError,
    lookup_verb,
    run_foreground,
    start_background,
)
from repro.service.fleet.ring import HashRing, shard_name
from repro.service.fleet.sharded import ShardedResultStore
from repro.service.resilience.retry import CircuitBreaker, RetryPolicy
from repro.service.wire import ConnectionPool, unwrap
from repro.version import __version__


#: Budget for one routed member call (a cold sweep point simulates).
MEMBER_TIMEOUT_S = 300.0
#: Pause between health-check passes over the members.
HEALTH_INTERVAL_S = 1.0
#: Budget for one health ping or member ``stats`` call.
HEALTH_TIMEOUT_S = 5.0
#: Cap on concurrently routed per-scenario requests.
MAX_INFLIGHT = 32
#: Pacing of a member's consecutive respawns.
RESPAWN_BACKOFF = RetryPolicy(base_delay=0.05, max_delay=2.0, jitter=0.0)


class MemberError(RuntimeError):
    """Transport-level loss of a member (connect/read/decode failure)."""


class Member:
    """One member daemon: optional owned process, health state and the
    router's pool of connections to its address (used only on the
    router's event loop)."""

    def __init__(
        self,
        index: int,
        host: str,
        port: int,
        proc: Optional[subprocess.Popen] = None,
    ) -> None:
        self.index = index
        self.pool = ConnectionPool(host, port)
        self.proc = proc
        self.breaker = CircuitBreaker(failure_threshold=3, reset_after=1.0)
        self.crashes = 0  # consecutive; paces respawn backoff

    @property
    def host(self) -> str:
        return self.pool.host

    @property
    def port(self) -> int:
        return self.pool.port

    @property
    def shard(self) -> str:
        return shard_name(self.index)

    @property
    def alive(self) -> bool:
        return self.proc is None or self.proc.poll() is None

    async def replace(self, host: str, port: int, proc: subprocess.Popen) -> None:
        """Point the member at a new process, then close the old
        process's pipe and the pooled connections to it."""
        old, self.proc = self.proc, proc
        self.pool.host, self.pool.port = host, port
        if old is not None and old.stdout is not None:
            with contextlib.suppress(OSError):
                old.stdout.close()
        await self.pool.close()

    def describe(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "shard": self.shard,
            "host": self.host,
            "port": self.port,
            "pid": self.proc.pid if self.proc is not None else None,
            "alive": self.alive,
            "circuit": self.breaker.state,
        }


def _start_member(store_root: str, host: str) -> subprocess.Popen:
    """Start one member daemon process on an ephemeral port.

    Members are plain ``python -m repro.service serve`` processes: the
    fleet manifest in ``store_root`` is what makes their scheduler open
    the sharded store -- no member-specific flags exist to get wrong.
    """
    import repro

    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    current = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not current else src + os.pathsep + current
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.service", "serve",
            "--host", host, "--port", "0", "--store", str(store_root),
        ],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )


def _announced_address(proc: subprocess.Popen) -> Tuple[str, int]:
    """Read a started member's banner: the address it serves on."""
    banner = proc.stdout.readline()
    match = re.search(r"serving on ([\w.]+):(\d+)", banner or "")
    if not match:
        raise RuntimeError(f"member daemon failed to announce: {banner!r}")
    return match.group(1), int(match.group(2))


def _reap(procs: Sequence[subprocess.Popen]) -> None:
    """Kill and wait out every process, closing its pipe."""
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
        with contextlib.suppress(subprocess.TimeoutExpired):
            proc.wait(timeout=10)
        with contextlib.suppress(OSError):
            proc.stdout.close()


def spawn_members(
    store_root: str, count: int, host: str = "127.0.0.1"
) -> List[Tuple[str, int, subprocess.Popen]]:
    """Start ``count`` member daemons, then read their banners.

    Every process starts before the first banner is read, so the
    members boot concurrently.  If any of them fails to start or to
    announce, every member started so far is killed and reaped before
    the error propagates: a failed set-up leaves no process behind.
    """
    procs: List[subprocess.Popen] = []
    try:
        for _ in range(count):
            procs.append(_start_member(store_root, host))
        return [(*_announced_address(proc), proc) for proc in procs]
    except BaseException:
        _reap(procs)
        raise


def spawn_member(store_root: str, host: str = "127.0.0.1") -> Tuple[str, int, subprocess.Popen]:
    """Start one member daemon on an ephemeral port; returns its address
    and process (:func:`spawn_members` of one)."""
    return spawn_members(store_root, 1, host)[0]


class FleetRouter:
    """Routes evaluation requests across member daemons (asyncio)."""

    def __init__(
        self,
        members: Sequence[Member],
        ring: Optional[HashRing] = None,
        store: Optional[ShardedResultStore] = None,
        hedge_after: Optional[float] = 0.25,
    ) -> None:
        if not members:
            raise ValueError("a fleet needs at least one member")
        self.members = list(members)
        self.store = store
        self.ring = ring if ring is not None else HashRing(
            [m.shard for m in self.members],
            replicas=store.replicas if store is not None else 2,
        )
        self._by_shard = {m.shard: m for m in self.members}
        self.hedge_after = hedge_after
        self.stopping = False
        self.requests: Dict[str, int] = {}
        self._counts = {
            "routed": 0,
            "hedges": 0,
            "hedge_wins": 0,
            "failovers": 0,
            "degraded": 0,
            "respawns": 0,
            "member_failures": 0,
        }
        self._rr = 0  # round-robin cursor for digestless requests
        # Built on the serving loop by started().
        self._local_lock: Optional[asyncio.Lock] = None
        self._inflight: Optional[asyncio.Semaphore] = None
        self._health: Optional[asyncio.Future] = None

    @property
    def counters(self) -> Dict[str, int]:
        """Routing events, plus the connections opened to members."""
        return dict(
            self._counts,
            member_connects=sum(m.pool.connects for m in self.members),
        )

    def _bump(self, name: str) -> None:
        """Count one routing event, here and in the telemetry registry."""
        from repro.telemetry import registry

        self._counts[name] += 1
        registry().counter(f"service.fleet.{name}").inc()

    # -- the member wire -----------------------------------------------------

    async def _member_call(
        self, member: Member, request: Dict[str, Any], timeout: float
    ) -> Any:
        """One request/response round trip to one member, on a connection
        checked out of the member's pool for this call alone.

        A hedge therefore never shares transport state with the attempt
        it races: the loser is cancelled mid-read and its socket closed.
        A member's own ``{"ok": false}`` reply raises
        :class:`~repro.service.wire.ServiceError`, which the router
        relays verbatim rather than failing over.
        """
        try:
            async with member.pool.checkout(min(timeout, 10.0)) as conn:
                response = await conn.exchange(request, timeout)
        except (OSError, ValueError, asyncio.TimeoutError) as exc:
            raise MemberError(f"member {member.index} lost: {exc!r}") from exc
        return unwrap(response)

    # -- placement -----------------------------------------------------------

    def _scenario_digest(self, scenario: Dict[str, Any]) -> Optional[str]:
        """The scenario's store content address (None for query plans)."""
        from repro.api.scenario import Scenario
        from repro.experiments import common
        from repro.service.store import digest_payload

        try:
            point = Scenario.from_dict(scenario)
        except (KeyError, TypeError, ValueError):
            return None  # the member daemon will report the real error
        if point.is_query:
            return None
        return digest_payload(
            common.result_store_payload(
                point.system,
                point.operator,
                point.model_scale,
                point.seed,
                point.num_partitions,
            )
        )

    def _candidates(self, digest: Optional[str]) -> List[Member]:
        """Members in routing preference order for one digest.

        Owner members first (primary, then replicas -- the hedge
        target), then every other member; within each class, members
        whose circuit allows traffic come first.  The list always
        contains every member: a fully tripped fleet is still *tried*
        before the router degrades to local evaluation.
        """
        if digest is not None:
            owner_shards = self.ring.owners(digest)
            owners = [self._by_shard[s] for s in owner_shards if s in self._by_shard]
        else:
            owners = []
            if self.members:
                self._rr += 1
                owners = [self.members[self._rr % len(self.members)]]
        rest = [m for m in self.members if m not in owners]
        ordered = owners + rest
        return (
            [m for m in ordered if m.alive and m.breaker.allow()]
            + [m for m in ordered if not (m.alive and m.breaker.allow())]
        )

    # -- hedged, failing-over dispatch ---------------------------------------

    async def _route(
        self, request: Dict[str, Any], digest: Optional[str]
    ) -> Any:
        """Send one idempotent request along the candidate list.

        The current candidate races a hedge to the next one after
        ``hedge_after`` seconds of silence; transport failures fail
        over down the list; daemon-reported errors surface immediately.
        Exhausting every member degrades to local evaluation.
        """
        candidates = self._candidates(digest)
        self._counts["routed"] += 1
        errors: List[BaseException] = []
        idx = 0
        while idx < len(candidates):
            primary = candidates[idx]
            tasks: Dict[asyncio.Task, Member] = {
                asyncio.ensure_future(
                    self._member_call(primary, request, MEMBER_TIMEOUT_S)
                ): primary
            }
            if self.hedge_after is not None and idx + 1 < len(candidates):
                done, _ = await asyncio.wait(
                    set(tasks), timeout=self.hedge_after
                )
                if not done:
                    hedge = candidates[idx + 1]
                    self._bump("hedges")
                    tasks[
                        asyncio.ensure_future(
                            self._member_call(hedge, request, MEMBER_TIMEOUT_S)
                        )
                    ] = hedge
            racing = set(tasks)
            first = next(iter(tasks.values()))
            while racing:
                done, racing = await asyncio.wait(
                    racing, return_when=asyncio.FIRST_COMPLETED
                )
                for task in done:
                    exc = task.exception()
                    member = tasks[task]
                    if exc is None:
                        member.breaker.record_success()
                        member.crashes = 0
                        if member is not first:
                            self._bump("hedge_wins")
                        for loser in racing:
                            loser.cancel()
                        return task.result()
                    if isinstance(exc, MemberError):
                        member.breaker.record_failure()
                        self._bump("member_failures")
                        errors.append(exc)
                    else:
                        # Daemon-reported: deterministic, do not retry.
                        for loser in racing:
                            loser.cancel()
                        raise exc
            idx += len(tasks)
            if idx < len(candidates):
                self._bump("failovers")
        return await self._degrade(request, errors)

    async def _degrade(
        self, request: Dict[str, Any], errors: List[BaseException]
    ) -> Any:
        """Every member is gone: evaluate in-process, against the store."""
        scenario = request.get("scenario")
        if not isinstance(scenario, dict):
            raise errors[-1] if errors else MemberError("no members available")
        self._bump("degraded")
        loop = asyncio.get_running_loop()
        async with self._local_lock:
            return await loop.run_in_executor(None, self._evaluate_local, scenario)

    def _evaluate_local(self, scenario: Dict[str, Any]) -> Dict[str, Any]:
        from repro.api.scenario import Scenario
        from repro.experiments import common

        if self.store is None:
            return {"records": Scenario.from_dict(scenario).records()}
        previous = common.store_selection()
        common.configure_store(self.store)
        try:
            return {"records": Scenario.from_dict(scenario).records()}
        finally:
            common.restore_store_selection(previous)

    # -- serving hooks (see repro.service.daemon.serve_lines) ---------------

    async def dispatch(self, request: Any, received: Optional[float] = None) -> Any:
        """One decoded request object -> the response's ``result``."""
        verb, handler = lookup_verb(self, request)
        self.requests[verb] = self.requests.get(verb, 0) + 1
        return await handler(request)

    answer = dispatch

    async def started(self) -> None:
        self._local_lock = asyncio.Lock()
        self._inflight = asyncio.Semaphore(MAX_INFLIGHT)
        self._health = asyncio.ensure_future(self._health_loop())

    async def finished(self) -> None:
        self._health.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await self._health
        for member in self.members:
            await member.pool.close()
        await asyncio.get_running_loop().run_in_executor(None, self.stop_members)
        if self.store is not None:
            self.store.flush()

    # -- verbs ---------------------------------------------------------------

    async def _verb_ping(self, request: Any) -> Dict[str, Any]:
        return {
            "service": "repro.service.fleet",
            "version": __version__,
            "pid": os.getpid(),
            "store": str(self.store.root) if self.store is not None else None,
            "shards": len(self.members),
            "replicas": self.ring.replicas,
            "members": [m.describe() for m in self.members],
        }

    async def _verb_evaluate(self, request: Any) -> Any:
        scenario = request.get("scenario")
        if not isinstance(scenario, dict):
            raise ServiceProtocolError('evaluate needs a "scenario" object')
        digest = self._scenario_digest(scenario)
        async with self._inflight:
            return await self._route(request, digest)

    async def _verb_sweep(self, request: Any) -> Dict[str, Any]:
        from repro.api.sweep import Sweep
        from repro.telemetry import span as _span

        grid = request.get("sweep")
        if not isinstance(grid, dict):
            raise ServiceProtocolError('sweep needs a "sweep" grid object')
        with _span("fleet_sweep", category="service"):
            scenarios = [s.to_dict() for s in Sweep.from_dict(grid).scenarios()]

        async def one(scenario: Dict[str, Any]) -> List[Dict[str, Any]]:
            sub = {"verb": "evaluate", "scenario": scenario}
            if "deadline_s" in request:
                sub["deadline_s"] = request["deadline_s"]
            digest = self._scenario_digest(scenario)
            async with self._inflight:
                result = await self._route(sub, digest)
            return result["records"]

        chunks = await asyncio.gather(*(one(s) for s in scenarios))
        return {"records": [r for chunk in chunks for r in chunk]}

    async def _verb_stats(self, request: Any) -> Dict[str, Any]:
        from repro.telemetry import registry

        members: Dict[str, Any] = {}
        for member in self.members:
            try:
                members[member.shard] = await self._member_call(
                    member, {"verb": "stats"}, timeout=HEALTH_TIMEOUT_S
                )
            except (MemberError, RuntimeError) as exc:
                members[member.shard] = {"error": str(exc)}
        return {
            "requests": dict(self.requests),
            "router": dict(
                self.counters, members=[m.describe() for m in self.members]
            ),
            "store": self.store.stats() if self.store is not None else None,
            "members": members,
            "metrics": registry().snapshot(),
        }

    async def _verb_shutdown(self, request: Any) -> Dict[str, Any]:
        self.stopping = True
        return {"stopping": True}

    # -- health & self-healing -----------------------------------------------

    async def _health_check(self) -> None:
        """One pass: ping every member, respawn owned dead processes."""
        for member in self.members:
            if member.proc is not None and member.proc.poll() is not None:
                await self._respawn(member)
                continue
            try:
                await self._member_call(
                    member, {"verb": "ping"}, timeout=HEALTH_TIMEOUT_S
                )
                member.breaker.record_success()
                member.crashes = 0
            except (MemberError, RuntimeError):
                member.breaker.record_failure()
                self._bump("member_failures")

    async def _respawn(self, member: Member) -> None:
        """Replace a dead owned member, paced by per-member backoff."""
        if self.store is None:
            return
        await asyncio.sleep(RESPAWN_BACKOFF.delay(member.crashes))
        member.crashes += 1
        loop = asyncio.get_running_loop()
        spawn = loop.run_in_executor(
            None, spawn_member, str(self.store.root), member.host
        )
        try:
            host, port, proc = await asyncio.shield(spawn)
        except asyncio.CancelledError:
            # The router is stopping mid-spawn.  The executor thread
            # starts the process regardless, so wait it out and hand it
            # to the member: stop_members must find it, or it outlives
            # the fleet.
            with contextlib.suppress(RuntimeError):
                await member.replace(*await spawn)
            raise
        except RuntimeError:
            member.breaker.record_failure()
            return
        await member.replace(host, port, proc)
        member.breaker.record_success()
        self._bump("respawns")

    async def _health_loop(self) -> None:
        while not self.stopping:
            await asyncio.sleep(HEALTH_INTERVAL_S)
            with contextlib.suppress(Exception):
                await self._health_check()

    def stop_members(self) -> None:
        """Shut down every member the router owns (spawned itself)."""
        for member in self.members:
            if member.proc is None:
                continue
            if member.proc.poll() is None:
                try:
                    from repro.service.client import ServiceClient, ServiceError

                    with ServiceClient(member.host, member.port, timeout=5.0,
                                       retries=0) as client:
                        client.shutdown()
                except (OSError, ServiceError, ValueError):
                    pass
            try:
                member.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                member.proc.kill()
                with contextlib.suppress(subprocess.TimeoutExpired):
                    member.proc.wait(timeout=10)
            if member.proc.stdout is not None:
                with contextlib.suppress(OSError):
                    member.proc.stdout.close()

    def member_pids(self) -> List[int]:
        """Pids of the live member processes the router owns."""
        return [
            m.proc.pid
            for m in self.members
            if m.proc is not None and m.proc.poll() is None
        ]

    def kill_member(self, index: int) -> Optional[int]:
        """SIGKILL one member daemon (chaos / load-test harness hook)."""
        member = self.members[index]
        if member.proc is None or member.proc.poll() is not None:
            return None
        pid = member.proc.pid
        member.proc.kill()
        return pid


def build_fleet(
    store: str,
    shards: int = 3,
    replicas: int = 2,
    host: str = "127.0.0.1",
    hedge_after: Optional[float] = 0.25,
) -> FleetRouter:
    """Create the sharded store, spawn the members, wire the router."""
    sharded = ShardedResultStore(store, shards=shards, replicas=replicas)
    members = [
        Member(index, member_host, member_port, proc)
        for index, (member_host, member_port, proc) in enumerate(
            spawn_members(str(sharded.root), shards, host)
        )
    ]
    return FleetRouter(
        members,
        ring=sharded.ring,
        store=sharded,
        hedge_after=hedge_after,
    )


def serve_fleet(
    host: str = "127.0.0.1",
    port: int = 0,
    store: Optional[str] = None,
    shards: int = 3,
    replicas: int = 2,
    hedge_after: Optional[float] = 0.25,
) -> None:
    """Run a whole fleet in the foreground until a ``shutdown`` request.

    Spawns ``shards`` member daemons over a (created if absent) sharded
    store at ``store``, then serves the router on ``host:port`` --
    ``--port 0`` picks an ephemeral port, announced exactly like the
    single daemon so scripts parse one banner format for both.
    """
    if store is None:
        raise ValueError("serve --fleet requires --store DIR (the fleet root)")
    router = build_fleet(
        store, shards=shards, replicas=replicas, host=host,
        hedge_after=hedge_after,
    )
    detail = (
        f"fleet store={router.store.root}, shards={shards}, "
        f"replicas={router.ring.replicas}"
    )
    run_foreground(router, host, port, detail)


def start_fleet_background(
    store: str,
    shards: int = 3,
    replicas: int = 2,
    host: str = "127.0.0.1",
    port: int = 0,
    hedge_after: Optional[float] = 0.25,
    router: Optional[FleetRouter] = None,
) -> ServerHandle:
    """Start a fleet on a daemon thread; returns once the router accepts.

    The handle's ``server`` is the :class:`FleetRouter`.  ``router``
    injects a pre-built router (tests wire members by hand: tarpits,
    dead ports, tight hedge deadlines); otherwise the fleet is built over
    ``store`` exactly like :func:`serve_fleet`.
    """
    if router is None:
        router = build_fleet(
            store, shards=shards, replicas=replicas, host=host,
            hedge_after=hedge_after,
        )
    return start_background(router, host, port, name="repro-fleet-router")
