#!/usr/bin/env python
"""Load-test the evaluation fleet: thousands of requests, one SIGKILL.

Stands up a real fleet (``--shards`` member daemons over a sharded,
``--replicas``-way replicated store, behind the hedging/failing-over
router) and replays ``--requests`` concurrent ``evaluate`` requests
through the pipelined :class:`~repro.service.fleet.AsyncServiceClient`
-- twice:

- **steady**: the fleet left alone, measuring the happy-path tail;
- **kill-shard**: the same load, except one member daemon is SIGKILLed
  mid-run (at ``--kill-at`` of the request stream).  The router's
  failover plus the client's idempotent-verb retry matrix must absorb
  the murder: **any failed request fails the harness** (exit 1).

Each phase prints its p50/p95/p99 latency and throughput.

Usage::

    python tools/load_test.py              # make load-test (temp store)
    python tools/load_test.py --smoke      # make load-test-smoke

Requests cycle over the committed sweep-smoke grid, pre-warmed with one
sweep so the measured requests are store-served -- the harness times
the *service fabric* (router, hedging, sharded reads, wire), not the
simulator.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))


def percentile(samples, q: float) -> float:
    """Nearest-rank-with-interpolation percentile of a sorted list."""
    if not samples:
        return 0.0
    if len(samples) == 1:
        return samples[0]
    position = q * (len(samples) - 1)
    low = int(position)
    high = min(low + 1, len(samples) - 1)
    fraction = position - low
    return samples[low] * (1.0 - fraction) + samples[high] * fraction


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=2000, metavar="N",
                        help="requests per phase (default 2000)")
    parser.add_argument("--concurrency", type=int, default=64, metavar="C",
                        help="concurrent in-flight requests (default 64)")
    parser.add_argument("--shards", type=int, default=3, metavar="N",
                        help="fleet store shards / member daemons (default 3)")
    parser.add_argument("--replicas", type=int, default=2, metavar="R",
                        help="copies of each store object (default 2)")
    parser.add_argument("--kill-at", type=float, default=0.25, metavar="FRAC",
                        help="SIGKILL one member after this fraction of the "
                             "kill-shard phase has been issued (default 0.25)")
    parser.add_argument("--kill-member", type=int, default=0, metavar="I",
                        help="index of the member daemon to murder (default 0)")
    parser.add_argument("--hedge-after", type=float, default=0.25, metavar="S",
                        help="router hedge deadline in seconds (default 0.25)")
    parser.add_argument("--retries", type=int, default=3, metavar="N",
                        help="client transport retry budget (default 3)")
    parser.add_argument("--deadline", type=float, default=60.0, metavar="S",
                        help="per-request deadline in seconds (default 60)")
    parser.add_argument("--store", metavar="DIR", default=None,
                        help="fleet store root (default: a fresh temp dir)")
    parser.add_argument("--smoke", action="store_true",
                        help="small fast run for CI (120 requests, "
                             "concurrency 16), same zero-failure assertion")
    return parser


def scenarios_from_smoke_grid():
    """The committed sweep-smoke grid, expanded to scenario dicts."""
    from repro.api.sweep import Sweep

    grid = json.loads((ROOT / "tests/data/sweep_smoke.json").read_text())
    return [s.to_dict() for s in Sweep.from_dict(grid).scenarios()]


async def run_phase(
    name, address, scenarios, requests, concurrency, retries, deadline,
    kill=None, kill_at=0.25,
):
    """Issue ``requests`` evaluates; returns latency/failure accounting.

    ``kill`` is an optional thunk fired once, after ``kill_at`` of the
    requests have been *issued* -- i.e. while the stream is in full
    flight.
    """
    from repro.service.fleet import AsyncServiceClient

    latencies = []
    failures = []
    issued = 0
    kill_after = max(1, int(requests * kill_at))
    killed = {}
    gate = asyncio.Semaphore(concurrency)

    async with AsyncServiceClient(
        *address, retries=retries, deadline=deadline,
        max_connections=min(concurrency, 32),
    ) as client:
        async def one(index):
            nonlocal issued
            async with gate:
                issued += 1
                if kill is not None and issued == kill_after and not killed:
                    killed["pid"] = kill()
                started = time.perf_counter()
                try:
                    await client.evaluate(scenarios[index % len(scenarios)])
                except Exception as exc:  # noqa: BLE001 - accounted, fails run
                    failures.append(f"{type(exc).__name__}: {exc}")
                    return
                latencies.append(time.perf_counter() - started)

        wall_started = time.perf_counter()
        await asyncio.gather(*(one(i) for i in range(requests)))
        wall = time.perf_counter() - wall_started

    ordered = sorted(latencies)
    return {
        "phase": name,
        "requests": requests,
        "failures": len(failures),
        "failure_samples": failures[:5],
        "killed_pid": killed.get("pid"),
        "wall_s": wall,
        "throughput_rps": (len(latencies) / wall) if wall > 0 else 0.0,
        "latency_s": {
            "p50": percentile(ordered, 0.50),
            "p95": percentile(ordered, 0.95),
            "p99": percentile(ordered, 0.99),
        },
    }


def summarize(phase: dict) -> str:
    latency = phase["latency_s"]
    return (
        f"{phase['phase']:<12} {phase['requests']:>6} requests  "
        f"p50 {latency['p50'] * 1e3:7.2f} ms  "
        f"p95 {latency['p95'] * 1e3:7.2f} ms  "
        f"p99 {latency['p99'] * 1e3:7.2f} ms  "
        f"{phase['throughput_rps']:8.1f} req/s  "
        f"failures {phase['failures']}"
        + (f"  (killed pid {phase['killed_pid']})"
           if phase["killed_pid"] else "")
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.smoke:
        args.requests = min(args.requests, 120)
        args.concurrency = min(args.concurrency, 16)

    from repro.service.fleet import AsyncServiceClient, start_fleet_background

    store = args.store or tempfile.mkdtemp(prefix="repro-load-test-")
    scenarios = scenarios_from_smoke_grid()
    fleet = start_fleet_background(
        store, shards=args.shards, replicas=args.replicas,
        hedge_after=args.hedge_after if args.hedge_after > 0 else None,
    )
    print(
        f"load-test: fleet up on {fleet.host}:{fleet.port} "
        f"(shards={args.shards}, replicas={args.replicas}, "
        f"store={store})",
        flush=True,
    )
    try:
        async def warm():
            async with AsyncServiceClient(*fleet.address,
                                          retries=args.retries) as client:
                grid = json.loads(
                    (ROOT / "tests/data/sweep_smoke.json").read_text()
                )
                await client.sweep(grid)

        asyncio.run(warm())

        phases = []
        phases.append(asyncio.run(run_phase(
            "steady", fleet.address, scenarios, args.requests,
            args.concurrency, args.retries, args.deadline,
        )))
        print(summarize(phases[-1]), flush=True)
        phases.append(asyncio.run(run_phase(
            "kill_shard", fleet.address, scenarios, args.requests,
            args.concurrency, args.retries, args.deadline,
            kill=lambda: fleet.kill_member(args.kill_member),
            kill_at=args.kill_at,
        )))
        print(summarize(phases[-1]), flush=True)
    finally:
        fleet.stop()

    failed = sum(p["failures"] for p in phases)
    if failed:
        for phase in phases:
            for sample in phase["failure_samples"]:
                print(f"load-test FAILURE [{phase['phase']}]: {sample}",
                      file=sys.stderr)
        print(f"load-test: FAIL -- {failed} failed request(s); the fleet "
              "must absorb a member SIGKILL with zero failures",
              file=sys.stderr)
        return 1
    print("load-test: OK -- zero failed requests across "
          f"{sum(p['requests'] for p in phases)} "
          "(member SIGKILL included).")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
