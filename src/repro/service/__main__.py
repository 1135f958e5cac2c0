"""Command-line front end: ``python -m repro.service``.

Subcommands::

    python -m repro.service serve  --store DIR [--host H] [--port P] [--jobs N]
                                   [--fleet] [--shards N] [--replicas R]
                                   [--hedge-after S]
    python -m repro.service submit --sweep SPEC.json [--host H] [--port P]
                                   [--json OUT] [--degrade local|fail]
    python -m repro.service stats  [--host H] [--port P]
    python -m repro.service ping   [--host H] [--port P]
    python -m repro.service recover --store DIR
    python -m repro.service rebalance --store DIR [--shards N] [--replicas R]

``serve`` runs the daemon in the foreground and prints
``repro.service: serving on HOST:PORT`` once bound (``--port 0`` picks
an ephemeral port -- scripts parse that line to find it).  With
``--fleet`` it instead runs the whole evaluation fleet: ``--shards N``
member daemons over a sharded, ``--replicas R``-way replicated store at
``--store``, behind one router on HOST:PORT that health-checks, hedges
slow requests after ``--hedge-after`` seconds, fails over, and respawns
dead members -- same wire protocol, so every client below works
unchanged.  ``--jobs`` configures the single daemon only; ``--fleet``
refuses it.  ``submit`` sends a sweep grid to a running daemon and
exports the returned ``ResultSet`` exactly like ``python -m repro.api``
does; ``stats`` and ``ping`` are one-line JSON reports.  ``recover``
runs the store's journal recovery + full verification scan offline and
prints the accounting (rolled forward / discarded / quarantined) --
fleet store roots are detected automatically and scrubbed shard by
shard.  ``rebalance`` re-replicates a fleet store offline after a shard
was lost, added, or removed (pass ``--shards``/``--replicas`` to change
the topology; omit them to heal in place).

Client subcommands share ``--retries N`` (transport retry budget for
idempotent verbs) and ``--deadline S`` (per-request budget, enforced by
the daemon too); ``submit --degrade local`` falls back to in-process
evaluation when the daemon stays unreachable.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.service.client import ServiceClient
from repro.service.daemon import DEFAULT_PORT, serve


def _add_endpoint_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--host", default="127.0.0.1", metavar="H",
        help="daemon address (default 127.0.0.1)",
    )
    parser.add_argument(
        "--port", type=int, default=DEFAULT_PORT, metavar="P",
        help=f"daemon TCP port (default {DEFAULT_PORT})",
    )


def _add_resilience_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="transport retry budget for idempotent requests (default 2)",
    )
    parser.add_argument(
        "--deadline", type=float, default=None, metavar="S",
        help="per-request deadline in seconds, enforced client- and "
             "daemon-side (default: none)",
    )


def _client(args) -> ServiceClient:
    return ServiceClient(
        args.host,
        args.port,
        retries=args.retries,
        deadline=args.deadline,
        degrade=getattr(args, "degrade", "fail"),
    )


def build_parser() -> argparse.ArgumentParser:
    """The service CLI (kept separate so tooling can inspect the flags)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", required=True)

    serve_p = commands.add_parser(
        "serve", help="run the evaluation daemon in the foreground"
    )
    _add_endpoint_args(serve_p)
    serve_p.add_argument(
        "--store", metavar="DIR",
        help="persistent result-store directory shared by all clients "
             "(default: $REPRO_STORE if set; without either, the daemon "
             "still batches and memoizes in memory)",
    )
    serve_p.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="process-pool width for store misses (default 1)",
    )
    serve_p.add_argument(
        "--fleet", action="store_true",
        help="serve a whole evaluation fleet: --shards member daemons "
             "over a sharded replicated store behind one router on "
             "HOST:PORT (requires --store)",
    )
    serve_p.add_argument(
        "--shards", type=int, default=3, metavar="N",
        help="fleet mode: number of store shards / member daemons "
             "(default 3)",
    )
    serve_p.add_argument(
        "--replicas", type=int, default=2, metavar="R",
        help="fleet mode: copies kept of each store object (default 2)",
    )
    serve_p.add_argument(
        "--hedge-after", type=float, default=0.25, metavar="S",
        help="fleet mode: hedge a slow request to a replica owner after "
             "this many seconds (default 0.25; 0 disables hedging)",
    )

    submit_p = commands.add_parser(
        "submit", help="submit a sweep grid to a running daemon"
    )
    _add_endpoint_args(submit_p)
    _add_resilience_args(submit_p)
    submit_p.add_argument(
        "--sweep", metavar="SPEC.json", required=True,
        help="sweep grid JSON file (same format as python -m repro.api)",
    )
    submit_p.add_argument(
        "--json", metavar="PATH",
        help="write the returned ResultSet as JSON ('-' for stdout)",
    )
    submit_p.add_argument(
        "--csv", metavar="PATH",
        help="write the returned ResultSet as CSV ('-' for stdout)",
    )
    submit_p.add_argument(
        "--degrade", choices=("local", "fail"), default="fail",
        help="when the daemon stays unreachable after retries: 'local' "
             "evaluates in-process with a warning, 'fail' (default) "
             "exits with the transport error",
    )

    stats_p = commands.add_parser(
        "stats",
        help="print a running daemon's request/scheduler/store/metrics stats",
    )
    _add_endpoint_args(stats_p)
    _add_resilience_args(stats_p)
    stats_p.add_argument(
        "--json", action="store_true",
        help="emit the stats as one canonical telemetry/v1 JSON line "
             "(sorted keys, no whitespace -- byte-stable for machine "
             "consumers) instead of the indented human form",
    )

    ping_p = commands.add_parser(
        "ping", help="check a daemon is alive and which store it serves"
    )
    _add_endpoint_args(ping_p)
    _add_resilience_args(ping_p)

    recover_p = commands.add_parser(
        "recover",
        help="recover + verify a result store offline (journal roll-forward, "
             "corrupt-entry quarantine)",
    )
    recover_p.add_argument(
        "--store", metavar="DIR", required=True,
        help="result-store directory to recover and verify",
    )

    rebalance_p = commands.add_parser(
        "rebalance",
        help="re-replicate a fleet store offline (after shard loss, or to "
             "change --shards/--replicas); prints the accounting",
    )
    rebalance_p.add_argument(
        "--store", metavar="DIR", required=True,
        help="fleet store root (the directory holding fleet.json)",
    )
    rebalance_p.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="new shard count (default: keep the manifest's topology)",
    )
    rebalance_p.add_argument(
        "--replicas", type=int, default=None, metavar="R",
        help="new replica count (default: keep the manifest's topology)",
    )
    return parser


def _cmd_serve(args) -> None:
    if args.jobs < 1:
        raise SystemExit("--jobs must be >= 1")
    if args.fleet:
        from repro.service.fleet import serve_fleet

        if not args.store:
            raise SystemExit("serve --fleet requires --store DIR")
        if args.shards < 1 or args.replicas < 1:
            raise SystemExit("--shards and --replicas must be >= 1")
        if args.jobs != 1:
            # Members are spawned without the flag: refuse rather than
            # silently serve without it.
            raise SystemExit(
                "serve --fleet takes no --jobs (members run with --jobs 1)"
            )
        serve_fleet(
            host=args.host,
            port=args.port,
            store=args.store,
            shards=args.shards,
            replicas=args.replicas,
            hedge_after=args.hedge_after if args.hedge_after > 0 else None,
        )
        return
    serve(host=args.host, port=args.port, store=args.store, jobs=args.jobs)


def _cmd_submit(args) -> None:
    from repro.api.__main__ import export_result_set, print_summary_table

    grid = json.loads(Path(args.sweep).read_text())
    # No eager connect: sweep() connects inside its retry loop, so
    # --retries/--degrade cover the initial connection refusal too.
    client = _client(args)
    try:
        results = client.sweep(grid)
    finally:
        client.close()
    if not export_result_set(results, args.json, args.csv):
        print_summary_table(results)


def _cmd_stats(args) -> None:
    with _client(args) as client:
        stats = client.stats()
    if getattr(args, "json", False):
        from repro.telemetry import encode_snapshot

        print(encode_snapshot(stats))
    else:
        print(json.dumps(stats, indent=2, sort_keys=True))


def _cmd_ping(args) -> None:
    with _client(args) as client:
        print(json.dumps(client.ping(), indent=2, sort_keys=True))


def _cmd_recover(args) -> None:
    from repro.service.store import open_store

    # Fleet-aware: a fleet.json root verifies every shard and scrubs.
    report = open_store(args.store).verify()
    print(json.dumps(report, indent=2, sort_keys=True))


def _cmd_rebalance(args) -> None:
    from repro.service.fleet import rebalance

    report = rebalance(args.store, shards=args.shards, replicas=args.replicas)
    print(json.dumps(report, indent=2, sort_keys=True))


def main(argv=None) -> None:
    args = build_parser().parse_args(argv)
    {
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "stats": _cmd_stats,
        "ping": _cmd_ping,
        "recover": _cmd_recover,
        "rebalance": _cmd_rebalance,
    }[args.command](args)


if __name__ == "__main__":
    main()
