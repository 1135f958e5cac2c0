"""Chaos harness for the evaluation service (``make chaos-test``).

Replays the committed sweep-smoke grid through a real daemon while
injecting every failure class the resilience layer claims to survive,
and asserts the one oracle that matters: **every export stays
byte-identical to ``tests/data/sweep_smoke_golden.json``, and no
corrupt store entry is ever served.**

Phases (wire faults follow seeded schedules; kills are triggered by
observed progress, not by timers):

1. **Daemon SIGKILL.**  A plain daemon is ``kill -9``-ed mid-sweep, the
   moment its first result reaches the store.  A daemon restarted on
   the same store must export the golden bytes on a resubmit and
   simulate only the points the dead daemon had not committed:
   committed points are replayed from the store, never recomputed.
2. **Torn writes & corruption.**  With the daemon stopped: truncate one
   committed object, overwrite another with garbage, and plant
   write-ahead journal intents for a crash-completed temp (must roll
   forward), a torn temp (must be discarded) and a torn intent record
   (must be discarded).  ``python -m repro.service recover`` must
   report exactly that accounting and move both corrupt objects to
   ``quarantine/`` -- bytes preserved, never served.
3. **Wire faults.**  A seeded line-aware TCP proxy between client and
   daemon drops requests, truncates responses mid-JSON and delays
   them; the retrying client must still export golden bytes for every
   seed, and the daemon must re-simulate exactly the two quarantined
   points (proving quarantined entries are never served).
4. **Degradation.**  Submitting against a dead port with
   ``--degrade local`` must exit 0 with golden bytes (evaluated
   in-process) and a degradation warning on stderr.
5. **Fleet member murder.**  The sweep grid submitted through a real
   sharded/replicated fleet (3 member daemons behind the hedging
   router) with one member daemon SIGKILLed mid-sweep: the export must
   stay byte-identical to the golden file with **zero failed
   requests** (router failover + replicated shards absorb the loss),
   a warm re-submit after the murder must stay golden too, and the
   router must respawn the dead member.

After every phase that runs a daemon or a fleet, no ``repro.service
serve`` process naming that phase's store may still be alive.

Usage::

    python tools/chaos.py                 # default seed set
    python tools/chaos.py --seed 3 --seed 9
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = ROOT / "tests" / "data" / "sweep_smoke.json"
GOLDEN = ROOT / "tests" / "data" / "sweep_smoke_golden.json"
GRID_SIZE = 4  # the committed 2x2 sweep-smoke grid

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

#: Wire fault classes the proxy injects, one per request exchange.
WIRE_FAULTS = ("drop_request", "truncate_response", "slow")


def log(message: str) -> None:
    print(f"chaos: {message}", flush=True)


# ---------------------------------------------------------------------------
# Daemon/CLI plumbing
# ---------------------------------------------------------------------------


def start_daemon(store: str, *extra: str, env=None) -> "tuple":
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.service", "serve",
            "--port", "0", "--store", store, *extra,
        ],
        env=env or ENV, cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    banner = proc.stdout.readline()
    match = re.search(r"serving on ([\w.]+):(\d+)", banner)
    assert match, f"daemon did not announce its port: {banner!r}"
    return proc, int(match.group(2))


def stop_daemon(proc, port: int) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.service.client import ServiceClient

    with ServiceClient(port=port) as client:
        client.shutdown()
    assert proc.wait(timeout=30) == 0, "daemon exited uncleanly"


def submit_command(port: int, *extra: str) -> list:
    return [
        sys.executable, "-m", "repro.service", "submit",
        "--port", str(port), "--sweep", str(SPEC), "--json", "-", *extra,
    ]


def submit(port: int, *extra: str, env=None, check=True) -> "subprocess.CompletedProcess":
    proc = subprocess.run(
        submit_command(port, *extra),
        env=env or ENV, cwd=ROOT, capture_output=True, timeout=300,
    )
    if check:
        assert proc.returncode == 0, proc.stderr.decode()
    return proc


def stats(port: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "-m", "repro.service", "stats", "--port", str(port)],
        env=ENV, cwd=ROOT, capture_output=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(proc.stdout)


def assert_golden(payload: bytes, what: str) -> None:
    assert payload == GOLDEN.read_bytes(), (
        f"{what}: export diverges from the golden file"
    )
    log(f"{what}: export is byte-identical to the golden file")


def assert_no_surviving_serve(store: str, what: str) -> None:
    """Fail if a ``repro.service serve`` process on ``store`` still runs.

    Scans ``/proc/*/cmdline`` (skipped where there is no ``/proc``).
    Daemons and fleet members are started with ``--store`` naming the
    phase's store directory, so a match is a process the phase leaked.
    """
    proc_root = Path("/proc")
    if not proc_root.is_dir():
        log(f"{what}: no /proc, surviving-serve scan skipped")
        return
    target = os.path.realpath(store)
    survivors = []
    for entry in proc_root.glob("[0-9]*/cmdline"):
        try:
            argv = entry.read_bytes().decode(errors="replace").split("\0")
        except OSError:
            continue  # the process exited mid-scan
        if "repro.service" not in argv or "serve" not in argv:
            continue
        if "--store" in argv and argv.index("--store") + 1 < len(argv):
            if os.path.realpath(argv[argv.index("--store") + 1]) == target:
                survivors.append(int(entry.parent.name))
    assert not survivors, (
        f"{what}: serve processes on {store} outlived it: pids {survivors}"
    )
    log(f"{what}: no serve process on its store survived")


# ---------------------------------------------------------------------------
# Phase 1: daemon SIGKILL mid-sweep, restart on the same store
# ---------------------------------------------------------------------------


def phase_daemon_kill(store: str) -> None:
    log("phase 1: SIGKILL the daemon at its first store write, restart")
    daemon, port = start_daemon(store)
    client = subprocess.Popen(
        submit_command(port), env=ENV, cwd=ROOT,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 120
        while not any(Path(store).glob("objects/*/*.json")):
            assert time.monotonic() < deadline, "the daemon never stored a result"
            assert daemon.poll() is None, "the daemon died on its own"
            time.sleep(0.005)
        daemon.kill()
        daemon.wait(timeout=30)
        log(f"phase 1: killed daemon pid {daemon.pid} mid-sweep")
        # The orphaned submit fails once its retries run out; its exit
        # status is expected to be non-zero and is not checked.
        client.wait(timeout=120)
    finally:
        for proc in (daemon, client):
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        daemon.stdout.close()

    daemon, port = start_daemon(store)
    try:
        committed = stats(port)["store"]["entries"]
        assert_golden(submit(port).stdout, "phase 1 (resubmit after the kill)")
        report = stats(port)
        assert report["store"]["entries"] == GRID_SIZE, report["store"]
        executed = report["scheduler"]["executed"]
        assert executed == GRID_SIZE - committed, (
            f"{committed} points were committed before the kill, yet the "
            f"restarted daemon simulated {executed} of {GRID_SIZE}"
        )
        log(
            f"phase 1: {committed} committed points replayed from the store, "
            f"{executed} simulated"
        )
    finally:
        if daemon.poll() is None:
            stop_daemon(daemon, port)


# ---------------------------------------------------------------------------
# Phase 2: torn writes, corrupt objects, journal recovery
# ---------------------------------------------------------------------------


def phase_store_corruption(store: str) -> None:
    log("phase 2: corrupting the store and planting torn journal intents")
    objects = sorted(Path(store).glob("objects/*/*.json"))
    assert len(objects) == GRID_SIZE, [str(p) for p in objects]

    # Two real entries corrupted two ways: a torn (truncated) document
    # and a flat-out garbage overwrite.
    objects[0].write_bytes(objects[0].read_bytes()[:20])
    objects[1].write_bytes(b"\x00garbage, not JSON\x00")

    journal = Path(store) / "journal"
    journal.mkdir(exist_ok=True)

    # A crash that completed its temp file but died before the rename:
    # recovery must roll it forward into a served entry.
    fwd_digest = "ee" + "f" * 62
    fwd_final = Path(store) / "objects" / fwd_digest[:2] / f"{fwd_digest}.json"
    fwd_tmp = fwd_final.parent / f".{fwd_digest}.12345.tmp"
    fwd_final.parent.mkdir(parents=True, exist_ok=True)
    fwd_tmp.write_text(json.dumps({"planted": "rolled-forward entry"}))
    (journal / f"{fwd_digest}.12345.json").write_text(json.dumps({
        "digest": fwd_digest,
        "final": os.path.relpath(fwd_final, store),
        "tmp": os.path.relpath(fwd_tmp, store),
    }))

    # A crash that left only a torn temp file: recovery must discard it.
    torn_digest = "dd" + "e" * 62
    torn_final = Path(store) / "objects" / torn_digest[:2] / f"{torn_digest}.json"
    torn_tmp = torn_final.parent / f".{torn_digest}.12346.tmp"
    torn_final.parent.mkdir(parents=True, exist_ok=True)
    torn_tmp.write_text('{"torn": tru')
    (journal / f"{torn_digest}.12346.json").write_text(json.dumps({
        "digest": torn_digest,
        "final": os.path.relpath(torn_final, store),
        "tmp": os.path.relpath(torn_tmp, store),
    }))

    # An intent record that is itself torn: nothing it names is
    # trustworthy, so the put is discarded.
    (journal / ("cc" + "d" * 62 + ".12347.json")).write_text('{"digest": "cc')

    proc = subprocess.run(
        [sys.executable, "-m", "repro.service", "recover", "--store", store],
        env=ENV, cwd=ROOT, capture_output=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    report = json.loads(proc.stdout)
    log(f"phase 2: recover report {json.dumps(report, sort_keys=True)}")
    assert report["rolled_forward"] == 1, report
    assert report["discarded"] == 2, report
    assert report["quarantined_now"] == 2, report
    assert report["quarantined_total"] == 2, report
    # 4 committed - 2 quarantined + 1 rolled forward.
    assert report["entries"] == GRID_SIZE - 2 + 1, report
    assert fwd_final.is_file() and not fwd_tmp.exists(), "roll-forward failed"
    assert not torn_tmp.exists() and not torn_final.exists(), "discard failed"

    quarantined = sorted(p.name for p in Path(store).glob("quarantine/*.json"))
    assert len(quarantined) == 2, quarantined
    assert quarantined == sorted(p.name for p in objects[:2]), quarantined
    log("phase 2: corrupt entries preserved in quarantine/, journal settled")


# ---------------------------------------------------------------------------
# Phase 3: wire faults through a seeded chaos proxy
# ---------------------------------------------------------------------------


class ChaosProxy(threading.Thread):
    """A line-aware TCP proxy injecting one scheduled fault per exchange.

    The schedule is a list of fault names consumed across *all*
    connections in arrival order (the chaos client is sequential, so
    this is deterministic); once exhausted, every exchange is clean.
    """

    def __init__(self, upstream_port: int, schedule) -> None:
        super().__init__(name="chaos-proxy", daemon=True)
        self._upstream_port = upstream_port
        self._schedule = list(schedule)
        self._lock = threading.Lock()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        self.port = self._listener.getsockname()[1]
        self.injected: list = []

    def _next_fault(self) -> str:
        with self._lock:
            fault = self._schedule.pop(0) if self._schedule else "ok"
            if fault != "ok":
                self.injected.append(fault)
            return fault

    def _handle(self, conn: socket.socket) -> None:
        try:
            upstream = socket.create_connection(
                ("127.0.0.1", self._upstream_port), timeout=60
            )
        except OSError:
            conn.close()
            return
        try:
            client_file = conn.makefile("rb")
            upstream_file = upstream.makefile("rb")
            for line in client_file:
                fault = self._next_fault()
                if fault == "drop_request":
                    return  # the daemon never sees the request
                upstream.sendall(line)
                response = upstream_file.readline()
                if not response:
                    return
                if fault == "truncate_response":
                    conn.sendall(response[: max(1, len(response) // 3)])
                    return  # mid-JSON cut, then a hard close
                if fault == "slow":
                    time.sleep(0.2)
                conn.sendall(response)
        except OSError:
            pass
        finally:
            conn.close()
            upstream.close()

    def run(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed: proxy stopped
            threading.Thread(
                target=self._handle, args=(conn,), daemon=True
            ).start()

    def stop(self) -> None:
        self._listener.close()


def phase_wire_faults(store: str, seeds) -> None:
    log(f"phase 3: wire faults through a seeded proxy (seeds {list(seeds)})")
    daemon, port = start_daemon(store)
    try:
        for seed in seeds:
            schedule = list(WIRE_FAULTS)
            random.Random(seed).shuffle(schedule)
            proxy = ChaosProxy(port, schedule)
            proxy.start()
            try:
                result = submit(proxy.port, "--retries", "4")
                assert_golden(result.stdout, f"phase 3 (seed {seed})")
                assert proxy.injected, "proxy injected no faults"
                log(
                    f"phase 3 (seed {seed}): survived "
                    f"{'+'.join(proxy.injected)}"
                )
            finally:
                proxy.stop()

        scheduler = stats(port)["scheduler"]
        # Exactly the two quarantined points re-simulated (once, on the
        # first pass); the quarantined bytes were never served.  Note
        # ``submitted`` can exceed seeds*grid: a truncated *response*
        # means the daemon fully processed that batch, so the client's
        # retry is a whole extra batch -- served from the store, which
        # is the idempotency the retry relies on.
        assert scheduler["executed"] == 2, scheduler
        assert scheduler["store_hits"] == scheduler["submitted"] - 2, scheduler
        log("phase 3: quarantined entries re-simulated, never served")
    finally:
        if daemon.poll() is None:
            stop_daemon(daemon, port)


# ---------------------------------------------------------------------------
# Phase 4: graceful degradation to local evaluation
# ---------------------------------------------------------------------------


def phase_degradation() -> None:
    log("phase 4: --degrade local against a dead port")
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
    # No listener on dead_port once the probe socket closes.  REPRO_STORE
    # is cleared exactly like make sweep-smoke: the degraded path must
    # reproduce the golden bytes from scratch, locally.
    env = dict(ENV, REPRO_STORE="")
    result = submit(
        dead_port, "--retries", "1", "--degrade", "local", env=env
    )
    assert_golden(result.stdout, "phase 4 (degraded local)")
    stderr = result.stderr.decode()
    assert "degrading sweep to local" in stderr, stderr
    log("phase 4: degradation warned and evaluated locally")

    # The default --degrade fail must keep failing loudly instead.
    result = submit(dead_port, "--retries", "0", env=env, check=False)
    assert result.returncode != 0, "degrade=fail unexpectedly succeeded"


# ---------------------------------------------------------------------------
# Phase 5: fleet member murder mid-sweep
# ---------------------------------------------------------------------------


def phase_fleet(store: str) -> None:
    log("phase 5: sweep through a 3-member fleet, SIGKILL one mid-sweep")
    sys.path.insert(0, str(ROOT / "src"))
    from repro.service.fleet import start_fleet_background

    fleet = start_fleet_background(store, shards=3, replicas=2)
    try:
        victim = fleet.server.members[0]
        victim_pid = victim.proc.pid

        # Murder a member the instant the router has routed the first
        # request of the sweep -- deterministically mid-stream, however
        # fast the grid evaluates.  The router must fail affected
        # requests over to a replica owner; the client sees nothing.
        done = threading.Event()

        def assassin() -> None:
            while not done.is_set():
                if fleet.server.counters["routed"] >= 1:
                    fleet.server.kill_member(0)
                    return
                time.sleep(0.001)

        killer = threading.Thread(target=assassin, daemon=True)
        killer.start()
        try:
            result = submit(fleet.port, "--retries", "4")
        finally:
            done.set()
            killer.join(timeout=10)
        assert victim.proc.poll() is not None or victim.proc.pid != victim_pid, (
            "the victim member was never killed -- the phase proved nothing"
        )
        assert_golden(result.stdout, "phase 5 (member SIGKILLed mid-sweep)")

        # A warm re-submit with the member still dead (or freshly
        # respawned) must be pure store hits and stay golden.
        assert_golden(submit(fleet.port, "--retries", "4").stdout,
                      "phase 5 (warm re-submit after the murder)")

        # The health loop must notice the dead member and respawn it.
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            router = stats(fleet.port)["router"]
            if router["respawns"] >= 1:
                break
            time.sleep(0.2)
        assert router["respawns"] >= 1, f"the dead member was never respawned: {router}"
        assert router["degraded"] == 0, router
        log(
            "phase 5: fleet survived -- "
            f"routed={router['routed']} failovers={router['failovers']} "
            f"hedges={router['hedges']} respawns={router['respawns']} "
            f"member_failures={router['member_failures']}"
        )
    finally:
        fleet.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--seed", type=int, action="append", metavar="N",
        help="wire-fault schedule seed (repeatable; default 7 and 17)",
    )
    args = parser.parse_args(argv)
    seeds = args.seed if args.seed else [7, 17]

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as store:
        phase_daemon_kill(store)
        assert_no_surviving_serve(store, "phase 1")
        phase_store_corruption(store)
        phase_wire_faults(store, seeds)
        assert_no_surviving_serve(store, "phase 3")
    phase_degradation()
    with tempfile.TemporaryDirectory(prefix="repro-chaos-fleet-") as store:
        phase_fleet(store)
        assert_no_surviving_serve(store, "phase 5")
    print(
        "chaos-test OK: golden bytes survived a daemon SIGKILL, torn "
        "writes, wire faults, daemon loss and a fleet member murder; no "
        "corrupt entry was served, committed points were never "
        "recomputed, and no serve process outlived its phase."
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
