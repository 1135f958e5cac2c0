"""Tests for the service resilience layer: retry policy and circuit
breaker, the write-ahead intent journal and crash-safe store recovery,
the worker loop's chaos hooks, the supervised worker fleet (restarts,
requeue, degradation, heartbeats), the resilient client (retries,
reconnect-resend, deadlines, local degradation) and the scheduler/daemon
wiring on top."""

import json
import os
import signal
import socket
import threading
import time
from io import StringIO
from pathlib import Path

import pytest

from repro.api import Scenario
from repro.experiments import common
from repro.service import (
    BatchScheduler,
    CircuitBreaker,
    DeadlineExceeded,
    EvaluationDaemon,
    IntentJournal,
    ResultStore,
    RetryPolicy,
    ServiceClient,
    ServiceError,
    WorkerFleet,
    WorkerTaskError,
    serve_background,
)
from repro.service.client import IDEMPOTENT_VERBS, ServiceDegradedWarning
from repro.service.resilience import worker as worker_mod
from repro.service.resilience.journal import (
    atomic_write_text,
    fsync_dir,
    fsync_path,
)
from repro.service.store import FSYNC_ENV, digest_payload

#: Small, fast scenario parameters shared across the module.
FAST = dict(model_scale=50.0, num_partitions=8)

#: A zero-wait backoff so fleet tests never sleep between respawns.
NO_BACKOFF = RetryPolicy(retries=0, base_delay=0.0, max_delay=0.0, jitter=0.0)


@pytest.fixture(autouse=True)
def isolated_store_state(monkeypatch):
    """Every test starts without a persistent tier and with cold caches."""
    monkeypatch.delenv(common.STORE_ENV, raising=False)
    monkeypatch.delenv(common.STORE_MAX_BYTES_ENV, raising=False)
    monkeypatch.delenv("REPRO_WORKER_CHAOS", raising=False)
    common.configure_store(None)
    common.clear_caches()
    yield
    common.configure_store(None)
    common.clear_caches()
    common.set_cache_enabled(True)


def chaos_env(spec: str) -> dict:
    """A worker environment with a chaos schedule armed."""
    import repro

    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    env["REPRO_WORKER_CHAOS"] = spec
    return env


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_exponential_growth_with_cap(self):
        policy = RetryPolicy(retries=5, base_delay=0.1, max_delay=0.5,
                             multiplier=2.0, jitter=0.0)
        assert [policy.delay(a) for a in range(4)] == [0.1, 0.2, 0.4, 0.5]
        assert list(policy.delays()) == [
            policy.delay(a) for a in range(policy.retries)
        ]

    def test_jitter_needs_an_rng(self):
        policy = RetryPolicy(base_delay=1.0, max_delay=1.0, jitter=0.5)

        class FixedRng:
            def random(self):
                return 1.0

        assert policy.delay(0) == 1.0  # no rng: deterministic
        assert policy.delay(0, rng=FixedRng()) == pytest.approx(1.5)

    def test_validation(self):
        with pytest.raises(ValueError, match="retries"):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError, match="base_delay"):
            RetryPolicy(base_delay=2.0, max_delay=1.0)


# ---------------------------------------------------------------------------
# CircuitBreaker
# ---------------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures_only(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()  # resets the consecutive count
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()

    def test_half_open_probe_lifecycle(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_after=10.0,
                                 clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.now = 11.0
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow()       # the single probe goes through
        assert not breaker.allow()   # a second caller is held back
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_failed_probe_reopens_with_fresh_timer(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_after=10.0,
                                 clock=clock)
        breaker.record_failure()
        clock.now = 11.0
        assert breaker.allow()
        breaker.record_failure()  # the probe failed
        assert breaker.state == CircuitBreaker.OPEN
        clock.now = 20.0
        assert not breaker.allow()  # timer restarted at t=11
        clock.now = 21.5
        assert breaker.allow()

    def test_validation(self):
        with pytest.raises(ValueError, match="failure_threshold"):
            CircuitBreaker(failure_threshold=0)


# ---------------------------------------------------------------------------
# Journal + crash-safe atomic writes
# ---------------------------------------------------------------------------


class TestJournal:
    def test_atomic_write_replaces_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "doc.json"
        atomic_write_text(target, '{"v": 1}')
        atomic_write_text(target, '{"v": 2}', fsync=False)
        assert json.loads(target.read_text()) == {"v": 2}
        assert list(tmp_path.glob(".*.tmp")) == []

    def test_fsync_dir_is_a_noop_on_unopenable_paths(self, tmp_path):
        fsync_dir(tmp_path / "missing")  # must not raise

    def test_fsync_path_flushes_an_existing_file(self, tmp_path):
        target = tmp_path / "doc.json"
        target.write_text("{}")
        fsync_path(target)  # durability barrier on a real fd

    def test_atomic_write_cleans_its_temp_on_failure(self, tmp_path):
        target = tmp_path / "collision"
        target.mkdir()  # os.replace onto a directory must fail
        with pytest.raises(OSError):
            atomic_write_text(target, "{}")
        assert list(tmp_path.glob(".*.tmp")) == []

    def test_journal_directory_property(self, tmp_path):
        assert IntentJournal(tmp_path).directory == tmp_path / "journal"

    def test_intent_is_retired_on_success(self, tmp_path):
        journal = IntentJournal(tmp_path)
        final = tmp_path / "objects" / "aa" / "aabb.json"
        tmp = final.parent / ".aabb.tmp"
        with journal.intent("aabb", final=final, tmp=tmp):
            assert len(journal.pending()) == 1
        assert journal.pending() == []

    def _plant(self, tmp_path, digest, record=None, tmp_text=None,
               final_text=None):
        journal_dir = tmp_path / "journal"
        journal_dir.mkdir(exist_ok=True)
        final = tmp_path / "objects" / digest[:2] / f"{digest}.json"
        tmp = final.parent / f".{digest}.1.tmp"
        final.parent.mkdir(parents=True, exist_ok=True)
        if tmp_text is not None:
            tmp.write_text(tmp_text)
        if final_text is not None:
            final.write_text(final_text)
        if record is None:
            record = json.dumps({
                "digest": digest,
                "final": os.path.relpath(final, tmp_path),
                "tmp": os.path.relpath(tmp, tmp_path),
            })
        (journal_dir / f"{digest}.1.json").write_text(record)
        return final, tmp

    def test_recover_classifies_every_intent_shape(self, tmp_path):
        quarantined = []
        journal = IntentJournal(tmp_path)
        # Complete temp, missing final: rolled forward.
        fwd_final, fwd_tmp = self._plant(
            tmp_path, "aa" + "0" * 62, tmp_text='{"ok": 1}'
        )
        # Torn temp, missing final: discarded, debris removed.
        _, torn_tmp = self._plant(
            tmp_path, "bb" + "0" * 62, tmp_text='{"torn": '
        )
        # Valid final already in place: rolled forward (crash after rename).
        self._plant(tmp_path, "cc" + "0" * 62, final_text='{"done": 1}')
        # Final present but corrupt, complete tmp behind it: quarantined
        # and then rolled forward over the corrupt bytes.
        bad_final, _ = self._plant(
            tmp_path, "dd" + "0" * 62, tmp_text='{"good": 1}',
            final_text="corrupt{",
        )
        # The intent record itself is torn: discarded outright.
        self._plant(tmp_path, "ee" + "0" * 62, record='{"digest": ')

        def validate(path):
            try:
                json.loads(path.read_text())
                return True
            except ValueError:
                return False

        counts = journal.recover(validate=validate,
                                 quarantine=quarantined.append)
        assert counts == {"rolled_forward": 3, "discarded": 2,
                          "quarantined": 1}
        assert json.loads(fwd_final.read_text()) == {"ok": 1}
        assert not fwd_tmp.exists() and not torn_tmp.exists()
        assert quarantined == [bad_final]
        assert json.loads(bad_final.read_text()) == {"good": 1}
        assert journal.pending() == []

    def test_recover_tolerates_a_live_writer_finishing_first(self, tmp_path):
        """Opening a store while another process puts: that writer may
        rename its temp file between recovery's check and its own
        rename; recovery must count the put as landed, not crash."""
        journal = IntentJournal(tmp_path)
        final, tmp = self._plant(tmp_path, "ff" + "0" * 62, tmp_text='{"ok": 1}')

        def validate(path):
            if path == tmp:
                os.replace(tmp, final)  # the live writer wins the race
            return True

        counts = journal.recover(validate=validate)
        assert counts["rolled_forward"] == 1
        assert json.loads(final.read_text()) == {"ok": 1}
        assert journal.pending() == []

    def test_pending_without_a_journal_dir(self, tmp_path):
        assert IntentJournal(tmp_path / "nowhere").pending() == []


# ---------------------------------------------------------------------------
# Crash-safe store behaviour
# ---------------------------------------------------------------------------


def _first_digest(store: ResultStore) -> str:
    return next(iter(store.digests()))


class TestStoreCrashSafety:
    def _warm(self, root) -> ResultStore:
        store = ResultStore(root)
        common.configure_store(store)
        common.run_cached_result("cpu", "scan", 50.0, num_partitions=8)
        return store

    def test_put_leaves_no_journal_residue(self, tmp_path):
        store = self._warm(tmp_path)
        assert (tmp_path / "journal").is_dir()
        assert list((tmp_path / "journal").glob("*.json")) == []
        assert store.stats()["puts"] == 1

    def test_fsync_env_fast_path(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FSYNC_ENV, "0")
        assert ResultStore(tmp_path).fsync is False
        monkeypatch.delenv(FSYNC_ENV)
        assert ResultStore(tmp_path).fsync is True
        assert ResultStore(tmp_path, fsync=False).fsync is False

    def test_corrupt_entry_is_quarantined_not_served(self, tmp_path):
        store = self._warm(tmp_path)
        digest = _first_digest(store)
        path = tmp_path / "objects" / digest[:2] / f"{digest}.json"
        path.write_text("{torn")
        assert store.get(digest) is None
        assert store.stats()["quarantined"] == 1
        assert not store.contains(digest)
        assert list(store.quarantined()) == [f"{digest}.json"]
        # The corrupt bytes are preserved for post-mortems.
        assert (store.quarantine_dir / f"{digest}.json").read_text() == "{torn"

    def test_startup_recovery_rolls_forward_and_discards(self, tmp_path):
        self._warm(tmp_path)
        common.configure_store(None)
        digest = "ab" * 32
        final = tmp_path / "objects" / digest[:2] / f"{digest}.json"
        tmp = final.parent / f".{digest}.9.tmp"
        final.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text('{"recovered": true}')
        journal = tmp_path / "journal"
        journal.mkdir(exist_ok=True)
        (journal / f"{digest}.9.json").write_text(json.dumps({
            "digest": digest,
            "final": os.path.relpath(final, tmp_path),
            "tmp": os.path.relpath(tmp, tmp_path),
        }))
        (journal / ("cd" * 32 + ".9.json")).write_text("{torn")

        reopened = ResultStore(tmp_path)
        stats = reopened.stats()
        assert stats["recovered_forward"] == 1
        assert stats["recovered_discarded"] == 1
        assert reopened.contains(digest)

    def test_verify_reports_full_accounting(self, tmp_path):
        store = self._warm(tmp_path)
        digest = _first_digest(store)
        (tmp_path / "objects" / digest[:2] / f"{digest}.json").write_text("{")
        debris = tmp_path / "objects" / digest[:2] / ".leftover.tmp"
        debris.write_text("junk")
        report = store.verify()
        assert report["checked"] == 1
        assert report["quarantined_now"] == 1
        assert report["debris_removed"] == 1
        assert report["entries"] == 0
        assert not debris.exists()


# ---------------------------------------------------------------------------
# The worker loop (in-process, injectable chaos)
# ---------------------------------------------------------------------------


def run_worker(lines, chaos=None, kill=None):
    """Drive the worker loop over scripted stdin; return response dicts."""
    out = StringIO()
    worker_mod.run(
        StringIO("".join(line + "\n" for line in lines)),
        out,
        chaos=chaos if chaos is not None else {},
        kill=kill if kill is not None else (lambda: None),
    )
    return [json.loads(line) for line in out.getvalue().splitlines()]


class TestWorkerLoop:
    def test_parse_chaos(self):
        assert worker_mod.parse_chaos(None) == {}
        assert worker_mod.parse_chaos("") == {}
        plan = worker_mod.parse_chaos("kill_after=2, mode=post")
        assert plan["kill_after"] == 2 and plan["mode"] == "post"
        plan = worker_mod.parse_chaos("stall_after=1,stall=0.5")
        assert plan["stall_after"] == 1 and plan["stall"] == 0.5
        assert plan["mode"] == "pre"  # default
        with pytest.raises(ValueError, match="mode"):
            worker_mod.parse_chaos("mode=sideways")
        with pytest.raises(ValueError, match="unknown chaos key"):
            worker_mod.parse_chaos("explode=yes")

    def test_ping_exit_and_unknown_verb(self):
        responses = run_worker([
            json.dumps({"verb": "ping", "id": "hb"}),
            json.dumps({"verb": "frobnicate", "id": "x"}),
            "",  # blank lines are skipped
            json.dumps({"verb": "exit", "id": "bye"}),
            json.dumps({"verb": "ping"}),  # never reached: exit returned
        ])
        assert responses[0]["pong"] and responses[0]["pid"] == os.getpid()
        assert not responses[1]["ok"] and "unknown verb" in responses[1]["error"]
        assert responses[2] == {"id": "bye", "ok": True, "bye": True}
        assert len(responses) == 3

    def test_malformed_line_is_answered_not_fatal(self):
        responses = run_worker(["{not json", json.dumps({"verb": "ping"})])
        assert not responses[0]["ok"]
        assert responses[1]["pong"]  # the loop survived

    def test_evaluate_returns_records_and_store_delta(self, tmp_path):
        scenario = Scenario("cpu", "scan", **FAST)
        records, delta, spans = common.run_in_worker(
            worker_mod._scenario_records, scenario.to_dict(),
            (True, str(tmp_path / "a"), False), span=worker_mod._fleet_span,
        )
        assert records == scenario.records()
        assert delta["puts"] == 1
        assert spans is None  # tracing was not requested
        # Cold again, the evaluate verb ships exactly that reply.
        common.clear_caches()
        responses = run_worker([json.dumps({
            "verb": "evaluate", "id": "t0",
            "scenario": scenario.to_dict(),
            "store": str(tmp_path / "b"), "cache": True,
        })])
        assert responses[0]["ok"]
        assert responses[0]["records"] == records
        assert responses[0]["store_delta"] == delta
        assert "spans" not in responses[0]

    def test_evaluate_failure_is_a_task_error(self):
        responses = run_worker([json.dumps({
            "verb": "evaluate", "id": "t0",
            "scenario": {"system": "cpu", "operator": "nope"},
            "store": None, "cache": True,
        })])
        assert not responses[0]["ok"]
        assert "nope" in responses[0]["error"]

    def test_chaos_kill_pre_dies_without_evaluating(self, tmp_path):
        kills = []
        responses = run_worker(
            [json.dumps({
                "verb": "evaluate", "id": "t0",
                "scenario": Scenario("cpu", "scan", **FAST).to_dict(),
                "store": str(tmp_path), "cache": True,
            })],
            chaos={"kill_after": 0, "mode": "pre", "stall": 5.0},
            kill=lambda: kills.append(True),
        )
        assert kills == [True]
        assert responses[0]["error"] == "chaos: killed"
        assert list((tmp_path / "objects").glob("*/*.json")) == [] \
            if (tmp_path / "objects").is_dir() else True

    def test_chaos_kill_post_lands_the_store_write_first(self, tmp_path):
        kills = []
        responses = run_worker(
            [json.dumps({
                "verb": "evaluate", "id": "t0",
                "scenario": Scenario("cpu", "scan", **FAST).to_dict(),
                "store": str(tmp_path), "cache": True,
            })],
            chaos={"kill_after": 0, "mode": "post", "stall": 5.0},
            kill=lambda: kills.append(True),
        )
        assert kills == [True]
        assert responses[0]["error"] == "chaos: killed"
        # The evaluated result reached the store before the "crash" --
        # this is what lets a requeued replay dedup instead of recompute.
        assert len(list((tmp_path / "objects").glob("*/*.json"))) == 1

    def test_chaos_stall_still_answers(self, tmp_path):
        responses = run_worker(
            [json.dumps({
                "verb": "evaluate", "id": "t0",
                "scenario": Scenario("cpu", "scan", **FAST).to_dict(),
                "store": str(tmp_path), "cache": True,
            })],
            chaos={"stall_after": 0, "stall": 0.0},
        )
        assert responses[0]["ok"]


# ---------------------------------------------------------------------------
# The supervised fleet (real subprocesses)
# ---------------------------------------------------------------------------


class TestWorkerFleet:
    def test_validation(self):
        with pytest.raises(ValueError, match="size"):
            WorkerFleet(0)
        with pytest.raises(ValueError, match="max_task_attempts"):
            WorkerFleet(1, max_task_attempts=0)

    def test_round_trip_preserves_order_and_merges_deltas(self, tmp_path):
        scenarios = [
            Scenario("cpu", "scan", **FAST),
            Scenario("cpu", "join", **FAST),
        ]
        with WorkerFleet(2, task_timeout=120.0) as fleet:
            assert len(fleet.pids()) == 2
            records, delta, degraded = fleet.evaluate(
                scenarios, store=str(tmp_path)
            )
            stats = fleet.stats()
        assert degraded == 0
        assert [r for r in records] == [s.records() for s in scenarios]
        assert delta["puts"] == 2
        assert stats["completed"] == 2 and stats["circuit"] == "closed"
        assert stats["spawned"] == 2 and stats["restarts"] == 0

    def test_crash_requeue_dedups_against_the_store(self, tmp_path):
        scenarios = [
            Scenario("cpu", "scan", **FAST),
            Scenario("cpu", "join", **FAST),
        ]
        with WorkerFleet(
            1, task_timeout=120.0, restart_backoff=NO_BACKOFF,
            env=chaos_env("kill_after=1,mode=post"),
        ) as fleet:
            records, delta, degraded = fleet.evaluate(
                scenarios, store=str(tmp_path)
            )
            stats = fleet.stats()
        assert degraded == 0
        assert [r for r in records] == [s.records() for s in scenarios]
        assert stats["restarts"] >= 1
        assert stats["requeues"] >= 1
        # The replayed task was served by the store, not re-simulated:
        # its first attempt's write landed before the SIGKILL.
        store = ResultStore(tmp_path)
        assert store.stats()["entries"] == 2

    def test_attempts_exhausted_degrades_in_process(self, tmp_path):
        scenario = Scenario("cpu", "scan", **FAST)
        with WorkerFleet(
            1, task_timeout=30.0, max_task_attempts=2,
            restart_backoff=NO_BACKOFF,
            breaker=CircuitBreaker(failure_threshold=100),
            env=chaos_env("kill_after=0,mode=pre"),
        ) as fleet:
            records, _, degraded = fleet.evaluate([scenario])
            stats = fleet.stats()
        assert degraded == 1
        assert records[0] == scenario.records()
        assert stats["degraded_tasks"] == 1
        assert stats["requeues"] == 1  # attempt 1 requeued, attempt 2 degraded

    def test_open_circuit_degrades_without_touching_workers(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_after=9999.0)
        scenario = Scenario("cpu", "scan", **FAST)
        with WorkerFleet(1, breaker=breaker) as fleet:
            breaker.record_failure()  # trip it
            records, _, degraded = fleet.evaluate([scenario])
            stats = fleet.stats()
        assert degraded == 1
        assert records[0] == scenario.records()
        assert stats["completed"] == 0
        assert stats["circuit"] == "open"

    def test_bad_task_raises_instead_of_retrying(self):
        scenario = Scenario("cpu", "scan", **FAST)
        object.__setattr__(scenario, "operator", "nope")
        with WorkerFleet(1, task_timeout=30.0) as fleet:
            with pytest.raises(WorkerTaskError, match="nope"):
                fleet.evaluate([scenario])
            stats = fleet.stats()
        # A deterministic task failure must not be requeued as a crash.
        assert stats["requeues"] == 0 and stats["restarts"] == 0

    def test_heartbeat_detects_a_killed_worker(self):
        with WorkerFleet(
            1, heartbeat_interval=0.05, heartbeat_timeout=5.0,
            restart_backoff=NO_BACKOFF,
        ) as fleet:
            deadline = time.monotonic() + 5.0
            while not fleet.stats()["heartbeats"] and time.monotonic() < deadline:
                time.sleep(0.02)
            assert fleet.stats()["heartbeats"] >= 1
            os.kill(fleet.pids()[0], signal.SIGKILL)
            deadline = time.monotonic() + 5.0
            while (
                not fleet.stats()["heartbeat_failures"]
                and time.monotonic() < deadline
            ):
                time.sleep(0.02)
            stats = fleet.stats()
        assert stats["heartbeat_failures"] >= 1

    def test_batch_timeout_raises(self):
        with WorkerFleet(
            1, task_timeout=30.0, env=chaos_env("stall_after=0,stall=1.0"),
        ) as fleet:
            with pytest.raises(TimeoutError, match="did not complete"):
                fleet.evaluate([Scenario("cpu", "scan", **FAST)], timeout=0.05)

    def test_closed_fleet_refuses_work(self):
        fleet = WorkerFleet(1)
        fleet.close()
        fleet.close()  # idempotent
        assert fleet.pids() == []
        with pytest.raises(RuntimeError, match="closed"):
            fleet.evaluate([Scenario("cpu", "scan", **FAST)])


# ---------------------------------------------------------------------------
# Scheduler + daemon wiring
# ---------------------------------------------------------------------------


class TestSchedulerFleet:
    def test_workers_flag_builds_a_fleet(self, tmp_path):
        scheduler = BatchScheduler(store=tmp_path, workers=1)
        try:
            assert scheduler.fleet is not None
            results = scheduler.submit([
                Scenario("cpu", "scan", **FAST),
                Scenario("cpu", "scan", **FAST),  # dedup inside the batch
            ])
            stats = scheduler.stats()
        finally:
            scheduler.close()
        assert len(results.to_records()) == 2 * len(
            Scenario("cpu", "scan", **FAST).records()
        )
        assert stats["executed"] == 1 and stats["deduplicated"] == 1
        assert stats["degraded"] == 0
        assert stats["fleet"]["completed"] == 1
        # The worker's store traffic was merged into the parent handle.
        assert scheduler.store_stats()["puts"] == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="workers"):
            BatchScheduler(workers=-1)


class TestDaemonDeadlines:
    def test_dispatch_enforces_deadlines(self):
        daemon = EvaluationDaemon(BatchScheduler())
        now = time.monotonic()
        assert daemon.dispatch(
            {"verb": "ping", "deadline_s": 60.0}, received=now
        )["service"] == "repro.service"
        with pytest.raises(DeadlineExceeded):
            daemon.dispatch({"verb": "ping", "deadline_s": 0.0},
                            received=now - 1.0)
        with pytest.raises(ValueError, match="deadline_s"):
            daemon.dispatch({"verb": "ping", "deadline_s": "soon"},
                            received=now)

    def test_deadline_rejection_over_the_wire(self):
        handle = serve_background()
        try:
            with ServiceClient(*handle.address) as client:
                with pytest.raises(ServiceError, match="DeadlineExceeded"):
                    client.call("stats", deadline_s=0.0)
                assert client.ping()["service"] == "repro.service"
        finally:
            handle.stop()


# ---------------------------------------------------------------------------
# The resilient client
# ---------------------------------------------------------------------------


class ScriptedServer(threading.Thread):
    """A TCP server whose per-connection behaviour is scripted.

    Behaviours, consumed one per accepted connection:

    - ``"reset"``: accept, then close immediately.
    - ``"garbage"``: answer the first request with a non-JSON line.
    - ``"serve:N"``: answer N requests with ``{"ok": true, ...}``, then
      close the connection.
    - ``"serve"``: answer every request until the client hangs up.
    - ``"error"``: answer every request with ``{"ok": false, ...}``.
    """

    def __init__(self, behaviors, result=None) -> None:
        super().__init__(name="scripted-server", daemon=True)
        self._behaviors = list(behaviors)
        self._result = result if result is not None else {"pong": True}
        self._listener = socket.socket()
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        self.port = self._listener.getsockname()[1]
        self.requests_served = 0
        self.start()

    def _serve_conn(self, conn, budget) -> None:
        reader = conn.makefile("rb")
        served = 0
        for line in reader:
            self.requests_served += 1
            served += 1
            conn.sendall(
                (json.dumps({"ok": True, "result": self._result}) + "\n")
                .encode()
            )
            if budget is not None and served >= budget:
                break
        conn.close()

    def run(self) -> None:
        while self._behaviors:
            behavior = self._behaviors.pop(0)
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            if behavior == "reset":
                conn.close()
            elif behavior == "garbage":
                conn.makefile("rb").readline()
                conn.sendall(b"!!this is not json!!\n")
                conn.close()
            elif behavior == "error":
                reader = conn.makefile("rb")
                for _ in reader:
                    self.requests_served += 1
                    conn.sendall(
                        (json.dumps({"ok": False, "error": "boom"}) + "\n")
                        .encode()
                    )
                conn.close()
            elif behavior.startswith("serve:"):
                self._serve_conn(conn, int(behavior.split(":")[1]))
            else:  # "serve"
                self._serve_conn(conn, None)
        self._listener.close()

    def stop(self) -> None:
        self._behaviors = []
        try:
            self._listener.close()
        except OSError:
            pass


def no_sleep(_):
    return None


class TestResilientClient:
    def test_validation(self):
        with pytest.raises(ValueError, match="retries"):
            ServiceClient(retries=-1)
        with pytest.raises(ValueError, match="degrade"):
            ServiceClient(degrade="sideways")
        assert "shutdown" not in IDEMPOTENT_VERBS

    def test_retries_survive_resets_and_garbage(self):
        server = ScriptedServer(["reset", "garbage", "serve"])
        try:
            client = ServiceClient(port=server.port, retries=3,
                                   sleep=no_sleep)
            assert client.call("ping") == {"pong": True}
            assert client.resilience["retries"] == 2
            client.close()
        finally:
            server.stop()

    def test_retry_budget_exhaustion_raises(self):
        server = ScriptedServer(["reset", "reset"])
        try:
            client = ServiceClient(port=server.port, retries=1,
                                   sleep=no_sleep)
            with pytest.raises(OSError):
                client.call("ping")
            assert client.resilience["retries"] == 1
        finally:
            server.stop()

    def test_stale_connection_gets_one_free_resend(self):
        server = ScriptedServer(["serve:1", "serve"])
        try:
            # retries=0: the transparent resend must not need the budget.
            client = ServiceClient(port=server.port, retries=0,
                                   sleep=no_sleep)
            assert client.call("ping") == {"pong": True}
            assert client.call("ping") == {"pong": True}  # stale socket
            assert client.resilience["reconnects"] == 1
            assert client.resilience["retries"] == 0
            client.close()
        finally:
            server.stop()

    def test_shutdown_is_never_retried_or_resent(self):
        server = ScriptedServer(["reset", "serve"])
        try:
            client = ServiceClient(port=server.port, retries=5,
                                   sleep=no_sleep)
            with pytest.raises(OSError):
                client.shutdown()
            assert client.resilience["retries"] == 0
        finally:
            server.stop()

    def test_daemon_reported_errors_are_not_retried(self):
        server = ScriptedServer(["error"])
        try:
            client = ServiceClient(port=server.port, retries=5,
                                   sleep=no_sleep)
            with pytest.raises(ServiceError, match="boom"):
                client.call("ping")
            assert server.requests_served == 1
            client.close()
        finally:
            server.stop()

    def test_deadline_stops_retrying_and_rides_the_wire(self):
        server = ScriptedServer(["reset", "serve"])
        try:
            client = ServiceClient(port=server.port, retries=5,
                                   deadline=0.0, sleep=no_sleep)
            # Budget already gone after the first transport failure:
            # no second attempt, despite the generous retry count.
            with pytest.raises(OSError):
                client.call("ping")
            assert client.resilience["retries"] == 0
        finally:
            server.stop()

    def _dead_port(self) -> int:
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            return probe.getsockname()[1]

    def test_degrade_local_falls_back_with_a_warning(self):
        scenario = Scenario("cpu", "scan", **FAST)
        before = common.degraded_count()
        client = ServiceClient(port=self._dead_port(), retries=0,
                               degrade="local", sleep=no_sleep)
        with pytest.warns(ServiceDegradedWarning, match="degrading evaluate"):
            results = client.evaluate(scenario)
        assert results.to_records() == scenario.run().to_records()
        assert client.resilience["degraded"] == 1
        assert common.degraded_count() == before + 1
        assert common.cache_stats()["degraded"] >= 1

    def test_degrade_local_covers_sweeps_too(self):
        grid = {"systems": ["cpu"], "workloads": ["scan"],
                "scales": [50.0], "num_partitions": [8]}
        client = ServiceClient(port=self._dead_port(), retries=0,
                               degrade="local", sleep=no_sleep)
        with pytest.warns(ServiceDegradedWarning, match="degrading sweep"):
            results = client.sweep(grid)
        assert len(results.to_records()) > 0

    def test_degrade_fail_is_the_default(self):
        client = ServiceClient(port=self._dead_port(), retries=0,
                               sleep=no_sleep)
        with pytest.raises(OSError):
            client.evaluate(Scenario("cpu", "scan", **FAST))
