"""Tests for the service resilience layer: retry policy and circuit
breaker, the write-ahead intent journal and crash-safe store recovery,
daemon deadlines, and the resilient client (retries, reconnect-resend,
deadlines, local degradation)."""

import json
import os
import socket
import threading
import time

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
    serve_background,
)
from repro.service.client import IDEMPOTENT_VERBS, ServiceDegradedWarning
from repro.service.resilience.retry import RetryBudget
from repro.service.resilience.journal import atomic_write_text, fsync_dir
from repro.service.store import FSYNC_ENV

#: Small, fast scenario parameters shared across the module.
FAST = dict(model_scale=50.0, num_partitions=8)


@pytest.fixture(autouse=True)
def isolated_store_state(monkeypatch):
    """Every test starts without a persistent tier and with cold caches."""
    monkeypatch.delenv(common.STORE_ENV, raising=False)
    common.configure_store(None)
    common.clear_caches()
    yield
    common.configure_store(None)
    common.clear_caches()
    common.set_cache_enabled(True)


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_exponential_growth_with_cap(self):
        policy = RetryPolicy(retries=5, base_delay=0.1, max_delay=0.5,
                             multiplier=2.0, jitter=0.0)
        assert [policy.delay(a) for a in range(4)] == [0.1, 0.2, 0.4, 0.5]

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
# RetryBudget: the retry decision both clients share
# ---------------------------------------------------------------------------


class TestRetryBudget:
    POLICY = RetryPolicy(base_delay=0.1, max_delay=1.0, jitter=0.0)

    def budget(self, verb, retries=2, deadline=None, clock=None):
        counters = {"retries": 0, "reconnects": 0}
        budget = RetryBudget(verb, {"x": 1}, retries, self.POLICY, deadline,
                             counters, clock=clock or FakeClock())
        return budget, counters

    def test_free_resend_then_backed_off_retries_then_give_up(self):
        budget, counters = self.budget("ping", retries=2)
        assert budget.request == {"verb": "ping", "x": 1}
        assert budget.after_failure(reused=True) == 0.0  # free resend
        assert budget.after_failure(reused=True) == 0.1  # only one is free
        assert budget.after_failure(reused=False) == 0.2
        assert budget.after_failure(reused=False) is None  # 1 + 2 attempts spent
        assert counters == {"retries": 2, "reconnects": 1}

    def test_non_idempotent_verbs_never_resend(self):
        budget, counters = self.budget("shutdown", deadline=5.0)
        assert "deadline_s" not in budget.request
        assert budget.after_failure(reused=True) is None
        assert counters == {"retries": 0, "reconnects": 0}

    def test_deadline_is_rebudgeted_then_exhausted(self):
        clock = FakeClock()
        budget, _ = self.budget("sweep", retries=5, deadline=2.0, clock=clock)
        assert budget.request["deadline_s"] == 2.0
        clock.now = 0.5
        assert budget.remaining() == 1.5
        assert budget.after_failure(reused=False) == 0.1
        assert budget.request["deadline_s"] == 1.5
        clock.now = 2.0
        assert budget.after_failure(reused=False) is None

    def test_without_a_deadline_nothing_expires(self):
        budget, _ = self.budget("evaluate")
        assert budget.remaining() is None
        assert "deadline_s" not in budget.request


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

    def test_atomic_write_cleans_its_temp_on_failure(self, tmp_path):
        target = tmp_path / "collision"
        target.mkdir()  # os.replace onto a directory must fail
        with pytest.raises(OSError):
            atomic_write_text(target, "{}")
        assert list(tmp_path.glob(".*.tmp")) == []

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
        assert [p.name for p in (tmp_path / "quarantine").iterdir()] == [f"{digest}.json"]
        # The corrupt bytes are preserved for post-mortems.
        assert (tmp_path / "quarantine" / f"{digest}.json").read_text() == "{torn"

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
# Daemon deadlines
# ---------------------------------------------------------------------------


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
    - ``"hangup:N"``: answer N requests with ``{"ok": true, ...}``,
      then read the next request and close the connection without
      answering it.
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

    def _serve_conn(self, conn, hangup_after=None) -> None:
        reader = conn.makefile("rb")
        served = 0
        while served != hangup_after and reader.readline():
            self.requests_served += 1
            served += 1
            conn.sendall(
                (json.dumps({"ok": True, "result": self._result}) + "\n")
                .encode()
            )
        if hangup_after is not None:
            # Consume the whole request first, so the close is a plain
            # FIN (no unread data, no reset) and the client's read of the
            # reply is what sees the connection end.
            reader.readline()
        reader.close()
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
            elif behavior.startswith("hangup:"):
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
        # The reused connection accepts the second request and closes
        # unanswered: the client's send succeeds and its read of the
        # reply finds the connection closed, on every run.
        server = ScriptedServer(["hangup:1", "serve"])
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
        before = common.cache_stats()["degraded"]
        client = ServiceClient(port=self._dead_port(), retries=0,
                               degrade="local", sleep=no_sleep)
        with pytest.warns(ServiceDegradedWarning, match="degrading evaluate"):
            results = client.evaluate(scenario)
        assert results.to_records() == scenario.run().to_records()
        assert client.resilience["degraded"] == 1
        assert common.cache_stats()["degraded"] == before + 1

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
