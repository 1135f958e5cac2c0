"""Tests for the service's failure-path surfaces: ``ServerHandle.stop``
timeout/escalation, a background start on a taken port, daemon and fleet-router responses to oversized /
malformed / deadline-carrying requests, and the ``python -m
repro.service`` CLI driven in-process (serve wiring, submit degradation,
offline recover)."""

import json
import socket
import time
from pathlib import Path

import pytest

from repro.api import Scenario
from repro.experiments import common
from repro.service import ResultStore, ServiceClient, serve_background
from repro.service.daemon import ServerHandle
from repro.service.wire import MAX_LINE
from repro.service import __main__ as service_cli

ROOT = Path(__file__).resolve().parents[1]
SMOKE_SPEC = ROOT / "tests" / "data" / "sweep_smoke.json"

FAST = dict(model_scale=50.0, num_partitions=8)


@pytest.fixture(autouse=True)
def isolated_store_state(monkeypatch):
    monkeypatch.delenv(common.STORE_ENV, raising=False)
    common.configure_store(None)
    common.clear_caches()
    yield
    common.configure_store(None)
    common.clear_caches()


def dead_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


# ---------------------------------------------------------------------------
# ServerHandle.stop: polite, timed out, escalated
# ---------------------------------------------------------------------------


class TestServerHandleStop:
    def test_polite_stop_returns_true(self):
        handle = serve_background()
        assert handle.stop() is True
        assert handle.stop() is True  # no-op on an already-stopped server

    def test_unreachable_wire_escalates_to_the_loop(self):
        handle = serve_background()
        # Same thread and same force-stop switch, but a dead port: the
        # polite shutdown can't be delivered, so stop() must fall back
        # to forcing the serve loop's stop event -- and still succeed.
        broken = ServerHandle(
            handle.host, dead_port(), handle._thread,
            force_stop=handle._force_stop,
        )
        assert broken.stop(timeout=5.0) is True
        assert not handle._thread.is_alive()

    def test_stop_without_escalation_reports_failure(self):
        handle = serve_background()
        try:
            broken = ServerHandle(
                handle.host, dead_port(), handle._thread, force_stop=None
            )
            # No wire, no force-stop switch: the thread survives and
            # stop() must say so instead of pretending.
            assert broken.stop(timeout=0.2) is False
            assert handle._thread.is_alive()
        finally:
            assert handle.stop() is True


class TestBindFailure:
    """A taken port fails the background start at once, with the bind
    error, instead of after the 60 s ready timeout."""

    @pytest.fixture()
    def taken_port(self):
        with socket.socket() as held:
            held.bind(("127.0.0.1", 0))
            held.listen()
            yield held.getsockname()[1]

    def assert_fails_fast(self, start):
        began = time.monotonic()
        with pytest.raises(OSError):
            start()
        assert time.monotonic() - began < 5.0

    def test_daemon(self, taken_port):
        self.assert_fails_fast(lambda: serve_background(port=taken_port))

    def test_fleet_router(self, taken_port, tmp_path):
        from repro.service.fleet import FleetRouter, start_fleet_background
        from repro.service.fleet.router import Member

        router = FleetRouter([Member(0, "127.0.0.1", dead_port())])
        self.assert_fails_fast(lambda: start_fleet_background(
            str(tmp_path), port=taken_port, router=router,
        ))


# ---------------------------------------------------------------------------
# Daemon protocol edge cases
# ---------------------------------------------------------------------------


SERVICES = ("repro.service", "repro.service.fleet")


class TestDaemonProtocolErrors:
    @pytest.fixture()
    def server(self):
        handle = serve_background()
        yield handle
        handle.stop()

    def _raw_exchange(self, address, payload: bytes, count: int = 1):
        with socket.create_connection(address, timeout=30) as sock:
            reader = sock.makefile("rb")
            sock.sendall(payload)
            return [json.loads(reader.readline()) for _ in range(count)]

    def test_malformed_json_gets_an_error_response(self, server):
        # The same connection stays usable after the bad line.
        responses = self._raw_exchange(
            server.address,
            b'{"verb": not json}\n{"verb": "ping"}\n',
            count=2,
        )
        assert responses[0]["ok"] is False
        assert responses[1]["ok"] is True
        assert responses[1]["result"]["service"] in SERVICES

    def test_non_object_requests_are_rejected(self, server):
        for payload in (b"[1, 2, 3]\n", b'"ping"\n', b"{}\n"):
            response = self._raw_exchange(server.address, payload)[0]
            assert response["ok"] is False
            assert "JSON objects" in response["error"]

    def test_non_string_verb_is_an_unknown_verb(self, server):
        response = self._raw_exchange(server.address, b'{"verb": 5}\n')[0]
        assert response["ok"] is False
        assert "unknown verb" in response["error"]

    def test_blank_lines_are_skipped(self, server):
        responses = self._raw_exchange(
            server.address, b'\n  \n{"verb": "ping"}\n'
        )
        assert responses[0]["ok"] is True

    def test_oversized_line_answered_then_connection_dropped(self, server):
        with socket.create_connection(server.address, timeout=30) as sock:
            reader = sock.makefile("rb")
            sock.sendall(b'{"pad": "' + b"x" * (MAX_LINE + 1024) + b'"}\n')
            response = json.loads(reader.readline())
            assert response["ok"] is False
            assert "exceeds" in response["error"]
            assert reader.readline() == b""  # that connection is done
        # ... but the server is not.
        with ServiceClient(*server.address) as client:
            assert client.ping()["service"] in SERVICES


class TestRouterProtocolErrors(TestDaemonProtocolErrors):
    """The same cases against a fleet router: it shares the daemon's wire
    loop, and a single dead member leaves only its own protocol handling
    to answer."""

    @pytest.fixture()
    def server(self, tmp_path):
        from repro.service.fleet import FleetRouter, start_fleet_background
        from repro.service.fleet.router import Member

        router = FleetRouter([Member(0, "127.0.0.1", dead_port())])
        handle = start_fleet_background(str(tmp_path), router=router)
        yield handle
        handle.stop()


# ---------------------------------------------------------------------------
# The CLI, in-process
# ---------------------------------------------------------------------------


class TestServiceCli:
    def test_serve_flag_validation(self):
        with pytest.raises(SystemExit, match="--jobs"):
            service_cli.main(["serve", "--jobs", "0"])

    def test_serve_fleet_flag_validation(self, monkeypatch):
        from repro.service import fleet as fleet_mod

        # A flag that slipped past validation must not start a fleet.
        monkeypatch.setattr(fleet_mod, "serve_fleet", lambda **kw: None)
        with pytest.raises(SystemExit, match="--store"):
            service_cli.main(["serve", "--fleet"])
        with pytest.raises(SystemExit, match="--shards"):
            service_cli.main(["serve", "--fleet", "--store", "x",
                              "--shards", "0"])
        # Members are spawned without --jobs: rejected, not silently
        # dropped.
        with pytest.raises(SystemExit, match="--jobs"):
            service_cli.main(["serve", "--fleet", "--store", "x",
                              "--jobs", "2"])

    def test_serve_fleet_forwards_its_flags(self, monkeypatch, tmp_path):
        from repro.service import fleet as fleet_mod

        seen = {}
        monkeypatch.setattr(fleet_mod, "serve_fleet",
                            lambda **kw: seen.update(kw))
        service_cli.main([
            "serve", "--fleet", "--port", "0", "--store", str(tmp_path),
            "--shards", "4", "--replicas", "2", "--hedge-after", "0",
        ])
        assert seen["shards"] == 4 and seen["replicas"] == 2
        assert seen["hedge_after"] is None  # 0 disables hedging

    def test_rebalance_cli_reports(self, tmp_path, capsys):
        from repro.service.fleet import ShardedResultStore

        ShardedResultStore(tmp_path, shards=2, replicas=2)
        service_cli.main(["rebalance", "--store", str(tmp_path),
                          "--shards", "3"])
        report = json.loads(capsys.readouterr().out)
        assert report["objects"] == 0
        assert ShardedResultStore(tmp_path).num_shards == 3

    def test_serve_forwards_its_flags(self, monkeypatch, tmp_path):
        seen = {}
        monkeypatch.setattr(service_cli, "serve",
                            lambda **kw: seen.update(kw))
        service_cli.main([
            "serve", "--port", "0", "--store", str(tmp_path),
            "--jobs", "2",
        ])
        assert seen["jobs"] == 2
        assert seen["store"] == str(tmp_path)

    def test_ping_stats_submit_round_trip(self, tmp_path, capsys):
        handle = serve_background(store=tmp_path / "store")
        try:
            port = str(handle.port)
            service_cli.main(["ping", "--port", port])
            assert json.loads(capsys.readouterr().out)["service"] == (
                "repro.service"
            )
            out = tmp_path / "out.json"
            service_cli.main([
                "submit", "--port", port, "--sweep", str(SMOKE_SPEC),
                "--json", str(out), "--retries", "1", "--deadline", "60",
            ])
            golden = (ROOT / "tests" / "data" / "sweep_smoke_golden.json")
            assert out.read_bytes() == golden.read_bytes()
            capsys.readouterr()
            service_cli.main(["stats", "--port", port])
            stats = json.loads(capsys.readouterr().out)
            assert stats["scheduler"]["executed"] == 4
        finally:
            handle.stop()

    def test_submit_degrade_local_survives_a_dead_daemon(
        self, tmp_path, capsys
    ):
        out = tmp_path / "out.json"
        with pytest.warns(UserWarning, match="degrading sweep"):
            service_cli.main([
                "submit", "--port", str(dead_port()), "--retries", "0",
                "--degrade", "local",
                "--sweep", str(SMOKE_SPEC), "--json", str(out),
            ])
        golden = ROOT / "tests" / "data" / "sweep_smoke_golden.json"
        assert out.read_bytes() == golden.read_bytes()

    def test_submit_degrade_fail_raises(self, tmp_path):
        with pytest.raises(OSError):
            service_cli.main([
                "submit", "--port", str(dead_port()), "--retries", "0",
                "--sweep", str(SMOKE_SPEC), "--json", str(tmp_path / "o"),
            ])

    def test_recover_reports_store_accounting(self, tmp_path, capsys):
        store = ResultStore(tmp_path)
        common.configure_store(store)
        Scenario("cpu", "scan", **FAST).records()
        common.configure_store(None)
        store.flush()
        # Corrupt the single committed object, then recover offline.
        target = next(iter((tmp_path / "objects").glob("*/*.json")))
        target.write_text("{torn")
        service_cli.main(["recover", "--store", str(tmp_path)])
        report = json.loads(capsys.readouterr().out)
        assert report["quarantined_now"] == 1
        assert report["entries"] == 0
