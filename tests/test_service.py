"""Tests for the evaluation service: the content-addressed store
(digest stability, atomicity, corruption tolerance, LRU eviction,
concurrent writers), the SystemResult codec, the store tier under
``run_cached_result``, the batching scheduler, the serving daemon, and
the fresh-process warm-store acceptance path."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.api import Scenario, Sweep, SystemSpec
from repro.experiments import common
from repro.service import (
    BatchScheduler,
    ResultStore,
    ServiceClient,
    ServiceError,
    digest_payload,
    serve_background,
)
from repro.service.codec import result_from_document, result_to_document
from repro.service.store import canonical_json

ROOT = Path(__file__).resolve().parents[1]
SMOKE_SPEC = ROOT / "tests" / "data" / "sweep_smoke.json"
SMOKE_GOLDEN = ROOT / "tests" / "data" / "sweep_smoke_golden.json"

#: Small, fast scenario parameters shared across the module.
FAST = dict(model_scale=50.0, num_partitions=8)


@pytest.fixture(autouse=True)
def isolated_store_state(monkeypatch):
    """Every test starts without a persistent tier and with cold caches."""
    monkeypatch.delenv(common.STORE_ENV, raising=False)
    monkeypatch.delenv(common.STORE_MAX_BYTES_ENV, raising=False)
    common.configure_store(None)
    common.clear_caches()
    yield
    common.configure_store(None)
    common.clear_caches()
    common.set_cache_enabled(True)


# ---------------------------------------------------------------------------
# Digests
# ---------------------------------------------------------------------------


class TestDigests:
    def test_digest_stable_across_dict_ordering(self):
        a = {"operator": "join", "seed": 17, "system": {"preset": "cpu"}}
        b = {"system": {"preset": "cpu"}, "seed": 17, "operator": "join"}
        assert digest_payload(a) == digest_payload(b)
        # Nested ordering too.
        a = {"spec": {"base": "mondrian", "num_cores": 32, "topology": "star"}}
        b = {"spec": {"topology": "star", "base": "mondrian", "num_cores": 32}}
        assert canonical_json(a) == canonical_json(b)
        assert digest_payload(a) == digest_payload(b)

    def test_digest_differs_on_content(self):
        base = {"operator": "join", "seed": 17}
        assert digest_payload(base) != digest_payload({**base, "seed": 18})

    def test_preset_and_no_override_spec_share_a_digest(self):
        bare = common.result_store_payload("cpu", "scan", 50.0, 17, 8)
        spec = common.result_store_payload(SystemSpec("cpu"), "scan", 50.0, 17, 8)
        assert digest_payload(bare) == digest_payload(spec)

    def test_spec_overrides_change_the_digest(self):
        plain = common.result_store_payload(SystemSpec("mondrian"), "scan", 50.0, 17, 8)
        custom = common.result_store_payload(
            SystemSpec("mondrian").with_cores(32), "scan", 50.0, 17, 8
        )
        assert digest_payload(plain) != digest_payload(custom)


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------


class TestResultStore:
    def test_put_get_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        digest = digest_payload({"k": 1})
        store.put(digest, {"value": [1, 2, 3]})
        assert store.get(digest) == {"value": [1, 2, 3]}
        assert store.stats()["hits"] == 1
        assert store.stats()["entries"] == 1

    def test_miss_counts(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get("0" * 64) is None
        assert store.stats()["misses"] == 1

    def test_contains_does_not_touch_stats(self, tmp_path):
        store = ResultStore(tmp_path)
        digest = digest_payload({"k": 1})
        assert not store.contains(digest)
        store.put(digest, {"v": 1})
        assert store.contains(digest)
        assert store.stats()["hits"] == 0 and store.stats()["misses"] == 0

    def test_corrupt_entry_is_a_miss_and_healed(self, tmp_path):
        store = ResultStore(tmp_path)
        digest = digest_payload({"k": 1})
        path = store.put(digest, {"v": 1})
        path.write_text('{"v": 1')  # truncated JSON
        assert store.get(digest) is None  # miss, not a crash
        assert not path.exists()  # corrupt entry removed
        store.put(digest, {"v": 2})  # healed by the next put
        assert store.get(digest) == {"v": 2}

    def test_corrupt_index_is_rebuilt(self, tmp_path):
        store = ResultStore(tmp_path)
        digest = digest_payload({"k": 1})
        store.put(digest, {"v": 1})
        (tmp_path / "index.json").write_text("not json at all")
        reopened = ResultStore(tmp_path)
        assert len(reopened) == 1
        assert reopened.get(digest) == {"v": 1}

    def test_lru_eviction_order(self, tmp_path):
        digests = [digest_payload({"k": i}) for i in range(4)]
        payload = {"pad": "x" * 64}
        size = len(json.dumps(payload, sort_keys=True))
        store = ResultStore(tmp_path, max_bytes=3 * size)
        for d in digests[:3]:
            store.put(d, payload)
        store.get(digests[0])  # touch the oldest: now most recent
        store.put(digests[3], payload)  # over budget -> evict LRU
        assert store.get(digests[1]) is None  # the least recently used
        assert store.get(digests[0]) == payload  # survived via the touch
        assert store.get(digests[3]) == payload
        assert store.stats()["evictions"] == 1

    def test_oversized_entry_survives_alone(self, tmp_path):
        store = ResultStore(tmp_path, max_bytes=8)
        digest = digest_payload({"k": 1})
        store.put(digest, {"pad": "y" * 100})
        assert store.get(digest) is not None

    def test_entry_adopted_via_get_counts_its_real_size(self, tmp_path):
        # A second handle (stand-in for a pool worker) writes an entry;
        # the first handle reads it -- the budget must see its real
        # size, not zero, or max_bytes stores silently overgrow.
        a = ResultStore(tmp_path)
        b = ResultStore(tmp_path)
        digest = digest_payload({"k": 1})
        b.put(digest, {"pad": "x" * 128})
        before = a.total_bytes()
        assert a.get(digest) is not None
        assert a.total_bytes() >= before + 128

    def test_concurrent_stats_and_puts_one_handle(self, tmp_path):
        # The daemon answers `stats` on one thread while a batch writes
        # on another, sharing one handle: must not race.
        import threading
        import time

        store = ResultStore(tmp_path, max_bytes=4096)
        errors = []
        done = threading.Event()
        polls = 0

        def poll_stats():
            nonlocal polls
            try:
                while not done.is_set():
                    store.stats()
                    polls += 1
                    # Yield so the unfair store lock cannot starve the
                    # writer; the race stays overlapped, not serialized.
                    time.sleep(0)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        poller = threading.Thread(target=poll_stats)
        poller.start()
        try:
            for i in range(300):
                store.put(digest_payload({"k": i}), {"v": "y" * 64})
            overlapped = polls  # stats() calls completed during the puts
        finally:
            done.set()
            poller.join(30)
        assert errors == []
        assert not poller.is_alive()
        assert overlapped >= 50

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        store = ResultStore(tmp_path)
        for i in range(5):
            store.put(digest_payload({"k": i}), {"v": i})
        leftovers = [p for p in tmp_path.rglob("*.tmp")]
        assert leftovers == []

    def test_concurrent_writers(self, tmp_path):
        """Two processes hammer overlapping digests; every entry parses."""
        script = (
            "import sys\n"
            "from repro.service.store import ResultStore, digest_payload\n"
            "store = ResultStore(sys.argv[1])\n"
            "start = int(sys.argv[2])\n"
            "for i in range(start, start + 30):\n"
            "    d = digest_payload({'k': i % 40})\n"  # overlap across writers
            "    store.put(d, {'k': i % 40, 'writer': start, 'pad': 'z' * 256})\n"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(tmp_path), str(start)],
                env=env,
            )
            for start in (0, 10)
        ]
        for proc in procs:
            assert proc.wait(timeout=120) == 0
        store = ResultStore(tmp_path)
        digests = list(store.digests())
        assert len(digests) == 40
        for digest in digests:  # every surviving entry is intact JSON
            document = store.get(digest)
            assert document is not None and document["pad"] == "z" * 256


# ---------------------------------------------------------------------------
# The codec
# ---------------------------------------------------------------------------


class TestCodec:
    def test_exact_round_trip(self):
        result = common.run_cached_result("mondrian", "join", 50.0, num_partitions=8)
        restored = result_from_document(
            json.loads(json.dumps(result_to_document(result)))
        )
        assert restored.system == result.system
        assert restored.variant == result.variant
        assert restored.runtime_s == result.runtime_s  # exact, not approx
        assert restored.energy == result.energy
        assert restored.output is None
        assert restored.metadata["restored"] is True
        for mine, theirs in zip(result.phase_perfs, restored.phase_perfs):
            assert mine.phase == theirs.phase
            assert mine.time_ns == theirs.time_ns
            assert mine.core == theirs.core
            assert mine.events == theirs.events
            assert mine.limits == theirs.limits

    def test_schema_mismatch_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            result_from_document({"schema": "something-else"})

    def test_plain_coerces_containers_and_rejects_objects(self):
        from repro.service.codec import _plain

        assert _plain({1: (2, np.int64(3))}) == {"1": [2, 3]}
        with pytest.raises(TypeError, match="cannot store"):
            _plain(object())


class TestSuiteRunCodec:
    """The multi-stage document behind ``repro.suites``' store tier."""

    def _stages(self):
        result = common.run_cached_result("cpu", "scan", 50.0, num_partitions=8)
        return [("scan:probe", "scan", "events", result)]

    def test_exact_round_trip(self):
        from repro.service.codec import (
            suite_run_from_document,
            suite_run_to_document,
        )

        stages = self._stages()
        document = suite_run_to_document(
            "windowed-clicks", "windowed", "cpu", stages, "ab" * 32
        )
        run = suite_run_from_document(json.loads(json.dumps(document)))
        assert (run["suite"], run["family"], run["system"]) == (
            "windowed-clicks", "windowed", "cpu",
        )
        assert run["output_digest"] == "ab" * 32
        (name, operator, table, restored), (_, _, _, original) = (
            run["stages"][0], stages[0],
        )
        assert (name, operator, table) == ("scan:probe", "scan", "events")
        assert restored.runtime_s == original.runtime_s  # exact, not approx
        assert restored.energy == original.energy
        assert restored.output is None
        assert restored.metadata["restored"] is True

    def test_schema_mismatch_rejected(self):
        from repro.service.codec import suite_run_from_document

        with pytest.raises(ValueError, match="suite-run schema"):
            suite_run_from_document({"schema": "suite-run/v0"})


# ---------------------------------------------------------------------------
# The store tier under run_cached_result
# ---------------------------------------------------------------------------


class TestStoreTier:
    def test_warm_store_skips_simulation(self, tmp_path, monkeypatch):
        common.configure_store(tmp_path)
        cold = common.run_cached_result("cpu", "scan", 50.0, num_partitions=8)
        common.clear_caches()  # fresh-process stand-in: memory tiers empty

        def boom(*args, **kwargs):
            raise AssertionError("simulation executed on a warm store")

        from repro.systems.machine import Machine

        monkeypatch.setattr(Machine, "run_operator", boom)
        warm = common.run_cached_result("cpu", "scan", 50.0, num_partitions=8)
        assert warm.runtime_s == cold.runtime_s
        assert warm.energy == cold.energy
        assert common.store_stats()["hits"] == 1

    def test_no_cache_still_uses_the_store(self, tmp_path):
        common.configure_store(tmp_path)
        common.run_cached_result("cpu", "scan", 50.0, num_partitions=8)
        common.set_cache_enabled(False)
        common.run_cached_result("cpu", "scan", 50.0, num_partitions=8)
        assert common.store_stats()["hits"] == 1

    def test_env_var_selects_the_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv(common.STORE_ENV, str(tmp_path))
        assert common.store_path() == str(tmp_path)
        common.run_cached_result("cpu", "scan", 50.0, num_partitions=8)
        assert common.store_stats()["puts"] == 1

    def test_cache_stats_reports_tiers(self, tmp_path):
        common.configure_store(tmp_path)
        common.run_cached_result("cpu", "scan", 50.0, num_partitions=8)
        common.run_cached_result("cpu", "scan", 50.0, num_partitions=8)
        stats = common.cache_stats()
        # Subset, not equality: subsystems may register extra tiers
        # (e.g. the suite runner's "suite-result" tier on import).
        assert {"workload", "result", "store"} <= set(stats["tiers"])
        assert stats["tiers"]["result"] == {
            "hits": 1, "misses": 1, "evictions": 0, "entries": 1,
        }
        assert stats["tiers"]["store"]["puts"] == 1
        # Legacy aggregate keys survive for old callers.
        assert stats["hits"] == stats["tiers"]["workload"]["hits"] + 1


# ---------------------------------------------------------------------------
# Scenario wire format
# ---------------------------------------------------------------------------


class TestScenarioWireFormat:
    def test_round_trip_preset(self):
        scenario = Scenario("cpu", "scan", **FAST)
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_round_trip_spec(self):
        spec = SystemSpec("mondrian").with_cores(32).with_topology("star")
        scenario = Scenario(spec, "join", **FAST)
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown Scenario field"):
            Scenario.from_dict({"system": "cpu", "operator": "scan", "nope": 1})

    def test_missing_required_fields_rejected(self):
        # A hand-built wire payload that drops a required key must fail
        # loudly, not silently evaluate a default system.
        with pytest.raises(ValueError, match="missing required"):
            Scenario.from_dict({"operator": "scan"})
        with pytest.raises(ValueError, match="missing required"):
            Scenario.from_dict({"system": "cpu"})


# ---------------------------------------------------------------------------
# The scheduler
# ---------------------------------------------------------------------------


class TestBatchScheduler:
    def test_deduplicates_and_preserves_order(self, tmp_path):
        scheduler = BatchScheduler(store=tmp_path)
        a = Scenario("cpu", "scan", **FAST)
        b = Scenario("mondrian", "scan", **FAST)
        rs = scheduler.submit([a, b, a, a])
        stats = scheduler.stats()
        assert stats["submitted"] == 4
        assert stats["deduplicated"] == 2
        assert stats["executed"] == 2
        # Submission order, duplicates included.
        assert rs.unique("system") == ["cpu", "mondrian"]
        assert [r["system"] for r in rs] == ["cpu", "mondrian", "cpu", "cpu"]

    def test_second_batch_is_all_store_hits(self, tmp_path):
        scheduler = BatchScheduler(store=tmp_path)
        points = [Scenario("cpu", "scan", **FAST), Scenario("cpu", "join", **FAST)]
        first = scheduler.submit(points)
        second = scheduler.submit(points)
        stats = scheduler.stats()
        assert stats["executed"] == 2  # only the cold batch simulated
        assert stats["store_hits"] == 2
        assert first.to_records() == second.to_records()

    def test_accepts_wire_dicts_and_matches_sweep_run(self, tmp_path):
        sweep = Sweep.from_json(SMOKE_SPEC.read_text())
        expected = sweep.run()
        scheduler = BatchScheduler(store=tmp_path)
        got = scheduler.submit([s.to_dict() for s in sweep.scenarios()])
        assert got.to_json() == expected.to_json()

    def test_jobs_fan_out_matches_sequential(self, tmp_path):
        sweep = Sweep.from_json(SMOKE_SPEC.read_text())
        expected = sweep.run()
        scheduler = BatchScheduler(store=tmp_path, jobs=2)
        got = scheduler.submit_sweep(sweep)
        assert got.to_json() == expected.to_json()
        # The workers wrote their evaluations into the shared store.
        reopened = ResultStore(tmp_path)
        assert len(reopened) == sweep.size

    def test_rejects_bad_input(self, tmp_path):
        scheduler = BatchScheduler(store=tmp_path)
        with pytest.raises(TypeError):
            scheduler.submit(["not-a-scenario"])
        with pytest.raises(ValueError):
            BatchScheduler(jobs=0)

    def test_scheduler_store_is_scoped_not_global(self, tmp_path):
        """A scheduler-owned store must not leak into the process-wide
        selection (embedding a daemon would otherwise hijack the host's
        caching configuration)."""
        scheduler = BatchScheduler(store=tmp_path)
        assert common.store_path() is None
        scheduler.submit([Scenario("cpu", "scan", **FAST)])
        assert common.store_path() is None  # restored after the batch
        assert scheduler.store_path() == str(tmp_path)
        assert scheduler.store_stats()["puts"] == 1

    def test_jobs_fan_out_aggregates_worker_store_stats(self, tmp_path):
        scheduler = BatchScheduler(store=tmp_path, jobs=2)
        common.clear_caches()  # force the workers to do the store traffic
        points = [Scenario("cpu", "scan", **FAST), Scenario("cpu", "join", **FAST)]
        scheduler.submit(points)
        stats = scheduler.store_stats()
        assert stats["puts"] == 2  # workers' counters folded into the parent
        assert stats["entries"] == 2


# ---------------------------------------------------------------------------
# The daemon + client
# ---------------------------------------------------------------------------


class TestDaemon:
    @pytest.fixture()
    def server(self, tmp_path):
        handle = serve_background(store=tmp_path / "store")
        yield handle
        handle.stop()

    def test_ping(self, server):
        with ServiceClient(*server.address) as client:
            info = client.ping()
        assert info["service"] == "repro.service"
        assert info["store"].endswith("store")

    def test_round_trip_matches_in_process_sweep(self, server):
        sweep = Sweep.from_json(SMOKE_SPEC.read_text())
        expected = sweep.run()
        with ServiceClient(*server.address) as client:
            remote = client.sweep(sweep)
        assert remote.to_json() == expected.to_json()
        assert remote.to_json() + "\n" == SMOKE_GOLDEN.read_text()

    def test_evaluate_one_scenario(self, server):
        scenario = Scenario("cpu", "scan", **FAST)
        with ServiceClient(*server.address) as client:
            remote = client.evaluate(scenario)
        assert remote.to_records() == scenario.run().to_records()

    def test_stats_and_repeat_submission(self, server):
        sweep = Sweep.from_json(SMOKE_SPEC.read_text())
        with ServiceClient(*server.address) as client:
            client.sweep(sweep)
            client.sweep(sweep)
            stats = client.stats()
        scheduler = stats["scheduler"]
        assert scheduler["executed"] == sweep.size  # cold batch only
        assert scheduler["store_hits"] == sweep.size  # warm batch all hits
        assert stats["store"]["puts"] == sweep.size
        assert stats["requests"]["sweep"] == 2

    def test_errors_are_reported_not_fatal(self, server):
        with ServiceClient(*server.address) as client:
            with pytest.raises(ServiceError, match="unknown verb"):
                client.call("frobnicate")
            with pytest.raises(ServiceError, match="scenario"):
                client.call("evaluate")
            with pytest.raises(ServiceError, match="unknown workload"):
                client.evaluate({"system": "cpu", "operator": "nope"})
            assert client.ping()["service"] == "repro.service"  # still alive

    def test_oversized_request_line_gets_an_error_response(self, server):
        import socket

        from repro.service.daemon import _MAX_LINE

        with socket.create_connection(server.address, timeout=30) as sock:
            reader = sock.makefile("rb")
            sock.sendall(b'{"pad": "' + b"x" * (_MAX_LINE + 1024) + b'"}\n')
            response = json.loads(reader.readline())
        assert response["ok"] is False
        assert "exceeds" in response["error"]
        # The server survived the abusive client.
        with ServiceClient(*server.address) as client:
            assert client.ping()["service"] == "repro.service"

    def test_serve_background_does_not_leak_store_selection(self, tmp_path):
        handle = serve_background(store=tmp_path / "other-store")
        try:
            assert common.store_path() is None
            with ServiceClient(*handle.address) as client:
                client.evaluate(Scenario("cpu", "scan", **FAST))
            assert common.store_path() is None  # still the host's choice
        finally:
            handle.stop()


# ---------------------------------------------------------------------------
# Acceptance: fresh-process warm-store runs
# ---------------------------------------------------------------------------


class TestFreshProcessAcceptance:
    def _run_cli(self, store: Path, out: Path, jobs: int = 1):
        env = dict(
            os.environ, PYTHONPATH=str(ROOT / "src"), REPRO_STORE=str(store)
        )
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.api", "--jobs", str(jobs),
                "--sweep", str(SMOKE_SPEC), "--json", str(out),
            ],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        stats_line = next(
            line for line in proc.stderr.splitlines() if line.startswith("store:")
        )
        return dict(
            pair.split("=") for pair in stats_line.split(" ")[1:]
        )

    def test_repeated_cli_run_is_pure_store_hits(self, tmp_path):
        """The ISSUE's acceptance criterion, end to end: a second
        ``python -m repro.api --sweep`` in a *fresh process* does zero
        simulations and exports byte-identical JSON."""
        store = tmp_path / "store"
        cold_stats = self._run_cli(store, tmp_path / "cold.json")
        objects = sorted(store.glob("objects/*/*.json"))
        warm_stats = self._run_cli(store, tmp_path / "warm.json")
        assert cold_stats["misses"] == "4" and cold_stats["puts"] == "4"
        assert warm_stats["hits"] == "4"
        assert warm_stats["misses"] == "0" and warm_stats["puts"] == "0"
        # On disk too: the cold run wrote exactly 4 objects, the warm none.
        assert len(objects) == 4
        assert sorted(store.glob("objects/*/*.json")) == objects
        cold = (tmp_path / "cold.json").read_bytes()
        warm = (tmp_path / "warm.json").read_bytes()
        assert cold == warm
        assert warm == SMOKE_GOLDEN.read_bytes()

    def test_jobs_run_reports_worker_store_traffic(self, tmp_path):
        """--jobs N does the store I/O in workers; the stderr stats must
        still report the true totals (aggregated counter deltas)."""
        store = tmp_path / "store"
        cold_stats = self._run_cli(store, tmp_path / "cold.json", jobs=2)
        assert cold_stats["puts"] == "4" and cold_stats["entries"] == "4"
        warm_stats = self._run_cli(store, tmp_path / "warm.json", jobs=2)
        assert warm_stats["hits"] == "4" and warm_stats["misses"] == "0"
        assert (tmp_path / "cold.json").read_bytes() == (
            tmp_path / "warm.json"
        ).read_bytes()
