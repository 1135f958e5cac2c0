"""Benchmark-suite subsystem tests: families, registry, runner, scoring,
CLI, and the committed goldens.

The grid here is the same one ``make suites-smoke`` diffs, so these
tests and the Makefile target can never disagree about what the suite
subsystem produces.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analytics.tuples import Relation
from repro.experiments import common
from repro.suites import (
    ColumnSpec,
    CompositeKeyFamily,
    DictEncoder,
    FAMILIES,
    SKEW_PRESETS,
    SUITES,
    SkewFamily,
    StringKeyFamily,
    Suite,
    SuitePoint,
    SuiteRun,
    WindowedFamily,
    functional_digests,
    get_suite,
    pack_columns,
    product_vocabulary,
    run_suite_point,
    score_records,
)
from repro.suites import __main__ as suites_cli
from repro.suites import families as fam
from repro.suites import runner
from repro.suites.runner import relation_digest, suite_store_payload
from repro.suites.scoring import (
    DEFAULT_WEIGHTS,
    render_report,
    report_json,
)

DATA = Path(__file__).parent / "data"

#: Small grid shared with ``make suites-smoke``.
SMOKE_SUITES = ("dict-products", "skew-hotspot")
SMOKE_SYSTEMS = ("cpu", "mondrian")


@pytest.fixture(autouse=True)
def _fresh_caches():
    common.clear_caches()
    yield
    common.clear_caches()
    common.configure_store(None)


@pytest.fixture
def scoped_store(tmp_path):
    previous = common.store_selection()
    store = common.configure_store(tmp_path / "store")
    yield store
    common.restore_store_selection(previous)


def unpack_columns(packed, specs):
    """Inverse of :func:`pack_columns` (column order preserved): the
    oracle the packing and the leading-column bound are checked with."""
    shift = fam.packed_bits(specs)
    out = []
    for spec in specs:
        shift -= spec.bits
        mask = np.uint64((1 << spec.bits) - 1)
        out.append((np.asarray(packed, dtype=np.uint64) >> np.uint64(shift)) & mask)
    return out


# ---------------------------------------------------------------------------
# Families: packing, encoding, generation.
# ---------------------------------------------------------------------------


class TestCompositePacking:
    def test_pack_unpack_roundtrip(self):
        specs = (
            ColumnSpec("a", 6, 40),
            ColumnSpec("b", 12, 3000),
            ColumnSpec("c", 9, 364),
        )
        rng = np.random.default_rng(3)
        cols = [
            rng.integers(0, s.cardinality, size=500, dtype=np.uint64)
            for s in specs
        ]
        packed = pack_columns(cols, specs)
        assert packed.dtype == np.uint64
        for got, want in zip(unpack_columns(packed, specs), cols):
            np.testing.assert_array_equal(got, want)

    def test_packing_is_lexicographic(self):
        specs = (ColumnSpec("hi", 4, 16), ColumnSpec("lo", 4, 16))
        a = pack_columns([np.array([1]), np.array([15])], specs)
        b = pack_columns([np.array([2]), np.array([0])], specs)
        assert a[0] < b[0]  # leading column dominates the order

    def test_leading_column_range_matches_unpack(self):
        family = CompositeKeyFamily()
        bound = fam.leading_column_range(family.specs, 20)
        keys = family.tables(17)["facts"].keys
        region = unpack_columns(keys, family.specs)[0]
        np.testing.assert_array_equal(keys < bound, region < 20)

    def test_budget_enforced(self):
        with pytest.raises(ValueError, match="bit-budget|budget is"):
            fam.packed_bits((ColumnSpec("a", 40, 2), ColumnSpec("b", 30, 2)))
        with pytest.raises(ValueError, match="bits must be"):
            ColumnSpec("a", 0, 1)
        with pytest.raises(ValueError, match="does not fit"):
            ColumnSpec("a", 2, 5)

    def test_pack_validates(self):
        specs = (ColumnSpec("a", 4, 10),)
        with pytest.raises(ValueError, match="one array per column"):
            pack_columns([], specs + specs)
        with pytest.raises(ValueError, match="cardinality"):
            pack_columns([np.array([10])], specs)


class TestDictEncoder:
    def test_roundtrip_and_prefix(self):
        enc = DictEncoder(["pear", "apple", "plum", "apple"])
        assert enc.vocabulary == ("apple", "pear", "plum")
        assert len(enc) == 3
        codes = enc.encode(["plum", "apple"])
        assert codes.tolist() == [2, 0]
        assert enc.decode(codes) == ["plum", "apple"]
        assert enc.bound("b") == 1  # only "apple" is below "b"
        assert enc.key_space_bits == 2

    def test_errors(self):
        with pytest.raises(ValueError, match="empty"):
            DictEncoder([])
        enc = DictEncoder(["a", "b"])
        with pytest.raises(KeyError, match="not in vocabulary"):
            enc.encode(["c"])
        with pytest.raises(KeyError, match="out of vocabulary"):
            enc.decode(np.array([5]))

    def test_product_vocabulary(self):
        vocab = product_vocabulary(2)
        assert len(vocab) == 8 * 8 * 2
        assert len(set(vocab)) == len(vocab)
        with pytest.raises(ValueError, match="at least one variant"):
            product_vocabulary(0)


class TestFamilies:
    @pytest.mark.parametrize(
        "family_type",
        [CompositeKeyFamily, StringKeyFamily, WindowedFamily, SkewFamily],
    )
    def test_deterministic_and_well_formed(self, family_type):
        family = family_type()
        a, b = family.tables(17), family.tables(17)
        assert set(a) == set(b)
        for name in a:
            assert isinstance(a[name], Relation)
            assert bytes(a[name].data.tobytes()) == bytes(b[name].data.tobytes())
            assert a[name].keys.max() < (1 << family.key_space_bits)
        assert family.tables(18)[next(iter(a))].data.tobytes() != a[
            next(iter(a))
        ].data.tobytes()
        params = family.cache_params()
        assert params["family"] == family.family

    def test_join_families_satisfy_fk_invariant(self):
        comp = CompositeKeyFamily().tables(17)
        assert set(comp["facts"].keys).issubset(set(comp["dimension"].keys))
        assert len(np.unique(comp["dimension"].keys)) == len(comp["dimension"])
        skew = SkewFamily(preset="zipf").tables(17)
        assert set(skew["events"].keys).issubset(set(skew["users"].keys))

    def test_windowed_keys_are_window_ids(self):
        family = WindowedFamily()
        clicks = family.tables(17)["clicks"]
        assert int(clicks.keys.max()) <= family.max_timestamp >> family.window_shift
        # Window ids arrive in nondecreasing (stream) order.
        assert np.all(np.diff(clicks.keys.astype(np.int64)) >= 0)

    def test_skew_presets(self):
        assert set(SKEW_PRESETS) == {"uniform", "mild", "zipf", "hotspot"}
        hot = SkewFamily(preset="hotspot").tables(17)["events"].keys
        mild = SkewFamily(preset="uniform").tables(17)["events"].keys
        top = lambda keys: np.bincount(
            np.unique(keys, return_inverse=True)[1]
        ).max()
        assert top(hot) > 5 * top(mild)
        with pytest.raises(ValueError, match="unknown skew preset"):
            SkewFamily(preset="extreme")

    def test_generator_domain_errors(self):
        small = CompositeKeyFamily(
            region_bits=1, regions=2, store_bits=1, stores=2, day_bits=1, days=2
        )
        with pytest.raises(ValueError, match="domain too small"):
            small.tables(17)
        with pytest.raises(ValueError, match="key space too small"):
            SkewFamily(user_key_bits=4).tables(17)

    def test_string_family_runs_on_integer_kernels(self):
        family = StringKeyFamily()
        tables = family.tables(17)
        assert tables["orders"].keys.dtype == np.uint64
        enc = family.encoder()
        names = enc.decode(tables["products"].keys)
        assert names == sorted(names)

    def test_string_family_builds_its_encoder_once(self):
        family = StringKeyFamily()
        params = family.cache_params()
        assert family.encoder() is family.encoder()
        # The cached encoder is no field: equality, hash and the cache
        # key still see the parameters alone.
        assert family == StringKeyFamily()
        assert hash(family) == hash(StringKeyFamily())
        assert family.cache_params() == params == StringKeyFamily().cache_params()


# ---------------------------------------------------------------------------
# Registry.
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_four_families_covered(self):
        assert len(SUITES) >= 4
        assert set(FAMILIES) == {
            "composite-key", "string-key", "windowed", "skew-family",
        }

    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_plans_build_and_validate(self, name):
        suite = get_suite(name)
        plan = suite.build_plan(seed=17, num_partitions=8)
        assert plan.stage_names == suite.stage_names()
        assert plan.key_space_bits == suite.family.key_space_bits
        params = suite.cache_params()
        assert params["suite"] == name
        assert params["family"]["family"] == suite.family_name

    def test_unknown_suite(self):
        with pytest.raises(KeyError, match="unknown suite"):
            get_suite("nope")


class TestSuiteTables:
    """One materialization of a suite's tables per seed, shared read-only."""

    @staticmethod
    def built_plans(monkeypatch):
        plans = []
        build_plan = Suite.build_plan

        def spy(self, *args, **kwargs):
            plans.append(build_plan(self, *args, **kwargs))
            return plans[-1]

        monkeypatch.setattr(Suite, "build_plan", spy)
        return plans

    def test_presets_of_one_run_share_the_tables(self, monkeypatch):
        plans = self.built_plans(monkeypatch)
        SuiteRun(suites=("skew-mild",), systems=SMOKE_SYSTEMS).run(jobs=1)
        assert len(plans) == len(SMOKE_SYSTEMS) >= 2
        first, *others = plans
        for plan in others:
            assert plan.tables.keys() == first.tables.keys()
            for name, relation in plan.tables.items():
                assert relation.data is first.tables[name].data

    def test_clear_caches_empties_the_tier(self):
        get_suite("windowed-clicks").build_plan(seed=3)
        tier = common.cache_stats()["tiers"]["suite-tables"]
        assert tier["entries"] == 1
        common.clear_caches()
        assert common.cache_stats()["tiers"]["suite-tables"]["entries"] == 0

    def test_cleared_tier_rebuilds_equal_tables(self):
        suite = get_suite("skew-hotspot")
        cached = suite.build_plan(seed=3).tables
        shared = suite.build_plan(seed=3).tables
        common.clear_caches()
        cold = suite.build_plan(seed=3).tables
        assert cached.keys() == shared.keys() == cold.keys()
        for name, relation in cached.items():
            assert shared[name].data is relation.data
            assert cold[name].data is not relation.data
            assert cold[name] == relation

    def test_cached_tables_are_read_only(self):
        plan = get_suite("dict-products").build_plan(seed=3)
        relation = next(iter(plan.tables.values()))
        with pytest.raises(ValueError, match="read-only"):
            relation.data["payload"][0] = 1
        with pytest.raises(ValueError, match="read-only"):
            relation.keys[:] = 0


# ---------------------------------------------------------------------------
# Runner: caching, store round-trip, grid driver.
# ---------------------------------------------------------------------------


class TestRunner:
    def test_point_validation(self):
        with pytest.raises(KeyError):
            SuitePoint("nope", "cpu")
        with pytest.raises(TypeError, match="named system presets"):
            SuitePoint("skew-mild", object())
        with pytest.raises(ValueError, match="model_scale"):
            SuitePoint("skew-mild", "cpu", model_scale=0)
        with pytest.raises(ValueError, match="partition"):
            SuitePoint("skew-mild", "cpu", num_partitions=0)

    def test_memory_tier_hit_returns_same_outcome(self):
        point = SuitePoint("windowed-clicks", "cpu")
        first = run_suite_point(point)
        assert run_suite_point(point) is first

    def test_store_cold_then_warm(self, scoped_store):
        point = SuitePoint("dict-products", "mondrian")
        cold = run_suite_point(point)
        assert scoped_store.stats()["puts"] == 1
        common.clear_caches()  # drop memory tier; store must serve
        warm = run_suite_point(point)
        assert scoped_store.stats()["hits"] >= 1
        assert warm.output_digest == cold.output_digest
        assert [s[:3] for s in warm.stages] == [s[:3] for s in cold.stages]
        # Restored stage results drop the functional payload.
        assert warm.stages[-1][3].output is None
        assert warm.stages[-1][3].metadata.get("restored") is True
        # The records rebuilt from restored results match exactly.
        assert SuitePoint.records(point) == point.records()

    def test_warm_store_replay_matches_cold_grid(self, scoped_store):
        grid = SuiteRun(suites=("dict-products",), systems=SMOKE_SYSTEMS)
        cold = grid.run()
        common.clear_caches()  # memory tiers cold: only the store is warm
        assert grid.run().to_json() == cold.to_json()
        assert scoped_store.stats()["hits"] == grid.size

    def test_memory_hit_write_through(self, tmp_path):
        point = SuitePoint("skew-mild", "cpu")
        run_suite_point(point)  # computed with no store configured
        store = common.configure_store(tmp_path / "late-store")
        run_suite_point(point)  # memory hit: must heal onto disk
        assert store.stats()["puts"] == 1
        run_suite_point(point)  # persisted marker: no second put
        assert store.stats()["puts"] == 1

    def test_corrupt_store_document_is_a_miss(self, scoped_store):
        from repro.service.store import digest_payload

        point = SuitePoint("skew-mild", "cpu")
        digest = digest_payload(suite_store_payload(point))
        scoped_store.put(digest, {"schema": "something-else/v9"})
        outcome = run_suite_point(point)  # recomputes + overwrites
        assert outcome.output_digest
        common.clear_caches()
        assert run_suite_point(point).output_digest == outcome.output_digest

    def test_records_shape(self):
        point = SuitePoint("composite-sales", "cpu")
        records = point.run().to_records()
        assert records
        first = records[0]
        assert first["suite"] == "composite-sales"
        assert first["family"] == "composite-key"
        assert first["system"] == "cpu"
        assert {"stage", "phase", "time_s", "energy_j"} <= set(first)
        stages = {r["stage"] for r in records}
        assert stages == set(get_suite("composite-sales").stage_names())

    def test_outcome_totals(self):
        outcome = run_suite_point(SuitePoint("skew-hotspot", "nmp-perm"))
        assert outcome.runtime_s > 0
        assert outcome.energy_j > 0
        assert outcome.family == "skew-family"

    def test_grid_axes_validate(self):
        run = SuiteRun(suites="skew-mild", systems="cpu")
        assert run.suites == ("skew-mild",)
        assert run.size == 1
        with pytest.raises(ValueError, match="must not be empty"):
            SuiteRun(suites=())

    def test_grid_jobs_equivalence(self):
        grid = SuiteRun(suites=SMOKE_SUITES, systems=SMOKE_SYSTEMS)
        sequential = grid.run(jobs=1)
        pooled = grid.run(jobs=2)
        assert sequential.to_json() == pooled.to_json()
        with pytest.raises(ValueError, match="jobs"):
            grid.run(jobs=0)

    def test_point_worker_in_process(self, scoped_store):
        point = SuitePoint("windowed-clicks", "cpu")
        records, delta, spans = common.run_in_worker(
            SuitePoint.records, point, common.worker_selection(),
            runner._pool_span,
        )
        assert records == point.records()
        assert delta is not None and delta["puts"] == 1
        assert spans is None  # tracing was not requested

    def test_outcomes_grid_order(self):
        grid = SuiteRun(suites=SMOKE_SUITES, systems=("cpu",))
        outcomes = grid.outcomes()
        assert [o.suite for o in outcomes] == list(SMOKE_SUITES)

    def test_output_digest_is_preset_invariant(self):
        digests = {
            system: run_suite_point(SuitePoint("dict-products", system)).output_digest
            for system in SMOKE_SYSTEMS
        }
        assert len(set(digests.values())) == 1
        rel = Relation.from_arrays(
            np.array([1], dtype=np.uint64), np.array([2], dtype=np.uint64), "r"
        )
        assert relation_digest(rel) == relation_digest(rel)


# ---------------------------------------------------------------------------
# Goldens: smoke grid, functional answers, score report.
# ---------------------------------------------------------------------------


class TestGoldens:
    def test_smoke_grid_matches_golden(self):
        grid = SuiteRun(suites=SMOKE_SUITES, systems=SMOKE_SYSTEMS)
        golden = (DATA / "suites_smoke_golden.json").read_text()
        assert grid.run().to_json() + "\n" == golden

    def test_functional_digests_match_golden(self):
        golden = json.loads((DATA / "suites_functional_golden.json").read_text())
        assert functional_digests() == golden

    def test_score_report_matches_golden(self):
        results = SuiteRun().run()
        report = score_records(results)
        golden = (DATA / "suites_score_golden.json").read_text()
        assert report_json(report) + "\n" == golden
        assert set(report["suites"]) == set(SUITES)
        assert report["ranking"][0]["system"] == "mondrian"
        for suite in SUITES:  # near-memory wins end-to-end on every suite
            totals = {
                system: results.total("time_s", suite=suite, system=system)
                for system in ("cpu", "mondrian")
            }
            assert totals["mondrian"] < totals["cpu"], suite


# ---------------------------------------------------------------------------
# Scoring.
# ---------------------------------------------------------------------------


def _toy_records(with_resilience=False):
    records = []
    for system, t in (("cpu", 4.0), ("mondrian", 1.0)):
        for stage, frac in (("a", 0.5), ("b", 0.5)):
            record = {
                "suite": "toy",
                "family": "toy-family",
                "system": system,
                "stage": stage,
                "time_s": t * frac,
                "energy_j": 2 * t * frac,
                "bytes": 100.0,
            }
            if with_resilience:
                record["retry_shuffle_b"] = 10.0 if system == "cpu" else 0.0
                record["backoff_stall_b"] = 0.0
            records.append(record)
    return records


class TestScoring:
    def test_layers_and_tiers(self):
        from repro.api.results import ResultSet

        report = score_records(ResultSet(_toy_records()))
        toy = report["suites"]["toy"]
        assert toy["winner"] == "mondrian"
        mondrian = toy["systems"]["mondrian"]
        assert mondrian["composite"] == pytest.approx(1.0)
        assert mondrian["tier"] == "A"
        cpu = toy["systems"]["cpu"]
        assert cpu["layers"]["time"] == pytest.approx(0.25)
        assert cpu["layers"]["balance"] == pytest.approx(1.0)
        assert cpu["layers"]["resilience"] == 1.0  # neutral without faults
        assert cpu["tier"] == "C"
        assert report["families"]["toy-family"]["winner"] == "mondrian"
        assert [e["system"] for e in report["ranking"]] == ["mondrian", "cpu"]

    def test_resilience_layer_prices_overhead(self):
        from repro.api.results import ResultSet

        report = score_records(ResultSet(_toy_records(with_resilience=True)))
        layers = report["suites"]["toy"]["systems"]["cpu"]["layers"]
        assert layers["resilience"] == pytest.approx(1.0 / 1.1)

    def test_weight_validation(self):
        from repro.api.results import ResultSet

        rs = ResultSet(_toy_records())
        with pytest.raises(ValueError, match="exactly the layers"):
            score_records(rs, weights={"time": 1.0})
        with pytest.raises(ValueError, match="positive total"):
            score_records(rs, weights={k: 0.0 for k in DEFAULT_WEIGHTS})
        with pytest.raises(ValueError, match="no records"):
            score_records(ResultSet())
        # Unnormalized weights renormalize to the same report.
        doubled = {k: 2 * v for k, v in DEFAULT_WEIGHTS.items()}
        assert report_json(score_records(rs, weights=doubled)) == report_json(
            score_records(rs)
        )

    def test_render_report(self):
        from repro.api.results import ResultSet

        text = render_report(score_records(ResultSet(_toy_records())))
        assert "Per-suite scores" in text
        assert "Overall ranking" in text
        assert "toy-family" in text


# ---------------------------------------------------------------------------
# CLI.
# ---------------------------------------------------------------------------


class TestCli:
    def test_list(self, capsys):
        suites_cli.main(["list"])
        out = capsys.readouterr().out
        for name in SUITES:
            assert name in out
        assert "4 families" in out

    def test_run_summary_and_exports(self, capsys, tmp_path):
        args = ["run", "--suite", "skew-mild", "--system", "cpu"]
        suites_cli.main(args)
        out = capsys.readouterr().out
        assert "SuiteRun: 1 points" in out
        out_path = tmp_path / "records.json"
        suites_cli.main(args + ["--json", str(out_path)])
        capsys.readouterr()
        records = json.loads(out_path.read_text())
        assert {r["system"] for r in records} == {"cpu"}

    def test_run_all_flag(self, capsys):
        suites_cli.main(
            ["run", "--all", "--system", "cpu", "--json", "-"]
        )
        records = json.loads(capsys.readouterr().out)
        assert {r["suite"] for r in records} == set(SUITES)

    def test_score_stdout_json(self, capsys):
        suites_cli.main(
            ["score", "--suite", "skew-mild", "--suite", "skew-hotspot",
             "--system", "cpu", "--system", "mondrian", "--json", "-"]
        )
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "suite-report/v1"
        assert report["suites"]["skew-mild"]["winner"] == "mondrian"

    def test_score_render_and_weights(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        suites_cli.main(
            ["score", "--suite", "skew-mild", "--system", "cpu",
             "--system", "mondrian", "--weight", "time=1", "--weight",
             "energy=0", "--weight", "balance=0", "--weight",
             "resilience=0", "--json", str(out_path)]
        )
        report = json.loads(out_path.read_text())
        layers = report["suites"]["skew-mild"]["systems"]["mondrian"]["layers"]
        assert report["suites"]["skew-mild"]["systems"]["mondrian"][
            "composite"
        ] == pytest.approx(layers["time"])
        suites_cli.main(["score", "--suite", "skew-mild", "--system", "cpu"])
        assert "Overall ranking" in capsys.readouterr().out

    def test_cli_errors(self):
        with pytest.raises(SystemExit):
            suites_cli.main(["run", "--jobs", "0"])
        with pytest.raises(SystemExit, match="LAYER=W"):
            suites_cli.main(["score", "--weight", "bogus=1"])
        with pytest.raises(SystemExit, match="not a number"):
            suites_cli.main(["score", "--weight", "time=abc"])
        with pytest.raises(KeyError, match="unknown suite"):
            suites_cli.main(["run", "--suite", "nope"])

    def test_module_entrypoint(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.suites", "list"],
            capture_output=True, text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            cwd=Path(__file__).parent.parent,
        )
        assert proc.returncode == 0
        assert "composite-sales" in proc.stdout
