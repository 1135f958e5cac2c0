# Mondrian Data Engine reproduction -- developer entry points.
# All targets run from the repo root; no installation required.

PY ?= python
export PYTHONPATH := src

#: Experiment profiled by `make profile` (fig6, fig7, ..., table5, skew, suites, sweep).
EXPERIMENT ?= fig6

#: Minimum line coverage (percent) `make coverage` demands of the
#: fault-injection package.
FAULTS_MIN_COVERAGE ?= 90

#: Minimum line coverage (percent) `make coverage-service` demands of
#: the evaluation-service package (resilience layer included).
SERVICE_MIN_COVERAGE ?= 90

#: Minimum line coverage (percent) `make coverage-suites` demands of
#: the benchmark-suite package.
SUITES_MIN_COVERAGE ?= 90

#: Minimum line coverage (percent) `make coverage-telemetry` demands of
#: the telemetry package (spans, metrics, codec).
TELEMETRY_MIN_COVERAGE ?= 90

#: Minimum line coverage (percent) `make coverage-fleet` demands of the
#: evaluation-fleet package (ring, sharded store, router, async client).
FLEET_MIN_COVERAGE ?= 90

#: Checkout of the parent commit and workload compared by `make perf-pairs`.
PARENT ?=
WORKLOAD ?= design-sweep

#: Deterministic wire-fault schedule seeds replayed by `make chaos-test`.
CHAOS_SEEDS ?= --seed 7 --seed 17

.PHONY: test test-faults test-leaks perfbench-smoke coverage coverage-service coverage-suites coverage-telemetry coverage-fleet chaos-test docs-check load-test load-test-smoke report report-html report-smoke pipelines sweep-smoke service-smoke suites-smoke profile perf-pairs

## Tier-1 verification: full unit/integration/experiment suite, then
## the fault-injection suite, the leak check, the benchmark, sweep-smoke,
## service-smoke, suites-smoke, report-smoke and load-test-smoke checks,
## and the chaos harness.
test:
	$(PY) -m pytest -x -q
	$(MAKE) test-faults
	$(MAKE) test-leaks
	$(MAKE) perfbench-smoke
	$(MAKE) sweep-smoke
	$(MAKE) service-smoke
	$(MAKE) suites-smoke
	$(MAKE) report-smoke
	$(MAKE) load-test-smoke
	$(MAKE) chaos-test

## Fault-injection suite: property harness (under randomized schedules
## the reference shuffle, which replays a schedule inline, matches the
## fault-free engine's bytes and the schedule replayed over its
## histogram), cross-process determinism audit, barrier edge cases, the
## fault_sweep golden and the production-against-reference matrix
## (price_faults on the fault-free runs against the references' inline
## replay).
test-faults:
	$(PY) -m pytest -x -q tests/test_faults_properties.py \
	  tests/test_faults_determinism.py tests/test_faults_edgecases.py \
	  tests/test_fault_sweep.py tests/test_reference_equivalence.py

## Leak check: the service, fleet and resilience suites with every
## unclosed socket, pipe, transport or file turned into a test failure.
test-leaks:
	$(PY) -m pytest -x -q -W error::ResourceWarning \
	  -W error::pytest.PytestUnraisableExceptionWarning \
	  tests/test_fleet.py tests/test_service.py \
	  tests/test_service_errors.py tests/test_resilience.py

## Coverage gate: run the fault suite under a stdlib line tracer and
## fail if any src/repro/faults/ file is below FAULTS_MIN_COVERAGE%.
coverage:
	$(PY) tools/coverage_gate.py faults --min $(FAULTS_MIN_COVERAGE)

## Service coverage gate: run the service + resilience suites under the
## same stdlib tracer; fail if any src/repro/service/ file is below
## SERVICE_MIN_COVERAGE%.
coverage-service:
	$(PY) tools/coverage_gate.py service --min $(SERVICE_MIN_COVERAGE)

## Suite coverage gate: run the suite tests under the stdlib tracer;
## fail if any src/repro/suites/ file is below SUITES_MIN_COVERAGE%.
coverage-suites:
	$(PY) tools/coverage_gate.py suites --min $(SUITES_MIN_COVERAGE)

## Telemetry coverage gate: run the telemetry + report suites under the
## stdlib tracer; fail if any src/repro/telemetry/ file is below
## TELEMETRY_MIN_COVERAGE%.
coverage-telemetry:
	$(PY) tools/coverage_gate.py telemetry --min $(TELEMETRY_MIN_COVERAGE)

## Fleet coverage gate: run the fleet suite under the stdlib tracer;
## fail if any src/repro/service/fleet/ file is below
## FLEET_MIN_COVERAGE%.
coverage-fleet:
	$(PY) tools/coverage_gate.py fleet --min $(FLEET_MIN_COVERAGE)

## Fleet load test: replay thousands of concurrent requests through a
## real sharded/replicated fleet -- steady, then with a member daemon
## SIGKILLed mid-run -- asserting zero failed requests and member
## connection reuse (steady opens at most shards x MAX_INFLIGHT), and
## printing p50/p95/p99 latency + throughput per phase.
load-test:
	$(PY) tools/load_test.py

## Small CI form of the load test (120 requests, same SIGKILL phase and
## zero-failure assertion).
load-test-smoke:
	$(PY) tools/load_test.py --smoke

## Chaos harness: replay the sweep-smoke grid through a real daemon
## under a daemon SIGKILL and restart, torn store writes, seeded wire
## faults, daemon loss and a fleet member SIGKILL, asserting every
## export stays byte-identical to the golden file, no corrupt entry is
## ever served and no serve process outlives its phase.
chaos-test:
	$(PY) tools/chaos.py $(CHAOS_SEEDS)

## Benchmark smoke test: every perfbench workload runs briefly in both
## modes, verifies its golden digests and reports every named metric
## (with --trace 1, through the per-layer wrappers).
perfbench-smoke:
	$(PY) -m pytest -q perfbench/test_smoke.py

## Ten alternating parent/change benchmark pairs for one workload: each
## side's median and quartiles per end-to-end metric, the change's wins,
## and the gain and bound verdicts; fails if any run failed an operation.
## make perf-pairs PARENT=../parent [WORKLOAD=query-suites]
perf-pairs:
	@test -n "$(PARENT)" || { echo "usage: make perf-pairs PARENT=<parent checkout>"; exit 2; }
	$(PY) tools/perf_pairs.py --parent $(PARENT) --workload $(WORKLOAD)

## Scenario-API smoke test: run the committed 2x2 sweep grid (CPU +
## a 32-core star-topology Mondrian the paper never measured) and a
## faulted Mondrian/NMP grid (operators plus the skew and fk pipelines,
## whose stages replay their own salted schedules), and diff each
## ResultSet JSON against its committed golden file.
## (REPRO_STORE is cleared so an ambient warm store can never replay
## stale results into the golden diff.)
sweep-smoke:
	REPRO_STORE= $(PY) -m repro.api --sweep tests/data/sweep_smoke.json --json - \
	  | diff - tests/data/sweep_smoke_golden.json
	REPRO_STORE= $(PY) -m repro.api --system mondrian --system nmp-perm \
	  --workload join --workload groupby --workload skewed-partition-join \
	  --workload fk-join-aggregate --scale 50 --partitions 8 \
	  --faults '{"seed": 7, "drop_prob": 0.3, "straggler_prob": 0.2, "duplicate_prob": 0.1, "timeout_prob": 0.2}' \
	  --json - | diff - tests/data/sweep_faults_golden.json
	@echo "sweep-smoke OK: ResultSets match the committed golden files."

## Benchmark-suite smoke test: run a 2x2 suite grid (string-key +
## skew-family suites on CPU and Mondrian) plus the full-grid ranked
## score report, and diff both against the committed goldens.
suites-smoke:
	REPRO_STORE= $(PY) -m repro.suites run --suite dict-products \
	  --suite skew-hotspot --system cpu --system mondrian --json - \
	  | diff - tests/data/suites_smoke_golden.json
	REPRO_STORE= $(PY) -m repro.suites score --json - \
	  | diff - tests/data/suites_score_golden.json
	@echo "suites-smoke OK: suite records and score report match the goldens."

## Evaluation-service smoke test: start the daemon on an ephemeral port
## with a fresh store, submit the sweep-smoke grid twice through the
## service CLI, and assert the second pass is 100% store hits with
## byte-identical golden output.
service-smoke:
	$(PY) tests/service_smoke.py

## Executable-documentation check: doctest every fenced code block in
## README.md and docs/, validate documented CLI flags against the real
## parser, then smoke-run the documented commands end-to-end.
docs-check:
	$(PY) -m pytest -q tests/test_docs.py
	$(PY) -m repro.experiments.run_all --fast > /dev/null
	$(PY) -m repro.experiments.run_all --fast --pipelines > /dev/null
	$(PY) -m repro.suites list > /dev/null
	@echo "docs-check OK: doc examples pass and documented commands run."

## Full paper-artifact report at paper scale.
report:
	$(PY) -m repro.experiments.run_all

## Self-contained HTML report (figures and pipeline bottlenecks)
## written to report.html.
report-html:
	$(PY) -m repro.report --out report.html

## Report smoke check: render every report section from committed
## goldens + the fast model scale and audit the HTML's structure,
## self-containment and determinism.
report-smoke:
	$(PY) tools/report_smoke.py

## Query-pipeline suite (per-stage breakdowns, CPU vs NMP vs Mondrian).
pipelines:
	$(PY) -m repro.experiments.run_all --pipelines

## Profile one experiment under cProfile and print the top-25
## cumulative-time report: make profile EXPERIMENT=fig7
profile:
	$(PY) tools/profile_experiment.py $(EXPERIMENT)
