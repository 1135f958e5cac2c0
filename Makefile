# Mondrian Data Engine reproduction -- developer entry points.
# All targets run from the repo root; no installation required.

PY ?= python
export PYTHONPATH := src

#: Experiment profiled by `make profile` (fig6, fig7, ..., table5, skew).
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

#: Deterministic wire-fault schedule seeds replayed by `make chaos-test`.
CHAOS_SEEDS ?= --seed 7 --seed 17

.PHONY: test test-faults coverage coverage-service coverage-suites coverage-telemetry coverage-fleet chaos-test docs-check load-test load-test-smoke report report-html report-smoke pipelines sweep-smoke service-smoke suites-smoke profile

## Tier-1 verification: full unit/integration/experiment suite, then
## the fault-injection suite, the sweep-smoke, service-smoke,
## suites-smoke, report-smoke and load-test-smoke checks, and the chaos
## harness.
test:
	$(PY) -m pytest -x -q
	$(MAKE) test-faults
	$(MAKE) sweep-smoke
	$(MAKE) service-smoke
	$(MAKE) suites-smoke
	$(MAKE) report-smoke
	$(MAKE) load-test-smoke
	$(MAKE) chaos-test

## Fault-injection suite: property harness (output byte-identity under
## randomized schedules), cross-process determinism audit, barrier edge
## cases, the fault_sweep golden and the production-against-reference
## matrix (shuffle and operators under fault schedules).
test-faults:
	$(PY) -m pytest -x -q tests/test_faults_properties.py \
	  tests/test_faults_determinism.py tests/test_faults_edgecases.py \
	  tests/test_fault_sweep.py tests/test_reference_equivalence.py

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
## SIGKILLed mid-run -- asserting zero failed requests and printing
## p50/p95/p99 latency + throughput per phase.
load-test:
	$(PY) tools/load_test.py

## Small CI form of the load test (120 requests, same SIGKILL phase and
## zero-failure assertion).
load-test-smoke:
	$(PY) tools/load_test.py --smoke

## Chaos harness: replay the sweep-smoke grid through a real daemon
## under worker SIGKILLs, torn store writes, seeded wire faults and
## daemon loss, asserting every export stays byte-identical to the
## golden file and no corrupt entry is ever served.
chaos-test:
	$(PY) tools/chaos.py $(CHAOS_SEEDS)

## Scenario-API smoke test: run the committed 2x2 sweep grid (CPU +
## a 32-core star-topology Mondrian the paper never measured) and diff
## its ResultSet JSON against the committed golden file.
## (REPRO_STORE is cleared so an ambient warm store can never replay
## stale results into the golden diff.)
sweep-smoke:
	REPRO_STORE= $(PY) -m repro.api --sweep tests/data/sweep_smoke.json --json - \
	  | diff - tests/data/sweep_smoke_golden.json
	@echo "sweep-smoke OK: ResultSet matches the committed golden file."

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
