# Convenience targets; everything is plain pytest/python underneath.

PY := PYTHONPATH=src python

.PHONY: test test-fast test-offline-property test-fused-property test-sched-property \
        test-fault test-distrib \
        test-extrapolation test-all \
        ci ci-full \
        docs-check docs-api docs-api-check bench-incremental \
        bench-ooc bench-smoke bench-concurrent \
        bench-concurrent-smoke bench-resume bench-distrib \
        bench-distrib-smoke bench-cluster bench-cluster-smoke \
        bench-extrapolation bench-extrapolation-smoke bench-fused \
        bench-fused-smoke bench-e2e-smoke examples

# Tier-1 verify: the full suite (what CI runs on main).
test:
	$(PY) -m pytest -x -q

# Fast tier: skips the randomized property suite, the golden experiment
# snapshots, the crash-injection tier, the multi-process routed tier and
# slow integration runs — the loop for every-change CI.
test-fast:
	$(PY) -m pytest -x -q -m "not slow and not property and not golden and not faultinject and not distrib"

# Offline property suites: the randomized bitwise gates of the incremental
# zoo refresh, the clustering substrate and the out-of-core phase (seconds).
# The fast tier's `not property` filter skips them, so `ci` runs them here.
test-offline-property:
	$(PY) -m pytest -x -q tests/property/test_property_incremental.py \
	    tests/property/test_property_cluster.py tests/property/test_property_ooc.py

# Fused-training property suite: the randomized bitwise gate of the stacked
# kernels against the serial path, at the engine, scheduler, crash/resume
# and speculation levels (seconds).  Also skipped by the fast tier's
# `not property` filter, so `ci` runs it here.
test-fused-property:
	$(PY) -m pytest -x -q tests/property/test_property_fused.py

# Scheduler property suite: the randomized bitwise gate that a scheduled
# request equals the serial stage loop for any policy, budget or
# concurrency (seconds).  Also skipped by the fast tier's `not property`
# filter, so `ci` runs it here.
test-sched-property:
	$(PY) -m pytest -x -q tests/property/test_property_scheduler.py

# Fault tier: the crash/fault-injection suite (kill at every durability
# boundary, corrupt journals, SIGKILL real serve processes) plus the
# randomized resume properties.  Its own CI job with a hard timeout — a
# wedged recovery path must fail fast, not hang a runner.
test-fault:
	$(PY) -m pytest -x -q tests/faultinject tests/property/test_property_resume.py

# Routed tier: protocol conformance against both deployment shapes, the
# SIGKILL-a-worker chaos suite and multi-tenant brownout — real router +
# worker processes throughout, so it gets its own CI job and timeout.
test-distrib:
	$(PY) -m pytest -x -q tests/distrib

# Speculative early-stopping tier: every test tagged `extrapolation` —
# bound-math units, Eq. 5/6 edge cases, the randomized honesty properties,
# the kill-at-every-prune-boundary crash suite and the golden regret
# snapshot (docs/extrapolation.md).
test-extrapolation:
	$(PY) -m pytest -x -q -m extrapolation

# Full tier: everything, including the slow examples.
test-all:
	$(PY) -m pytest -q

# CI entry points: `ci` on every change, `ci-full` on main.  The fast path
# also runs the offline property suites (test-offline-property: the bitwise
# gates of the zoo refresh, clustering and out-of-core paths), the fused
# property suite (test-fused-property: the stacked kernels) and the
# scheduler property suite (test-sched-property: scheduled == serial),
# smoke-runs
# the out-of-core kernels (equivalence gate at tiny n), the
# concurrent-selection scheduler (serial==scheduled equivalence plus a
# relaxed throughput gate at small n), the four end-to-end workloads
# (bench-e2e-smoke: every answer checked against its expected one),
# verifies the generated API reference is current, executes every fenced
# Python block in README/docs (docs-check) and runs the three examples
# (examples) — seconds each, and the README quickstart and the examples are
# what a new user runs first.
ci: test-fast test-offline-property test-fused-property test-sched-property \
    bench-smoke bench-concurrent-smoke bench-distrib-smoke \
    bench-cluster-smoke bench-extrapolation-smoke bench-fused-smoke \
    bench-e2e-smoke docs-api-check docs-check examples

ci-full: test-all docs-check

# Validate documentation: every fenced Python block in README/docs runs,
# every intra-doc link (and anchor) resolves, and docs/api matches a fresh
# render of the public docstrings.
docs-check:
	$(PY) -m pytest tests/docs -q

# Regenerate the markdown API reference under docs/api/ (commit the result).
docs-api:
	$(PY) tools/gen_api_docs.py

docs-api-check:
	$(PY) tools/gen_api_docs.py --check

bench-incremental:
	$(PY) benchmarks/bench_incremental_update.py --json-out benchmarks/bench_incremental_update.json

# Out-of-core offline phase: full n=5000 budgeted build under the 256 MB
# tracemalloc gate (seconds; CI's full job) and the smoke tier CI runs on
# every change.  Each tier writes its own JSON record.
bench-ooc:
	$(PY) benchmarks/bench_ooc_scaling.py --json-out benchmarks/bench_ooc_scaling_full.json

bench-smoke:
	$(PY) benchmarks/bench_ooc_scaling.py --smoke

# Concurrent selection under the epoch scheduler: the full run gates >= 2x
# aggregate throughput at 8 overlapping requests (bitwise-identical
# results); the smoke tier runs the same equivalence gate at small n on
# every change.
bench-concurrent:
	$(PY) benchmarks/bench_concurrent_selection.py --json-out benchmarks/bench_concurrent_selection.json

bench-concurrent-smoke:
	$(PY) benchmarks/bench_concurrent_selection.py --smoke

# Crash-resume accounting: kill a selection mid-flight, resume it, and gate
# that journaled epochs are replayed (charged, never retrained) and that a
# raised budget pays only the delta.
bench-resume:
	$(PY) benchmarks/bench_resume.py --json-out benchmarks/bench_resume.json

# Routed serving tier: router overhead vs the single process (<= 1.25x on
# one CPU, bitwise-identical results), 2-worker scaling (gated only on
# multi-CPU hosts) and the saturation brownout probe (structured
# queue_full, bounded rejection latency).
bench-distrib:
	$(PY) benchmarks/bench_distributed_serving.py --json-out benchmarks/bench_distributed_serving.json

bench-distrib-smoke:
	$(PY) benchmarks/bench_distributed_serving.py --smoke

# Sub-quadratic clustering: the full run gates >= 5x over the quadratic
# scan at n=5000 (identical labels); the smoke tier runs the same
# label-equivalence gate and a relaxed speedup gate at tiny n on every
# change.
bench-cluster:
	$(PY) benchmarks/bench_cluster_scaling.py --json-out benchmarks/bench_cluster_scaling.json

bench-cluster-smoke:
	$(PY) benchmarks/bench_cluster_scaling.py --smoke

# Speculative early stopping: the full run gates >= 30% trained-epoch
# reduction on a 40-model zoo with the exact arm bitwise-identical to the
# sequential path and zero unaccounted regret; the smoke tier runs the
# same honesty gates (relaxed >= 10% reduction) at small n on every change.
bench-extrapolation:
	$(PY) benchmarks/bench_extrapolation.py --json-out benchmarks/bench_extrapolation.json

bench-extrapolation-smoke:
	$(PY) benchmarks/bench_extrapolation.py --smoke

# Fused multi-session training: the full run gates >= 3x round throughput
# at S=8 stacked sessions on one CPU with bitwise-identical curves,
# parameters and optimizer state; the smoke tier runs the same bitwise
# gates (relaxed throughput floor) at small n on every change.
bench-fused:
	$(PY) benchmarks/bench_fused_training.py --json-out benchmarks/bench_fused_training.json

bench-fused-smoke:
	$(PY) benchmarks/bench_fused_training.py --smoke

# End-to-end answers checked against benchmarks/e2e/expected/: the Table
# VI reproduction on both repositories guards the encoder's noise bits
# (about 20 s), serve-hot checks every select answered over the wire,
# which guards the memoised Eq. 5/6 trend lookups (about 30 s), serve-churn
# checks every answer relayed by the router from its two workers across
# zoo refreshes, which guards the router and worker sockets and the relay
# (about 20 s), and zoo-scale checks that out-of-core builds label like
# in-RAM ones and that 48 chained refreshes end on the from-scratch Eq. 1
# similarity, which guards the one Eq. 1 writer and its sinks (about 13 s).
bench-e2e-smoke:
	python3 benchmarks/e2e/run.py --workload paper-table6 --seed 1
	python3 benchmarks/e2e/run.py --workload serve-hot --seed 1
	python3 benchmarks/e2e/run.py --workload serve-churn --seed 1
	python3 benchmarks/e2e/run.py --workload zoo-scale --seed 1

examples:
	$(PY) -m pytest tests/integration/test_examples.py -q
