# Convenience targets; everything is plain pytest/python underneath.

PY := PYTHONPATH=src python

.PHONY: test test-fast test-fault test-distrib test-extrapolation test-all \
        ci ci-full \
        docs-check docs-api docs-api-check bench-parallel bench-incremental \
        bench-similarity bench-ooc bench-smoke bench-concurrent \
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
# also smoke-runs the out-of-core kernels (equivalence gate at tiny n), the
# concurrent-selection scheduler (serial==scheduled equivalence plus a
# relaxed throughput gate at small n), the end-to-end Table VI workload
# (every row checked against its expected answer) and verifies the
# generated API reference is current.
ci: test-fast bench-smoke bench-concurrent-smoke bench-distrib-smoke \
    bench-cluster-smoke bench-extrapolation-smoke bench-fused-smoke \
    bench-e2e-smoke docs-api-check

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

bench-parallel:
	$(PY) benchmarks/bench_parallel_selection.py

bench-incremental:
	$(PY) benchmarks/bench_incremental_update.py --json-out benchmarks/bench_incremental_update.json

bench-similarity:
	$(PY) benchmarks/bench_similarity_scaling.py

# Out-of-core offline phase: full n=5000 budgeted build (minutes) and the
# seconds-long smoke tier CI runs on every change.
bench-ooc:
	$(PY) benchmarks/bench_ooc_scaling.py

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

# Sub-quadratic clustering + ANN recall: the full run gates >= 5x over the
# quadratic scan at n=5000 (identical labels) and measures IVF recall@k;
# the smoke tier runs the same label-equivalence and recall-floor gates at
# tiny n on every change.
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

# End-to-end Table VI reproduction on both repositories: the run fails
# unless every row equals benchmarks/e2e/expected/paper-table6.json, so it
# guards the encoder's noise bits from end to end (about 20 s).
bench-e2e-smoke:
	python3 benchmarks/e2e/run.py --workload paper-table6 --seed 1

examples:
	$(PY) -m pytest tests/integration/test_examples.py -q
