"""Fast checks of the end-to-end benchmark harness (no servers launched).

Covers the seeded schedules, nearest-rank percentiles and their sample
counts, the host-speed scaling of measured spans, the spread and
compare/bound logic, the tracer's self-time accounting and the agreement
between ``BENCHMARK.json`` and the harness.
"""

from __future__ import annotations

import importlib.util
import json
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import e2e_harness as h  # noqa: E402


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "e2e_tracer_under_test", h.TRACE_DIR / "sitecustomize.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# --------------------------------------------------------------------------- #
# schedules
# --------------------------------------------------------------------------- #
def _open(schedule):
    return [request for segment in schedule["segments"] for request in segment["open"]]


def _closed(schedule):
    return [target for segment in schedule["segments"] for target in segment["closed"]]


def test_schedules_repeat_per_seed_and_differ_across_seeds():
    for make, requests in ((h.serve_hot_schedule, _closed), (h.serve_churn_schedule, _open)):
        assert make(3, 20.0) == make(3, 20.0)
        assert requests(make(3, 20.0)) != requests(make(4, 20.0))


def test_every_seed_sends_the_same_request_mix():
    hot = [Counter(_closed(h.serve_hot_schedule(seed, 15.0))) for seed in (1, 2)]
    assert hot[0] == hot[1]
    assert sum(hot[0].values()) == round(15.0 * h.HOT_REQUESTS_PER_SECOND)

    def counts(seed):
        requests = _open(h.serve_churn_schedule(seed, 15.0))
        return [Counter(r[field] for r in requests) for field in ("target", "top_k", "speculative")]

    assert counts(1) == counts(2)


def test_apportion_uses_largest_remainders():
    assert h.apportion([1, 1, 1], 4) == [2, 1, 1]
    assert h.apportion([0.5, 0.3, 0.2], 7) == [4, 2, 1]
    assert sum(h.apportion(h.zipf_weights(28, 1.1), 90)) == 90


def test_churn_open_loop_arrivals_stay_inside_their_segment():
    schedule = h.serve_churn_schedule(0, 20.0)
    for segment in schedule["segments"]:
        times = [request["at"] for request in segment["open"]]
        assert times == sorted(times)
        assert all(0.0 < t < schedule["segment_seconds"] for t in times)
    assert all(request["target"] in h.NLP_TASKS for request in _open(schedule))


def test_hot_bursts_send_every_task_once():
    schedule = h.serve_hot_schedule(5, 20.0)
    assert len(schedule["segments"]) == h.HOT_CYCLES
    for segment in schedule["segments"]:
        assert sorted(segment["burst"]) == sorted(h.NLP_TASKS)


def test_hot_popularity_ranks_the_paper_targets_first():
    assert sorted(h.HOT_RANKS) == sorted(h.NLP_TASKS)
    assert h.HOT_RANKS[:4] == h.NLP_TARGETS
    weights = h.zipf_weights(len(h.HOT_RANKS), h.HOT_ZIPF)
    assert sum(weights[:4]) / sum(weights) == pytest.approx(0.578, abs=1e-3)


def test_churn_refreshes_and_bursts_do_not_depend_on_the_seed():
    a, b = h.serve_churn_schedule(1, 20.0), h.serve_churn_schedule(2, 20.0)
    for x, y in zip(a["segments"], b["segments"]):
        assert x["refresh_at"] == y["refresh_at"]
        assert x["burst"] == y["burst"]
        assert len(x["burst"]) <= 32  # the router's default in-flight bound
    assert len(a["segments"]) == h.CHURN_CYCLES
    assert 2 * h.CHURN_CYCLES == h.CHURN_REFRESHES
    assert {r["top_k"] for r in _open(a)} <= set(h.CHURN_TOP_K)


def test_churn_refresh_swaps_one_held_out_model_at_a_time():
    held_out = ["m33", "m34", "m35"]
    assert h.churn_refresh(1, held_out) == {"added": ["m33"], "removed": []}
    assert h.churn_refresh(3, held_out) == {"added": ["m35"], "removed": ["m34"]}
    with pytest.raises(ValueError):
        h.churn_refresh(4, held_out)


def test_payload_digest_ignores_per_request_fields():
    payload = {"target": "mnli", "total_cost": 18.0, "recalled_models": ["a", "b"]}
    noisy = dict(payload, id="o7", event="result", latency_seconds=0.25)
    assert h.payload_digest(payload) == h.payload_digest(noisy)
    assert h.payload_digest(payload) != h.payload_digest(dict(payload, total_cost=19.0))


def test_payload_digest_ignores_pool_dependent_regret_fields():
    report = {"stage": 2, "epochs_saved": 3}
    fresh = {"target": "anli", "extrapolation": {"pruned": {"m": report}, "epochs_saved": 3.0}}
    later = {"target": "anli", "extrapolation": {
        "pruned": {"m": dict(report, actual_final=1.0, actual_regret=0.05)}, "epochs_saved": 3.0}}
    assert h.payload_digest(fresh) == h.payload_digest(later)
    moved = {"target": "anli", "extrapolation": {
        "pruned": {"m": dict(report, stage=3)}, "epochs_saved": 3.0}}
    assert h.payload_digest(fresh) != h.payload_digest(moved)


# --------------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------------- #
def test_nearest_rank_percentiles():
    values = list(range(1, 101))
    assert h.percentile(values, 50) == 50
    assert h.percentile(values, 90) == 90
    assert h.percentile(values, 100) == 100
    assert h.percentile([7.0], 99) == 7.0
    assert h.percentile([3, 1, 2], 50) == 2
    with pytest.raises(ValueError):
        h.percentile([], 50)


def _rows(times, cost, stolen=0.0):
    """Probe rows at ``times`` with probe time ``cost(t)``; ``stolen`` of the
    ticks the core wanted (100 per second) went to steal."""
    return [(t, cost(t), round(t * 100 * (1 - stolen)), round(t * 100 * stolen)) for t in times]


TENTHS = [t / 10 for t in range(300)]


def test_speed_factor_uses_the_probes_around_the_span():
    ref = h.REFERENCE_PROBE_S
    slow_then_fast = _rows(TENTHS[:100], lambda t: 2 * ref if t < 5 else ref)
    samples = {0: slow_then_fast}
    assert h.speed_factor(samples, 1.0, 2.0) == pytest.approx(0.5)
    assert h.speed_factor(samples, 8.0, 8.5) == pytest.approx(1.0)
    # Two equally busy cores: their factors are averaged.
    both = {0: slow_then_fast, 1: _rows(TENTHS[:100], lambda t: ref)}
    assert h.speed_factor(both, 1.0, 2.0) == pytest.approx(0.75)


def test_speed_factor_weights_cores_by_the_work_they_ran():
    ref = h.REFERENCE_PROBE_S
    working = _rows(TENTHS, lambda t: ref)
    # An idle core: a few busy ticks, half of the time it wanted stolen.
    idle = [(t, ref, round(t * 0.5), round(t * 0.5)) for t in TENTHS]
    factor = h.speed_factor({0: idle, 1: working}, 5.0, 10.0)
    assert 0.99 < factor < 1.0


def test_speed_factor_counts_stolen_time_as_slowness():
    ref = h.REFERENCE_PROBE_S
    # The probe's CPU time reads normal, but the host took half the time.
    samples = {0: _rows(TENTHS, lambda t: ref, stolen=0.5)}
    assert h.speed_factor(samples, 5.0, 6.0) == pytest.approx(0.5, abs=0.01)


def test_speed_factor_falls_back_to_the_nearest_samples():
    ref = h.REFERENCE_PROBE_S
    samples = {0: _rows([0.0, 0.1, 0.2, 50.0], lambda t: 4 * ref if t > 1 else ref)}
    assert h.speed_factor(samples, 10.0, 10.1) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        h.speed_factor({0: []}, 0.0, 1.0)


def test_end_to_end_metrics_scale_each_span_and_take_medians():
    ref = h.REFERENCE_PROBE_S
    # The host runs at half the reference speed for t < 10, full speed after.
    samples = {0: _rows(TENTHS, lambda t: 2 * ref if t < 10 else ref)}
    timings = {
        "setup": [[0.0, 4.0]],
        "latency": [[1.0, 1.2], [2.0, 2.2], [20.0, 20.1], [21.0, 21.1], [22.0, 22.1]],
        "throughput": [{"count": 10, "spans": [[25.0, 26.0], [27.0, 28.0]]},
                       {"count": 10, "spans": [[3.0, 7.0]]}],
    }
    metrics, unscaled = h.end_to_end_metrics(timings, samples)
    assert metrics["setup_s"] == {"value": pytest.approx(2.0), "unit": "s", "samples": 1}
    assert unscaled["setup_s"] == pytest.approx(4.0)
    # Every scaled latency is 100 ms; unscaled, the slow spans read 200 ms.
    assert metrics["latency_p50_ms"]["value"] == pytest.approx(100.0)
    assert metrics["latency_p50_ms"]["samples"] == 5
    assert unscaled["latency_p50_ms"] == pytest.approx(100.0)
    assert metrics["throughput_ops_s"]["value"] == pytest.approx(5.0)
    assert unscaled["throughput_ops_s"] == pytest.approx(3.75)
    assert "throughput_ops_s" not in h.end_to_end_metrics({"setup": [[0.0, 1.0]]}, samples)[0]


def test_spread_is_quartile_distance_over_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert h.spread(values) == pytest.approx((q3 - q1) / median)
    assert h.spread([5.0] * 10) == 0.0
    assert h.summary([2.0, 4.0])["runs"] == 2


# --------------------------------------------------------------------------- #
# compare
# --------------------------------------------------------------------------- #
STEADY = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


def test_within_bound_is_ok():
    change = [v * 1.05 for v in STEADY]
    verdict, worse = h.verdict(STEADY, change, bound=0.10, better="lower")
    assert verdict == h.OK
    assert worse == pytest.approx(0.05, abs=1e-3)


def test_past_bound_is_regressed_in_either_direction():
    assert h.verdict(STEADY, [v * 1.2 for v in STEADY], bound=0.10, better="lower")[0] == h.REGRESSED
    assert h.verdict(STEADY, [v * 0.8 for v in STEADY], bound=0.10, better="higher")[0] == h.REGRESSED
    assert h.verdict(STEADY, [v * 1.2 for v in STEADY], bound=0.10, better="higher")[0] == h.OK


def test_wide_spread_is_unresolved_unless_every_run_wins():
    noisy = [50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0]
    assert h.verdict(STEADY, noisy, bound=0.10, better="lower")[0] == h.UNRESOLVED
    all_better = [v * 0.1 for v in noisy]
    assert h.verdict(noisy, all_better, bound=0.10, better="lower")[0] == h.OK


def test_compare_records_rows_per_metric_and_workload():
    def record(workload, value):
        return {"workload": workload, "metrics": {"latency_p50_ms": {"value": value, "unit": "ms"}}}

    parent = [record("serve-hot", v) for v in STEADY] + [record("zoo-scale", v) for v in STEADY]
    change = [record("serve-hot", v * 1.3) for v in STEADY] + [record("zoo-scale", v) for v in STEADY]
    rows = h.compare_records(parent, change, [
        {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}])
    verdicts = {(r["workload"], r["metric"]): r["verdict"] for r in rows}
    assert verdicts == {("serve-hot", "latency_p50_ms"): h.REGRESSED,
                        ("zoo-scale", "latency_p50_ms"): h.OK}


def test_load_records_accepts_files_lists_and_directories(tmp_path):
    one = {"workload": "zoo-scale", "metrics": {}}
    (tmp_path / "a.json").write_text(json.dumps(one))
    (tmp_path / "b.json").write_text(json.dumps({"runs": [one, one]}))
    assert len(h.load_records([str(tmp_path)])) == 3
    assert len(h.load_records([str(tmp_path / "a.json")])) == 1


# --------------------------------------------------------------------------- #
# tracing
# --------------------------------------------------------------------------- #
def test_tracer_self_time_excludes_child_spans():
    tracer = _load_tracer()
    inner = tracer._span("inner", lambda: time.sleep(0.02))

    def outer_body():
        time.sleep(0.01)
        inner()
        inner()

    tracer._span("outer", outer_body)()
    calls_o, busy_o, self_o = tracer._totals["outer"]
    calls_i, busy_i, self_i = tracer._totals["inner"]
    assert (calls_o, calls_i) == (1, 2)
    assert busy_i == self_i
    assert self_o == busy_o - busy_i
    assert 0.005e9 < self_o < busy_i


def test_tracer_counts_nested_same_layer_busy_once():
    tracer = _load_tracer()
    leaf = tracer._span("layer", lambda: time.sleep(0.005))
    tracer._span("layer", leaf)()
    calls, busy, own = tracer._totals["layer"]
    assert calls == 2
    assert own == busy  # the outer call's self time plus the inner call's


def test_trace_metrics_take_window_deltas_across_processes(tmp_path):
    def dump(pid, seq, calls, busy, own):
        layers = {"core.recall": {"calls": calls, "busy_s": busy, "self_s": own}}
        document = {"layers": layers, "span_cost_ns": 1e6}
        (tmp_path / f"{pid}.{seq}.json").write_text(json.dumps(document))

    dump(10, 1, 5, 1.0, 0.5)
    dump(10, 2, 9, 3.0, 1.5)
    dump(11, 1, 0, 0.0, 0.0)
    dump(11, 2, 2, 1.0, 1.0)
    out = h.trace_metrics(tmp_path, {"proc.cpu_s": {"value": 4.0}})
    assert out["core.recall.calls"]["value"] == 6
    assert out["core.recall.busy_s"]["value"] == pytest.approx(3.0)
    assert out["core.recall.self_s"]["value"] == pytest.approx(2.0)
    assert out["setup.core.performance.self_s"]["value"] == 0.0
    assert out["trace.coverage"]["value"] == pytest.approx(0.5)
    # 6 window spans at a measured 1 ms each, over 4 CPU seconds.
    assert out["trace.overhead_frac"]["value"] == pytest.approx(0.0015)
    assert out["core.plan.calls"]["value"] == 0


def test_span_cost_is_measured_and_left_out_of_the_totals():
    tracer = _load_tracer()
    cost = tracer.span_cost_ns(calls=2000)
    assert 0.0 <= cost < 1e6
    assert "__calibration__" not in tracer._totals


def test_tracer_layers_match_the_harness():
    assert _load_tracer().LAYERS == h.SPAN_LAYERS


# --------------------------------------------------------------------------- #
# BENCHMARK.json
# --------------------------------------------------------------------------- #
def test_benchmark_json_matches_the_harness():
    benchmark = json.loads((h.REPO_ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in benchmark["workloads"]] == list(h.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in benchmark["per_layer"]} == h.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert benchmark["paths"] == ["benchmarks/e2e"]
