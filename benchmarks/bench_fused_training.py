"""Benchmark: fused (stacked-kernel) multi-session training throughput.

Measures what :mod:`repro.nn.batched` buys the scheduler's round hot path
on a single CPU: ``S`` same-task fine-tuning sessions advanced one epoch
at a time, serially (one ``fit_epoch`` loop per session — the
pre-fusion round executor) versus fused (one stacked ``(S, b, d)``
mini-batch loop).  Three layers, strictly gated:

1. **Bitwise gate** — the fused run must reproduce the serial curves,
   training histories and final parameters exactly (any mismatch fails
   the benchmark before any throughput number is looked at).
2. **Round throughput** — median speedup of the fused round over the
   serial round at ``S = 8`` must meet the gate (3x full, relaxed on
   ``--smoke`` where epochs are too cheap for kernel fusion to matter
   against fixed python overhead).
3. **Single-pass eval micro-gate** — the concatenated ``[val; test]``
   forward of ``FineTuneSession.evaluate`` must equal the two separate
   ``score`` passes bitwise (and is timed for the record).

A scheduler-level pass (fused on vs off over identical request mixes)
records end-to-end round counters and re-verifies result equality.

Run with::

    PYTHONPATH=src python benchmarks/bench_fused_training.py
    PYTHONPATH=src python benchmarks/bench_fused_training.py --smoke
    PYTHONPATH=src python benchmarks/bench_fused_training.py \
        --json-out benchmarks/bench_fused_training.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from typing import Dict, List, Tuple

import numpy as np

from repro.core.pipeline import OfflineArtifacts
from repro.core.config import PipelineConfig
from repro.data.workloads import DataScale, suite_for_modality
from repro.nn.batched import FusedSessionGroup
from repro.sched import EpochScheduler, SchedulerConfig
from repro.service import SelectionService
from repro.zoo.finetune import FineTuneConfig, FineTuner
from repro.zoo.hub import ModelHub

#: Required fused/serial round-throughput multiple at S = GROUP_SIZE (full).
REQUIRED_SPEEDUP = 3.0
#: Relaxed smoke floor: at the small data scale one epoch is tens of
#: microseconds of BLAS, so python loop overhead dominates both paths;
#: smoke primarily gates bitwise equality and sanity-checks fusion wins.
SMOKE_SPEEDUP = 1.1
#: Stacked group size of the headline measurement (the acceptance point).
GROUP_SIZE = 8
#: Epochs advanced per timed round.
ROUND_EPOCHS = 8
#: Timed trials; the median decides the gate (single-CPU timings jitter).
TRIALS = 5


def build_sessions(*, smoke: bool, seed: int):
    """``GROUP_SIZE`` same-task sessions (the round executor's hot group)."""
    scale = DataScale.small() if smoke else DataScale.default()
    suite = suite_for_modality("nlp", seed=seed, scale=scale)
    hub = ModelHub(suite, seed=seed)
    task = suite.task(suite.dataset_names[0])
    config = FineTuneConfig(epochs=ROUND_EPOCHS)
    names = hub.model_names[:GROUP_SIZE]

    def fresh():
        tuner = FineTuner(config, seed=seed)
        return [tuner.start_session(hub.get(name), task) for name in names]

    return fresh, task.name, len(names)


def assert_bitwise(fresh) -> None:
    """Fused trajectories must equal serial ones exactly — or we stop."""
    serial = fresh()
    fused = fresh()
    for session in serial:
        session.train_epochs(ROUND_EPOCHS)
    report = FusedSessionGroup(fused).advance(ROUND_EPOCHS)
    if report.delegated:
        raise SystemExit(
            f"FAIL: fused probe diverged from the serial oracle: "
            f"{report.mismatches}"
        )
    for a, b in zip(serial, fused):
        same = (
            a.curve.train_loss == b.curve.train_loss
            and a.curve.val_accuracy == b.curve.val_accuracy
            and a.curve.test_accuracy == b.curve.test_accuracy
            and a.head.history.train_accuracy == b.head.history.train_accuracy
            and all(
                np.array_equal(pa, pb)
                for pa, pb in zip(a.head.net.params(), b.head.net.params())
            )
        )
        if not same:
            raise SystemExit(
                f"FAIL: fused curves diverge from serial for "
                f"{a.curve.model_name}"
            )


def time_rounds(fresh) -> Tuple[float, float]:
    """Median serial and fused wall-clock of one ``ROUND_EPOCHS`` round.

    Runs after :func:`assert_bitwise`, so the fused rounds train under its
    pass verdict and time no probe.
    """
    serial_times: List[float] = []
    fused_times: List[float] = []
    fresh()[0].train_epochs(1)  # warm caches outside the timed region
    for _ in range(TRIALS):
        sessions = fresh()
        t0 = time.perf_counter()
        for _ in range(ROUND_EPOCHS):
            for session in sessions:
                session.train_epochs(1)
        serial_times.append(time.perf_counter() - t0)

        sessions = fresh()
        group = FusedSessionGroup(sessions)
        t0 = time.perf_counter()
        group.advance(ROUND_EPOCHS)
        fused_times.append(time.perf_counter() - t0)
    return statistics.median(serial_times), statistics.median(fused_times)


def eval_micro_gate(fresh) -> Dict[str, float]:
    """Single-pass vs two-pass held-out scoring: bitwise equal, timed."""
    session = fresh()[0]
    session.train_epochs(2)
    single = session.evaluate()
    double = (session.validation_accuracy(), session.test_accuracy())
    if single != double:
        raise SystemExit(
            "FAIL: single-pass evaluate() diverges from the two-pass form"
        )
    repeats = 50
    t0 = time.perf_counter()
    for _ in range(repeats):
        session.evaluate()
    single_seconds = (time.perf_counter() - t0) / repeats
    t0 = time.perf_counter()
    for _ in range(repeats):
        session.validation_accuracy()
        session.test_accuracy()
    double_seconds = (time.perf_counter() - t0) / repeats
    return {
        "single_pass_seconds": single_seconds,
        "two_pass_seconds": double_seconds,
        "eval_speedup": double_seconds / single_seconds
        if single_seconds > 0
        else float("inf"),
    }


def scheduler_pass(*, smoke: bool, seed: int) -> Dict[str, object]:
    """End-to-end: identical answers fused vs not, plus round counters."""
    scale = DataScale.small() if smoke else DataScale.default()
    suite = suite_for_modality("nlp", seed=seed, scale=scale)
    hub = ModelHub(suite, seed=seed)
    if smoke:
        hub = hub.subset(hub.model_names[:10])
    artifacts = OfflineArtifacts.build(
        hub, suite, config=PipelineConfig.for_modality("nlp")
    )
    mix = (list(suite.target_names) or list(suite.dataset_names))[:2]
    oracle = SelectionService(artifacts).inline_scheduler(len(mix))
    requests = {target: oracle.submit(target) for target in set(mix)}
    oracle.run_until_idle()
    expected = {target: oracle.result(request) for target, request in requests.items()}

    def run(fused: bool):
        # Unbounded round budget: each round drains a whole selection
        # stage, so all of a target's candidates sit at the same epoch
        # position — the shape the fused partitioner stacks.
        scheduler = EpochScheduler.for_artifacts(
            artifacts,
            config=SchedulerConfig(
                max_concurrent=len(mix),
                max_queue=len(mix),
                epoch_budget=None,
                fused_training=fused,
            ),
        )
        t0 = time.perf_counter()
        handles = [scheduler.submit(target) for target in mix]
        scheduler.run_until_idle()
        elapsed = time.perf_counter() - t0
        results = [scheduler.result(handle) for handle in handles]
        return elapsed, results, scheduler.stats()["train"]

    fused_elapsed, fused_results, train = run(True)
    plain_elapsed, plain_results, _ = run(False)
    for target, fused_result, plain_result in zip(mix, fused_results, plain_results):
        want = expected[target]
        for got in (fused_result, plain_result):
            if (
                got.selected_model != want.selected_model
                or got.selected_accuracy != want.selected_accuracy
                or got.selection.stages != want.selection.stages
            ):
                raise SystemExit(
                    f"FAIL: scheduled result for {target!r} diverges from "
                    "the library answer"
                )
    return {
        "requests": len(mix),
        "targets": mix,
        "fused_seconds": fused_elapsed,
        "plain_seconds": plain_elapsed,
        "train_counters": train,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced configuration with a relaxed gate")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json-out", default=None, metavar="FILE",
                        help="write the measured record as JSON")
    args = parser.parse_args(argv)

    mode = "smoke" if args.smoke else "full"
    print(f"[bench] fused multi-session training ({mode}), "
          f"S={GROUP_SIZE}, {ROUND_EPOCHS} epochs/round, {TRIALS} trials")
    fresh, task_name, group_size = build_sessions(smoke=args.smoke, seed=args.seed)
    if group_size < GROUP_SIZE:
        raise SystemExit(f"FAIL: hub too small for S={GROUP_SIZE}")

    print("[gate ] bitwise: fused round == serial round ...")
    assert_bitwise(fresh)
    print("        ok (curves, histories and parameters identical)")

    serial_seconds, fused_seconds = time_rounds(fresh)
    speedup = serial_seconds / fused_seconds if fused_seconds > 0 else float("inf")
    required = SMOKE_SPEEDUP if args.smoke else REQUIRED_SPEEDUP

    eval_record = eval_micro_gate(fresh)
    sched_record = scheduler_pass(smoke=args.smoke, seed=args.seed)

    record = {
        "mode": mode,
        "task": task_name,
        "group_size": GROUP_SIZE,
        "round_epochs": ROUND_EPOCHS,
        "trials": TRIALS,
        "serial_round_seconds": serial_seconds,
        "fused_round_seconds": fused_seconds,
        "round_speedup": speedup,
        "required_speedup": required,
        "serial_epochs_per_second": GROUP_SIZE * ROUND_EPOCHS / serial_seconds,
        "fused_epochs_per_second": GROUP_SIZE * ROUND_EPOCHS / fused_seconds,
        "single_pass_eval": eval_record,
        "scheduler": sched_record,
    }

    print(f"  serial round : {serial_seconds * 1e3:8.2f} ms "
          f"({record['serial_epochs_per_second']:8.0f} session-epochs/s)")
    print(f"  fused round  : {fused_seconds * 1e3:8.2f} ms "
          f"({record['fused_epochs_per_second']:8.0f} session-epochs/s, "
          f"{speedup:.2f}x)")
    print(f"  eval         : single-pass {eval_record['single_pass_seconds'] * 1e6:.0f}us "
          f"vs two-pass {eval_record['two_pass_seconds'] * 1e6:.0f}us "
          f"({eval_record['eval_speedup']:.2f}x), bitwise identical")
    counters = sched_record["train_counters"]
    print(f"  scheduler    : {counters['fused_groups']} fused groups, "
          f"{counters['fused_epochs']} fused / {counters['serial_epochs']} serial "
          f"epochs, {counters['delegated_groups']} delegated; results identical")

    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2)
            handle.write("\n")
        print(f"  wrote {args.json_out}")

    if speedup < required:
        print(f"FAIL: fused round speedup {speedup:.2f}x is below the "
              f"required {required:.1f}x at S={GROUP_SIZE}", file=sys.stderr)
        return 1
    print(f"PASS: >= {required:.1f}x fused round throughput at S={GROUP_SIZE} "
          "with bitwise-identical results")
    return 0


if __name__ == "__main__":
    sys.exit(main())
