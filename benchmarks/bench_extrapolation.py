"""Benchmark: curve-extrapolation early stopping vs the exact path.

Measures what speculative pruning buys the scheduler on the PR-5
concurrent-selection mix: the same 8 concurrent requests over overlapping
targets are run twice through an :class:`~repro.sched.scheduler
.EpochScheduler` — once in exact mode, once with ``extrapolate=True`` —
and the aggregate epochs *actually trained* (session-pool accounting, the
resource a host really spends) are compared.

The configuration is the successive-halving ablation
(``use_trend_filter=False``) with a widened recall pool: with the paper's
trend filter enabled, Algorithm 1 already collapses the cohort to one arm
after the first rung, so there is nothing left to speculate about.  The
speculative layer recovers those savings in the ablation configuration
from the *offline* curves alone — retiring arms whose
:class:`~repro.core.extrapolation.CurveBound` ceiling cannot reach the
rung leader's trajectory — while journaling a budget-honesty record
(predicted vs realised regret) for every arm it retires.

Three gates must hold:

1. **Budget**: trained epochs drop by at least the required fraction
   (30% full / 10% smoke) relative to the exact run of the same mix.
2. **Accuracy**: the mean selected test accuracy of the speculative run
   does not fall below the exact run's by more than the noise bound
   (one-sided — a speculative run picking a *better* checkpoint is fine).
3. **Exactness**: the exact scheduled run is bitwise-identical to the
   sequential blocking path (speculation must be strictly opt-in).

Run with::

    PYTHONPATH=src python benchmarks/bench_extrapolation.py
    PYTHONPATH=src python benchmarks/bench_extrapolation.py --smoke
    PYTHONPATH=src python benchmarks/bench_extrapolation.py \
        --json-out benchmarks/bench_extrapolation.json

``--smoke`` runs a reduced configuration (small data scale, truncated
hub) with a relaxed gate — the tier ``make ci`` runs on every change; the
full configuration records the numbers quoted in ``docs/extrapolation.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Tuple

from repro.core.config import PipelineConfig
from repro.core.pipeline import OfflineArtifacts
from repro.core.results import TwoPhaseResult
from repro.data.workloads import DataScale, suite_for_modality
from repro.sched import EpochScheduler, SchedulerConfig
from repro.zoo.hub import ModelHub

#: Required trained-epoch reduction (full run) — the acceptance criterion.
REQUIRED_REDUCTION = 0.30
#: Relaxed smoke gate: the truncated hub leaves fewer dominated arms to
#: retire, so smoke primarily gates that pruning fires and stays honest.
SMOKE_REDUCTION = 0.10
#: Mean selected test accuracy of the speculative run must not fall more
#: than this far below the exact run's (one-sided: beating it is fine).
ACCURACY_NOISE = 0.015
#: Number of concurrent requests (same load point as the PR-5 bench).
NUM_REQUESTS = 8
#: Widened recall pool (full run): speculation earns its keep on the arms
#: the coarse phase recalls beyond the default top-10.
TOP_K = 20
SMOKE_TOP_K = 10


def build_benchmark(*, smoke: bool, seed: int) -> Tuple[OfflineArtifacts, List[str], int]:
    """Artifacts plus the 8-request task mix (ablation configuration)."""
    from dataclasses import replace

    scale = DataScale.small() if smoke else DataScale.default()
    suite = suite_for_modality("nlp", seed=seed, scale=scale)
    hub = ModelHub(suite, seed=seed)
    if smoke:
        hub = hub.subset(hub.model_names[:10])
    config = PipelineConfig.for_modality("nlp")
    # Each path builds its own online engines, so each starts from its own
    # empty proxy-score table.
    config = replace(
        config,
        fine_selection=replace(config.fine_selection, use_trend_filter=False),
    )
    artifacts = OfflineArtifacts.build(hub, suite, config=config)
    distinct = (list(suite.target_names) or list(suite.dataset_names))[:2]
    mix = [distinct[i % len(distinct)] for i in range(NUM_REQUESTS)]
    return artifacts, mix, (SMOKE_TOP_K if smoke else TOP_K)


def run_scheduled(
    artifacts: OfflineArtifacts,
    mix: List[str],
    *,
    seed: int,
    top_k: int,
    extrapolate: bool,
) -> Tuple[float, List[TwoPhaseResult], Dict[str, object]]:
    """One concurrent pass of the mix; exact or speculative."""
    from repro.zoo.finetune import FineTuner

    scheduler = EpochScheduler.for_artifacts(
        artifacts,
        fine_tuner=FineTuner(seed=seed),
        config=SchedulerConfig(
            max_concurrent=NUM_REQUESTS,
            max_queue=NUM_REQUESTS,
            epoch_budget=NUM_REQUESTS,
        ),
    )
    started = time.perf_counter()
    handles = [
        scheduler.submit(target, top_k=top_k, extrapolate=extrapolate)
        for target in mix
    ]
    scheduler.run_until_idle()
    elapsed = time.perf_counter() - started
    results = [scheduler.result(handle) for handle in handles]
    stats = scheduler.stats()
    return elapsed, results, stats


def run_sequential(
    artifacts: OfflineArtifacts, mix: List[str], *, seed: int, top_k: int
) -> List[TwoPhaseResult]:
    """The blocking always-exact baseline the exact scheduled run must match.

    Each request runs alone on a fresh call-scoped scheduler.
    """
    from repro.service import SelectionService
    from repro.zoo.finetune import FineTuner

    service = SelectionService(artifacts, fine_tuner=FineTuner(seed=seed))
    results = []
    for target in mix:
        scheduler = service.inline_scheduler(1)
        request = scheduler.submit(target, top_k=top_k)
        scheduler.run_until_idle()
        results.append(scheduler.result(request))
    return results


def results_identical(a: TwoPhaseResult, b: TwoPhaseResult) -> bool:
    """Bitwise equality of everything a TwoPhaseResult records."""
    return (
        a.selected_model == b.selected_model
        and a.selected_accuracy == b.selected_accuracy
        and a.selection.stages == b.selection.stages
        and a.selection.final_accuracies == b.selection.final_accuracies
        and a.selection.extras == b.selection.extras
        and a.recall.recall_scores == b.recall.recall_scores
        and a.total_cost == b.total_cost
    )


def mean_accuracy(results: List[TwoPhaseResult]) -> float:
    return sum(r.selected_accuracy for r in results) / len(results)


def regret_report(results: List[TwoPhaseResult]) -> Dict[str, object]:
    """Aggregate the budget-honesty extras across the mix's requests."""
    pruned = 0
    epochs_saved = 0.0
    regret_bound = 0.0
    actual_regret = 0.0
    for result in results:
        payload = result.selection.extras.get("extrapolation")
        if not payload:
            continue
        pruned += len(payload["pruned"])
        epochs_saved += float(payload["epochs_saved"])
        regret_bound = max(regret_bound, float(payload["regret_bound"]))
        for record in payload["pruned"].values():
            actual_regret = max(
                actual_regret, float(record.get("actual_regret", 0.0))
            )
    return {
        "arms_pruned": pruned,
        # Sum of full-budget epochs the pruned arms can no longer be
        # charged — an upper bound on realised savings (halving might
        # have retired some of them earlier anyway).
        "epochs_saved_bound": epochs_saved,
        "max_regret_bound": regret_bound,
        "max_actual_regret": actual_regret,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced configuration with a relaxed gate")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json-out", default=None, metavar="FILE",
                        help="write the measured record as JSON")
    args = parser.parse_args(argv)

    print(f"[offline] building artifacts ({'smoke' if args.smoke else 'full'}) ...")
    artifacts, mix, top_k = build_benchmark(smoke=args.smoke, seed=args.seed)
    print(f"[bench] {NUM_REQUESTS} requests over targets {sorted(set(mix))} "
          f"({len(artifacts.hub)} models, top_k={top_k}, trend filter off)")

    seq_results = run_sequential(artifacts, mix, seed=args.seed, top_k=top_k)
    _, exact_results, exact_stats = run_scheduled(
        artifacts, mix, seed=args.seed, top_k=top_k, extrapolate=False
    )
    _, spec_results, spec_stats = run_scheduled(
        artifacts, mix, seed=args.seed, top_k=top_k, extrapolate=True
    )

    exact_trained = exact_stats["session_pool"]["epochs_trained"]
    spec_trained = spec_stats["session_pool"]["epochs_trained"]
    reduction = 1.0 - spec_trained / exact_trained if exact_trained else 0.0
    exact_charged = sum(r.selection.runtime_epochs for r in exact_results)
    spec_charged = sum(r.selection.runtime_epochs for r in spec_results)
    exact_acc = mean_accuracy(exact_results)
    spec_acc = mean_accuracy(spec_results)
    accuracy_delta = exact_acc - spec_acc  # positive = speculative regret
    identical = all(
        results_identical(a, b) for a, b in zip(seq_results, exact_results)
    )
    honesty = regret_report(spec_results)
    required = SMOKE_REDUCTION if args.smoke else REQUIRED_REDUCTION

    record = {
        "mode": "smoke" if args.smoke else "full",
        "num_requests": NUM_REQUESTS,
        "targets": mix,
        "top_k": top_k,
        "num_models": len(artifacts.hub),
        "exact_trained_epochs": exact_trained,
        "speculative_trained_epochs": spec_trained,
        "trained_reduction": reduction,
        "required_reduction": required,
        "exact_charged_epochs": exact_charged,
        "speculative_charged_epochs": spec_charged,
        "exact_mean_accuracy": exact_acc,
        "speculative_mean_accuracy": spec_acc,
        "accuracy_delta": accuracy_delta,
        "accuracy_noise": ACCURACY_NOISE,
        "exact_matches_sequential": identical,
        "arms_pruned": spec_stats["arms_pruned"],
        **honesty,
    }

    print(f"  trained    : exact {exact_trained} epochs -> speculative "
          f"{spec_trained} epochs  ({reduction:.1%} reduction)")
    print(f"  charged    : exact {exact_charged:.0f} -> speculative "
          f"{spec_charged:.0f} epoch-equivalents")
    print(f"  accuracy   : exact {exact_acc:.4f} vs speculative {spec_acc:.4f} "
          f"(regret {accuracy_delta:+.4f})")
    print(f"  honesty    : {honesty['arms_pruned']} arms pruned "
          f"({exact_charged - spec_charged:.0f} charged epochs measured, "
          f"{honesty['epochs_saved_bound']:.0f} bound), regret bound "
          f"{honesty['max_regret_bound']:.4f}, realised "
          f"{honesty['max_actual_regret']:.4f}")
    print(f"  exact == sequential: {identical}")

    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2)
            handle.write("\n")
        print(f"  wrote {args.json_out}")

    failed = False
    if not identical:
        print("FAIL: exact scheduled results diverge from the sequential path",
              file=sys.stderr)
        failed = True
    if reduction < required:
        print(f"FAIL: trained-epoch reduction {reduction:.1%} is below the "
              f"required {required:.0%}", file=sys.stderr)
        failed = True
    if accuracy_delta > ACCURACY_NOISE:
        print(f"FAIL: speculative accuracy regret {accuracy_delta:.4f} "
              f"exceeds the noise bound {ACCURACY_NOISE}", file=sys.stderr)
        failed = True
    if honesty["arms_pruned"] == 0:
        print("FAIL: speculative run pruned nothing", file=sys.stderr)
        failed = True
    if failed:
        return 1
    print(f"PASS: >= {required:.0%} trained-epoch reduction, accuracy within "
          f"noise, exact path bitwise-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
