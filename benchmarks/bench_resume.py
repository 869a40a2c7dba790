"""Benchmark: crash-resume epoch accounting under the persisted plan store.

Measures what the persistence tier buys a crashed server: a selection
request killed mid-flight is resumed from its plan journal and session
snapshots, so the epochs already paid for are *replayed* (charged to the
request's accounting, served from snapshots) instead of trained a second
time.  The script runs three phases against one on-disk
:class:`~repro.persist.store.PlanStore` and gates their accounting:

1. **Crash + resume** — kill at the middle step boundary, restart, resume.
   Gate: the resumed result is bitwise-identical to a never-crashed run,
   every journaled epoch is replayed, and replayed epochs are never
   retrained (`epochs_reused >= epochs_replayed`).
2. **Result fast path** — resubmit the finished request from a third
   process lifetime.  Gate: zero epochs trained.
3. **Budget raise** — resubmit with a doubled epoch budget.  Gate: actual
   training is bounded by the budget delta (old rungs replay for free).

Run with::

    PYTHONPATH=src python benchmarks/bench_resume.py
    PYTHONPATH=src python benchmarks/bench_resume.py --smoke
    PYTHONPATH=src python benchmarks/bench_resume.py \
        --json-out benchmarks/bench_resume.json

``--smoke`` truncates the hub further for the fastest possible CI signal;
both configurations gate the same invariants (they are exact accounting
identities, not throughput thresholds, so no relaxation is needed).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import tempfile
import time
from typing import Dict

from repro.core.pipeline import OfflineArtifacts
from repro.data.workloads import DataScale, suite_for_modality
from repro.persist import PlanStore, SimulatedCrash, install_hook, remove_hook
from repro.sched import EpochScheduler
from repro.service import SelectionService
from repro.zoo.hub import ModelHub

TARGET, TOP_K = "mnli", 5


def build_artifacts(*, smoke: bool, seed: int) -> OfflineArtifacts:
    suite = suite_for_modality("nlp", seed=seed, scale=DataScale.small())
    hub = ModelHub(suite, seed=seed)
    hub = hub.subset(hub.model_names[: 8 if smoke else 16])
    return OfflineArtifacts.build(hub, suite)


def results_equal(a, b) -> bool:
    return (
        a.selected_model == b.selected_model
        and a.selection.stages == b.selection.stages
        and a.selection.final_accuracies == b.selection.final_accuracies
        and a.recall.recall_scores == b.recall.recall_scores
        and a.total_cost == b.total_cost
    )


def select_alone(artifacts: OfflineArtifacts):
    """The uncrashed answer: one request on a fresh call-scoped scheduler."""
    scheduler = SelectionService(artifacts).inline_scheduler(1)
    request = scheduler.submit(TARGET, top_k=TOP_K)
    scheduler.run_until_idle()
    return scheduler.result(request)


def crash_at_step(scheduler: EpochScheduler, ordinal: int) -> None:
    hits = {"n": 0}

    def _hook(site, _info):
        hits["n"] += 1
        if hits["n"] == ordinal:
            raise SimulatedCrash(f"{site}#{ordinal}")

    install_hook("plan.step", _hook)
    try:
        scheduler.run_until_idle()
        raise RuntimeError("expected the armed crash point to fire")
    except SimulatedCrash:
        pass
    finally:
        remove_hook("plan.step")


def run(*, smoke: bool, seed: int) -> Dict[str, object]:
    artifacts = build_artifacts(smoke=smoke, seed=seed)
    oracle = select_alone(artifacts)
    store_dir = tempfile.mkdtemp(prefix="bench-resume-")
    record: Dict[str, object] = {
        "config": "smoke" if smoke else "full",
        "num_models": len(artifacts.hub),
        "target": TARGET,
        "top_k": TOP_K,
        "gates": {},
    }

    # Phase 1: crash at the middle step boundary, then resume.
    s1 = EpochScheduler.for_artifacts(artifacts, persist=PlanStore(store_dir))
    s1.submit(TARGET, top_k=TOP_K)
    total_steps = int(oracle.selection.runtime_epochs)
    crash_at_step(s1, max(2, total_steps // 2))

    started = time.perf_counter()
    s2 = EpochScheduler.for_artifacts(artifacts, persist=PlanStore(store_dir))
    recovered = s2.recover()
    s2.run_until_idle()
    resumed = s2.result(recovered[0], timeout=30)
    resume_seconds = time.perf_counter() - started
    stats = s2.stats()
    replayed = stats["persist"]["epochs_replayed"]
    pool = stats["session_pool"]
    record["resume"] = {
        "seconds": resume_seconds,
        "epochs_charged": resumed.selection.runtime_epochs,
        "epochs_replayed": replayed,
        "epochs_trained": pool["epochs_trained"],
        "epochs_reused": pool["epochs_reused"],
        "sessions_restored": pool["restored"],
    }
    record["gates"]["resume_bitwise_identical"] = results_equal(resumed, oracle)
    record["gates"]["journaled_epochs_replayed"] = replayed >= 1
    record["gates"]["replayed_epochs_not_retrained"] = (
        pool["epochs_reused"] >= replayed
        and pool["epochs_trained"] + pool["epochs_reused"]
        == resumed.selection.runtime_epochs
    )

    # Phase 2: a finished request served purely from its journaled result.
    s3 = EpochScheduler.for_artifacts(artifacts, persist=PlanStore(store_dir))
    r3 = s3.submit(TARGET, top_k=TOP_K)
    s3.run_until_idle()
    fast = s3.result(r3, timeout=30)
    fast_pool = s3.stats()["session_pool"]
    record["fast_path"] = {
        "results_restored": s3.stats()["persist"]["results_restored"],
        "epochs_trained": fast_pool["epochs_trained"],
    }
    record["gates"]["result_fast_path_trains_nothing"] = (
        results_equal(fast, oracle) and fast_pool["epochs_trained"] == 0
    )

    # Phase 3: raise the budget; only the delta may be trained.
    base_budget = artifacts.config.fine_selection.total_epochs
    raised_budget = base_budget * 2
    raised_artifacts = dataclasses.replace(
        artifacts,
        config=dataclasses.replace(
            artifacts.config,
            fine_selection=dataclasses.replace(
                artifacts.config.fine_selection, total_epochs=raised_budget
            ),
        ),
    )
    raised_oracle = select_alone(raised_artifacts)
    s4 = EpochScheduler.for_artifacts(artifacts, persist=PlanStore(store_dir))
    r4 = s4.submit(TARGET, top_k=TOP_K, total_epochs=raised_budget)
    s4.run_until_idle()
    raised = s4.result(r4, timeout=30)
    raised_pool = s4.stats()["session_pool"]
    delta = raised.selection.runtime_epochs - oracle.selection.runtime_epochs
    record["budget_raise"] = {
        "base_budget": base_budget,
        "raised_budget": raised_budget,
        "epochs_charged": raised.selection.runtime_epochs,
        "epochs_replayed": s4.stats()["persist"]["epochs_replayed"],
        "epochs_trained": raised_pool["epochs_trained"],
        "budget_delta": delta,
    }
    record["gates"]["raise_matches_serial_at_raised_budget"] = results_equal(
        raised, raised_oracle
    )
    record["gates"]["raise_trains_at_most_the_delta"] = (
        raised_pool["epochs_trained"] <= delta
    )
    record["passed"] = all(record["gates"].values())
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="reduced hub for the fastest CI signal")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json-out", default=None, metavar="PATH",
                        help="write the JSON record to PATH")
    args = parser.parse_args(argv)

    record = run(smoke=args.smoke, seed=args.seed)
    print(json.dumps(record, indent=2))
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2)
            handle.write("\n")
    if not record["passed"]:
        failed = [name for name, ok in record["gates"].items() if not ok]
        print(f"FAILED gates: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
