"""Golden regression of the speculative early-stopping honesty report.

``golden/extrapolation_regret.json`` snapshots, on the seeded 12-model CV
zoo, exactly what the budget-honesty layer records when curve-extrapolation
pruning is enabled: which arms were retired, the predicted-vs-realized
regret of every retirement, the epochs-saved bound, and the winner of both
the exact and the speculative run.  Any drift in the bound math, the prune
bar, or the trend miner changes these numbers and fails loudly.

Two gates ride along:

* the *exact* scheduled run must keep selecting the model the blocking
  serial path selects (speculation is strictly opt-in), and
* the default-mode Table VI selection (paper configuration, no ablation)
  must still match its own golden snapshot ``golden/table6_end_to_end.json``
  — the end-to-end proof that this subsystem changed nothing it did not
  explicitly opt into.  (``test_golden_regression.py`` re-derives that
  snapshot from scratch; here we only cross-check the selected model.)

To regenerate after an *intentional* change::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/experiments/test_golden_extrapolation.py
"""

import dataclasses
import json
import os
import pathlib

import numpy as np
import pytest
from oracles import serial_select

from repro.core.pipeline import OfflineArtifacts
from repro.experiments.context import ExperimentContext
from repro.sched import EpochScheduler, SchedulerConfig
from repro.zoo.finetune import FineTuner

pytestmark = [pytest.mark.golden, pytest.mark.extrapolation]

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
UPDATE = os.environ.get("REPRO_UPDATE_GOLDEN", "") == "1"

#: Request shapes the snapshot covers (CV targets of the reduced zoo).
TARGETS = ("beans", "chest_xray_classification")
TOP_K = 8


@pytest.fixture(scope="module")
def context():
    """The seeded zoo the snapshots were taken on (reduced CV repository)."""
    return ExperimentContext(modality="cv", scale="small", num_models=12)


@pytest.fixture(scope="module")
def spec_artifacts(context):
    """Halving-ablation artifacts (trend filter off) over the cached zoo.

    With the paper's trend filter on, Algorithm 1 collapses the cohort to
    one arm after the first rung and speculation has nothing to retire —
    the same ablation the benchmark and the property tier use.
    """
    config = context.config
    config = dataclasses.replace(
        config,
        fine_selection=dataclasses.replace(
            config.fine_selection, use_trend_filter=False
        ),
    )
    return OfflineArtifacts(
        hub=context.hub,
        suite=context.suite,
        matrix=context.matrix,
        clustering=context.clustering,
        config=config,
    )


def _normalize(obj):
    """JSON-stable form: floats as repr strings (exact round-trip), NaN safe."""
    if isinstance(obj, dict):
        return {str(key): _normalize(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_normalize(value) for value in obj]
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        return "NaN" if value != value else repr(value)
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    return obj


def run_scheduled(artifacts, target, *, extrapolate):
    scheduler = EpochScheduler.for_artifacts(
        artifacts,
        fine_tuner=FineTuner(seed=0),
        config=SchedulerConfig(max_concurrent=1, max_queue=1),
    )
    handle = scheduler.submit(target, top_k=TOP_K, extrapolate=extrapolate)
    scheduler.run_until_idle()
    return scheduler.result(handle)


class TestGoldenExtrapolationRegret:
    def test_regret_report_matches_golden(self, context, spec_artifacts):
        records = {}
        for target in TARGETS:
            serial = serial_select(spec_artifacts, target, top_k=TOP_K)
            exact = run_scheduled(spec_artifacts, target, extrapolate=False)
            speculative = run_scheduled(spec_artifacts, target, extrapolate=True)

            # Gate: exact scheduled == serial blocking path, bitwise.
            assert exact.selected_model == serial.selected_model
            assert exact.selected_accuracy == serial.selected_accuracy
            assert exact.selection.stages == serial.selection.stages
            assert exact.selection.extras == serial.selection.extras

            records[target] = {
                "top_k": TOP_K,
                "exact": {
                    "selected_model": exact.selected_model,
                    "selected_accuracy": exact.selected_accuracy,
                    "selected_val_accuracy": exact.selection.selected_val_accuracy,
                    "runtime_epochs": exact.selection.runtime_epochs,
                },
                "speculative": {
                    "selected_model": speculative.selected_model,
                    "selected_accuracy": speculative.selected_accuracy,
                    "selected_val_accuracy": (
                        speculative.selection.selected_val_accuracy
                    ),
                    "runtime_epochs": speculative.selection.runtime_epochs,
                    "extras": speculative.selection.extras.get(
                        "extrapolation", {}
                    ),
                },
            }
            # The snapshot must exercise the honesty layer, not record a
            # vacuous no-prune run.
            assert records[target]["speculative"]["extras"].get("pruned")

        payload = _normalize(records)
        path = GOLDEN_DIR / "extrapolation_regret.json"
        if UPDATE:
            path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        assert path.exists(), (
            f"golden snapshot {path} is missing; regenerate it with "
            "REPRO_UPDATE_GOLDEN=1 and commit it"
        )
        golden = json.loads(path.read_text())
        assert payload == golden, (
            "extrapolation regret drifted from its golden snapshot. If the "
            "change is intentional, regenerate with REPRO_UPDATE_GOLDEN=1 "
            "and commit the refreshed snapshot alongside the code change."
        )

    def test_default_mode_table6_selection_unchanged(self, context):
        """Paper-default configuration (trend filter on, no speculation):
        the end-to-end selection still matches the Table VI golden."""
        table6 = json.loads(
            (GOLDEN_DIR / "table6_end_to_end.json").read_text()
        )
        row = next(r for r in table6 if r["target"] == "beans")
        result = context.selector.select("beans", top_k=5)
        assert result.selected_model == row["model_2ph"]
        assert repr(float(result.selected_accuracy)) == row["acc_2ph"]
        assert repr(float(result.total_cost)) == row["runtime_2ph"]
        assert "extrapolation" not in result.selection.extras
