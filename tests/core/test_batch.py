"""Tests for batched multi-task selection (``SelectionService.select_many``)."""

import pytest

from oracles import serial_select
from repro.core.batch import BatchSelectionReport
from repro.core.pipeline import OfflineArtifacts
from repro.core.results import aggregate_epoch_accounting
from repro.service import SelectionService
from repro.utils.exceptions import SelectionError


@pytest.fixture(scope="module")
def nlp_artifacts(nlp_hub_small, nlp_suite_small, test_pipeline_config, fine_tuner):
    return OfflineArtifacts.build(
        nlp_hub_small,
        nlp_suite_small,
        config=test_pipeline_config,
        fine_tuner=fine_tuner,
    )


@pytest.fixture(scope="module")
def service(nlp_artifacts):
    service = SelectionService(nlp_artifacts)
    yield service
    service.close()


@pytest.fixture(scope="module")
def batch_report(service, nlp_suite_small):
    return service.select_many(nlp_suite_small.target_names)


class TestBatchedSelectionRunner:
    """The batch entry point: every target a request on one scheduler."""

    def test_one_result_per_target_in_order(self, batch_report, nlp_suite_small):
        assert batch_report.target_names == list(nlp_suite_small.target_names)
        for name in nlp_suite_small.target_names:
            result = batch_report.result_for(name)
            assert result.target_name == name
            assert result.selected_model in result.recall.recalled_models

    def test_matches_single_task_selector(self, nlp_artifacts, batch_report):
        for name in batch_report.target_names:
            single = serial_select(nlp_artifacts, name)
            batched = batch_report.result_for(name)
            assert single.selected_model == batched.selected_model
            assert single.selection.runtime_epochs == batched.selection.runtime_epochs
            assert single.recall.epoch_cost == batched.recall.epoch_cost
            assert single.total_cost == batched.total_cost

    def test_epoch_accounting_lands_on_selection_records(self, batch_report):
        for result in batch_report.results.values():
            assert result.selection.extra_epoch_cost == result.recall.epoch_cost
            assert result.selection.total_cost == (
                result.selection.runtime_epochs + result.recall.epoch_cost
            )

    def test_totals_sum_per_task_records(self, batch_report):
        totals = batch_report.totals()
        selections = batch_report.selection_results()
        assert totals["num_tasks"] == len(selections)
        assert totals["runtime_epochs"] == sum(s.runtime_epochs for s in selections)
        assert totals["extra_epoch_cost"] == sum(s.extra_epoch_cost for s in selections)
        assert totals["total_cost"] == pytest.approx(
            totals["runtime_epochs"] + totals["extra_epoch_cost"]
        )

    def test_summary_includes_mean_accuracy(self, batch_report):
        summary = batch_report.summary()
        accuracies = [r.selected_accuracy for r in batch_report.results.values()]
        assert summary["mean_selected_accuracy"] == pytest.approx(
            sum(accuracies) / len(accuracies)
        )

    def test_accepts_task_objects_and_top_k(self, service, nlp_suite_small):
        task = nlp_suite_small.task("mnli")
        report = service.select_many([task], top_k=3)
        assert report.target_names == ["mnli"]
        assert len(report.result_for("mnli").recall.recalled_models) == 3

    def test_rejects_empty_batch(self, service):
        with pytest.raises(SelectionError):
            service.select_many([])

    def test_rejects_duplicate_targets(self, service):
        with pytest.raises(SelectionError, match="duplicate"):
            service.select_many(["mnli", "mnli"])

    def test_rejects_unknown_target(self, service):
        with pytest.raises(SelectionError, match="unknown target"):
            service.select_many(["no-such-dataset"])

    def test_report_rejects_unknown_target(self, batch_report):
        with pytest.raises(SelectionError):
            batch_report.result_for("no-such-dataset")

    def test_from_hub_builds_offline_artifacts(
        self, nlp_hub_small, nlp_suite_small, test_pipeline_config
    ):
        service = SelectionService.from_hub(
            nlp_hub_small, nlp_suite_small, config=test_pipeline_config
        )
        try:
            report = service.select_many(["boolq"])
        finally:
            service.close()
        assert set(report.selected_models()) == {"boolq"}


class TestSelectionServiceSelectMany:
    def test_select_many_matches_batch_runner(self, service, nlp_suite_small):
        report = service.select_many(nlp_suite_small.target_names)
        assert isinstance(report, BatchSelectionReport)
        for name in nlp_suite_small.target_names:
            assert report.result_for(name).selected_model == service.select(
                name
            ).selected_model


class TestAggregateEpochAccounting:
    def test_empty_iterable(self):
        totals = aggregate_epoch_accounting([])
        assert totals == {
            "num_tasks": 0.0,
            "runtime_epochs": 0.0,
            "extra_epoch_cost": 0.0,
            "total_cost": 0.0,
        }
