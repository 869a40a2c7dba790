"""Integration tests for the long-lived SelectionService."""

import threading
from dataclasses import replace

import pytest

from repro.core.extrapolation import ExtrapolationConfig
from repro.core.pipeline import OfflineArtifacts
from repro.core.results import TwoPhaseResult
from repro.sched.config import SchedulerConfig
from repro.service import SelectionService
from repro.utils.exceptions import ConfigurationError


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
    return SelectionService(nlp_artifacts)


class TestSelectionService:
    def test_select_returns_two_phase_result(self, service):
        result = service.select("mnli")
        assert isinstance(result, TwoPhaseResult)
        assert result.target_name == "mnli"
        assert result.selected_model in service.artifacts.hub.model_names

    def test_select_matches_bare_selector(self, service, nlp_artifacts):
        from repro.core.pipeline import TwoPhaseSelector

        direct = TwoPhaseSelector(nlp_artifacts).select("mnli")
        served = service.select("mnli")
        assert served.selected_model == direct.selected_model
        assert served.total_cost == direct.total_cost

    def test_select_many(self, service, nlp_suite_small):
        report = service.select_many(nlp_suite_small.target_names)
        assert report.target_names == list(nlp_suite_small.target_names)

    def test_recall_only(self, service):
        result = service.recall("boolq", top_k=3)
        assert len(result.recalled_models) == 3

    def test_target_names(self, service, nlp_suite_small):
        assert service.target_names == list(nlp_suite_small.target_names)

    def test_cluster_summary(self, service):
        summary = service.cluster_summary()
        assert summary["num_models"] == len(service.artifacts.hub)

    def test_stats_accounting(self, nlp_artifacts):
        fresh = SelectionService(nlp_artifacts)
        before = fresh.stats()
        assert before["requests"] == 0 and before["targets_served"] == 0
        result = fresh.select("mnli")
        report = fresh.select_many(["boolq"])
        stats = fresh.stats()
        assert stats["requests"] == 2
        assert stats["targets_served"] == 2
        expected = result.total_cost + report.totals()["total_cost"]
        assert stats["total_epoch_cost"] == pytest.approx(expected)
        assert stats["num_models"] == len(nlp_artifacts.hub)
        assert stats["uptime_seconds"] >= 0
        assert "memory" in stats["cache"]

    def test_concurrent_requests_are_consistent(self, nlp_artifacts, nlp_suite_small):
        shared = SelectionService(nlp_artifacts)
        reference = {
            name: shared.select(name).selected_model
            for name in nlp_suite_small.target_names
        }
        results = {}
        errors = []

        def worker(name):
            try:
                results[name] = shared.select(name).selected_model
            except Exception as error:  # pragma: no cover - failure detail
                errors.append((name, error))

        threads = [
            threading.Thread(target=worker, args=(name,))
            for name in nlp_suite_small.target_names
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert results == reference
        assert shared.stats()["requests"] == 2 * len(nlp_suite_small.target_names)


class TestScheduledRequests:
    """The submit/poll/result path over the service's epoch scheduler."""

    def test_submit_result_matches_select(self, nlp_artifacts):
        service = SelectionService(nlp_artifacts)
        try:
            direct = service.select("mnli")
            handle = service.submit("mnli")
            scheduled = service.result(handle, timeout=120)
            assert scheduled.selected_model == direct.selected_model
            assert scheduled.selection.stages == direct.selection.stages
            assert scheduled.total_cost == direct.total_cost
        finally:
            service.close()

    def test_poll_streams_progress(self, nlp_artifacts):
        service = SelectionService(nlp_artifacts)
        try:
            handle = service.submit("boolq")
            service.result(handle, timeout=120)
            snapshot = service.poll(handle)
            assert snapshot["state"] == "done"
            assert snapshot["progress"]["stages_completed"]
        finally:
            service.close()

    def test_submit_accounts_like_select(self, nlp_artifacts):
        service = SelectionService(nlp_artifacts)
        try:
            handle = service.submit("mnli")
            result = service.result(handle, timeout=120)
            stats = service.stats()
            assert stats["requests"] == 1
            assert stats["targets_served"] == 1
            assert stats["total_epoch_cost"] == pytest.approx(result.total_cost)
            assert stats["scheduler"]["completed"] == 1
            assert stats["scheduler"]["session_pool"]["misses"] > 0
        finally:
            service.close()

    def test_concurrent_submissions_reuse_sessions(self, nlp_artifacts):
        from repro.sched.config import SchedulerConfig

        service = SelectionService(
            nlp_artifacts,
            scheduler=SchedulerConfig(max_concurrent=4, epoch_budget=4),
        )
        try:
            handles = [service.submit("mnli") for _ in range(3)]
            results = [service.result(h, timeout=120) for h in handles]
            assert len({r.selected_model for r in results}) == 1
            pool = service.stats()["scheduler"]["session_pool"]
            assert pool["epochs_reused"] == 2 * pool["epochs_trained"]
        finally:
            service.close()

    def test_stats_before_first_submit_has_no_scheduler(self, nlp_artifacts):
        service = SelectionService(nlp_artifacts)
        assert service.stats()["scheduler"] is None


class TestEveryCallOnTheScheduler:
    """select/select_many are requests on the service's one scheduler, so the
    scheduler config, the plan store and the speculative default reach them."""

    def test_no_fused_training_reaches_select(self, nlp_artifacts):
        unfused = SelectionService(
            nlp_artifacts, scheduler=SchedulerConfig(fused_training=False)
        )
        default = SelectionService(nlp_artifacts)
        try:
            assert unfused.select("mnli") == default.select("mnli")
            assert unfused.stats()["scheduler"]["train"]["fused_epochs"] == 0
            assert default.stats()["scheduler"]["train"]["fused_epochs"] > 0
        finally:
            unfused.close()
            default.close()

    def test_speculative_default_reaches_select(
        self, nlp_hub_small, nlp_suite_small, test_pipeline_config, fine_tuner
    ):
        # Without the trend filter, top-20 cohorts leave arms for the
        # extrapolation bound to prune (as in bench_extrapolation).
        config = replace(
            test_pipeline_config,
            fine_selection=replace(
                test_pipeline_config.fine_selection, use_trend_filter=False
            ),
        )
        artifacts = OfflineArtifacts.build(
            nlp_hub_small, nlp_suite_small, config=config, fine_tuner=fine_tuner
        )
        speculative = ExtrapolationConfig(enabled=True)
        selecting = SelectionService(artifacts, extrapolation=speculative)
        submitting = SelectionService(artifacts, extrapolation=speculative)
        try:
            selected = selecting.select("mnli", top_k=20)
            submitted = submitting.result(submitting.submit("mnli", top_k=20))
            assert selected == submitted
            assert selected.selection.extras["extrapolation"]["pruned"]
        finally:
            selecting.close()
            submitting.close()

    def test_store_dir_reaches_select(self, nlp_artifacts, tmp_path):
        first = SelectionService(nlp_artifacts, store_dir=str(tmp_path))
        try:
            answer = first.select("mnli")
        finally:
            first.close()
        second = SelectionService(nlp_artifacts, store_dir=str(tmp_path))
        try:
            assert second.select("mnli") == answer
            assert second.stats()["scheduler"]["persist"]["results_restored"] == 1
        finally:
            second.close()

    def test_select_many_accounts_each_request_once(self, nlp_artifacts):
        service = SelectionService(nlp_artifacts)
        try:
            report = service.select_many(["mnli", "boolq"])
            stats = service.stats()
            assert stats["requests"] == stats["targets_served"] == 2
            assert stats["scheduler"]["completed"] == 2
            assert stats["total_epoch_cost"] == pytest.approx(
                report.totals()["total_cost"]
            )
        finally:
            service.close()


class TestStatsRefreshAtomicity:
    """Regression: stats() snapshots counters and zoo_version coherently.

    A refresh swaps the served artifacts, bumps the refresh counter and
    (with a scheduler running) rolls the session-pool version in one
    critical section; a concurrent ``stats()`` must never observe the new
    ``zoo_version`` paired with the old counters or vice versa.  The zoo
    epoch increments exactly once per refresh, so the invariant
    ``zoo_version.epoch == refreshes`` must hold in *every* snapshot.
    """

    def test_stats_never_tear_across_refresh(
        self, nlp_hub_small, nlp_suite_small, test_pipeline_config, fine_tuner
    ):
        artifacts = OfflineArtifacts.build(
            nlp_hub_small.subset(nlp_hub_small.model_names[:8]),
            nlp_suite_small,
            config=test_pipeline_config,
            fine_tuner=fine_tuner,
        )
        service = SelectionService(artifacts)
        spare = [
            name
            for name in nlp_hub_small.model_names
            if name not in artifacts.hub.model_names
        ][0]
        stop = threading.Event()
        torn = []

        def observer():
            while not stop.is_set():
                stats = service.stats()
                epoch = int(stats["zoo_version"].split("-")[0].lstrip("v"))
                if epoch != stats["refreshes"]:
                    torn.append(stats)

        thread = threading.Thread(target=observer)
        thread.start()
        try:
            for _ in range(2):
                service.refresh(added=[spare])
                service.refresh(removed=[spare])
        finally:
            stop.set()
            thread.join()
        assert not torn, f"stats() tore a refresh snapshot: {torn[0]}"
        assert service.stats()["refreshes"] == 4

    def test_refresh_evicts_old_version_sessions(self, nlp_artifacts):
        service = SelectionService(nlp_artifacts)
        try:
            service.result(service.submit("mnli"), timeout=120)
            before = service.stats()["scheduler"]["session_pool"]["sessions"]
            assert before > 0
            removed = service.artifacts.hub.model_names[-1]
            service.refresh(removed=[removed])
            after = service.stats()["scheduler"]["session_pool"]["sessions"]
            assert after == 0  # old-version sessions were swept
        finally:
            service.close()


class TestFromModality:
    def test_from_modality_small(self):
        service = SelectionService.from_modality("nlp", scale="small", num_models=8)
        assert len(service.artifacts.hub) == 8
        result = service.select(service.target_names[0], top_k=3)
        assert result.selected_model in service.artifacts.hub.model_names

    def test_invalid_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            SelectionService.from_modality("nlp", scale="huge")
