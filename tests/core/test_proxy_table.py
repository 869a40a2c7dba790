"""The per-engine proxy-score table: scored once, bitwise equal to re-scoring.

``CoarseRecall`` keeps every raw proxy score in one dict keyed by
``(representative, train-split task fingerprint, max_proxy_samples)``; the
selector, its scheduler and the service's per-request contexts share the
engine and so the table, and a zoo refresh builds new engines and so starts
a new table.
"""

import sys
import threading
from dataclasses import replace

import pytest

import repro.metrics.registry as registry
from repro.cache import fingerprint_task
from repro.core.config import ClusteringConfig, RecallConfig
from repro.core.model_clustering import ModelClusterer
from repro.core.pipeline import OfflineArtifacts
from repro.core.recall import CoarseRecall
from repro.metrics.leep import LeepScorer
from repro.metrics.registry import get_scorer, register_scorer
from repro.sched import EpochScheduler, SchedulerConfig
from repro.service import SelectionService


class _CountingLeep(LeepScorer):
    """LEEP that records the model of every score it computes."""

    calls = []

    def score(self, model, task, **kwargs):
        _CountingLeep.calls.append(model.name)
        return super().score(model, task, **kwargs)


class _RaisingLeep(LeepScorer):
    """LEEP that fails on one model, after scoring the others."""

    fail_on = None

    def score(self, model, task, **kwargs):
        if model.name == _RaisingLeep.fail_on:
            raise RuntimeError("scorer failed")
        return super().score(model, task, **kwargs)


@pytest.fixture
def scorers(monkeypatch):
    """Register the test scorers in a registry restored after the test."""
    monkeypatch.setattr(registry, "_FACTORIES", dict(registry._FACTORIES))
    register_scorer("counting-leep", _CountingLeep)
    register_scorer("raising-leep", _RaisingLeep)
    _CountingLeep.calls = []
    return _CountingLeep.calls


def make_recall(hub, matrix, clustering, **config):
    return CoarseRecall(hub, matrix, clustering, config=RecallConfig(**config))


def representatives(recall):
    return sorted(set(recall._representatives().values()))


@pytest.fixture(scope="module")
def counting_artifacts(
    nlp_hub_small, nlp_suite_small, test_pipeline_config, fine_tuner
):
    config = replace(
        test_pipeline_config,
        recall=replace(test_pipeline_config.recall, proxy_score="counting-leep"),
    )
    return OfflineArtifacts.build(
        nlp_hub_small, nlp_suite_small, config=config, fine_tuner=fine_tuner
    )


class TestLookup:
    @pytest.mark.parametrize("modality", ["nlp", "cv"])
    def test_every_lookup_equals_a_fresh_score(self, request, modality):
        suite = request.getfixturevalue(f"{modality}_suite_small")
        hub = request.getfixturevalue(f"{modality}_hub_small")
        matrix = request.getfixturevalue(f"{modality}_matrix_small")
        clustering = ModelClusterer(ClusteringConfig()).cluster(
            matrix, model_cards=hub.model_cards()
        )
        tasks = [suite.task(name) for name in suite.target_names]
        max_samples = min(len(task.train) for task in tasks) // 2
        recall = make_recall(hub, matrix, clustering, max_proxy_samples=max_samples)
        names = representatives(recall)
        for task in tasks:
            got = recall.recall(task).raw_proxy_scores
            assert list(got) == names
            for name in names:
                fresh = get_scorer("leep", deterministic=True).score(
                    hub.get(name), task, max_samples=max_samples
                )
                assert got[name] == fresh
                assert recall._proxy_scores[
                    (name, fingerprint_task(task), max_samples)
                ] == fresh
            # Subsampling is active: the full-data score differs somewhere.
            assert any(
                got[name]
                != get_scorer("leep").score(hub.get(name), task, max_samples=None)
                for name in names
            )
            assert recall.recall(task).raw_proxy_scores == got
        assert len(recall._proxy_scores) == len(names) * len(tasks)

    def test_concurrent_fills_agree(
        self, nlp_hub_small, nlp_matrix_small, nlp_clustering_small, nlp_suite_small
    ):
        tasks = [nlp_suite_small.task(name) for name in nlp_suite_small.target_names]
        want = {
            task.name: make_recall(
                nlp_hub_small, nlp_matrix_small, nlp_clustering_small
            ).recall(task)
            for task in tasks
        }
        recall = make_recall(nlp_hub_small, nlp_matrix_small, nlp_clustering_small)
        barrier = threading.Barrier(6)
        seen = []

        def fill(index):
            # Threads 0-2 all start on the first target, 3-5 on the second.
            order = tasks if index < 3 else tasks[::-1]
            barrier.wait(timeout=60)
            for task in order:
                seen.append(recall.recall(task))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=fill, args=(i,)) for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 6 * len(tasks)
        for result in seen:
            expected = want[result.target_name]
            assert result.raw_proxy_scores == expected.raw_proxy_scores
            assert result.recall_scores == expected.recall_scores
            assert result.recalled_models == expected.recalled_models
        assert len(recall._proxy_scores) == len(representatives(recall)) * len(tasks)

    def test_raising_scorer_stores_nothing(
        self, scorers, nlp_hub_small, nlp_matrix_small, nlp_clustering_small,
        nlp_suite_small,
    ):
        recall = make_recall(
            nlp_hub_small, nlp_matrix_small, nlp_clustering_small,
            proxy_score="raising-leep",
        )
        _RaisingLeep.fail_on = representatives(recall)[-1]
        with pytest.raises(RuntimeError, match="scorer failed"):
            recall.recall(nlp_suite_small.task("mnli"))
        assert recall._proxy_scores == {}

    def test_returned_scores_are_a_copy(
        self, nlp_hub_small, nlp_matrix_small, nlp_clustering_small, nlp_suite_small
    ):
        recall = make_recall(nlp_hub_small, nlp_matrix_small, nlp_clustering_small)
        task = nlp_suite_small.task("mnli")
        first = recall.recall(task)
        want = dict(first.raw_proxy_scores)
        for name in first.raw_proxy_scores:
            first.raw_proxy_scores[name] = -1.0
        first.raw_proxy_scores["intruder"] = 0.0
        again = recall.recall(task)
        assert again.raw_proxy_scores == want
        assert again.proxy_scores == first.proxy_scores


class TestSharedTable:
    def test_warm_scheduled_select_scores_nothing(self, scorers, counting_artifacts):
        scheduler = EpochScheduler.for_artifacts(
            counting_artifacts,
            config=SchedulerConfig(max_concurrent=4, epoch_budget=4, max_queue=8),
        )
        first = scheduler.submit("mnli")
        scheduler.run_until_idle()
        cold = scheduler.result(first)
        assert sorted(scorers) == sorted(cold.recall.raw_proxy_scores)

        scorers.clear()
        second = scheduler.submit("mnli")
        scheduler.run_until_idle()
        warm = scheduler.result(second)
        assert scorers == []
        assert warm.recall.raw_proxy_scores == cold.recall.raw_proxy_scores
        assert warm.recall.epoch_cost == cold.recall.epoch_cost > 0
        assert warm.selected_model == cold.selected_model
        assert warm.total_cost == cold.total_cost

    def test_selector_paths_share_the_table(self, scorers, counting_artifacts):
        service = SelectionService(counting_artifacts)
        try:
            service.select("mnli")
            assert scorers
            scorers.clear()
            service.select_many(["mnli"])
            service.recall("mnli")
            # A call-scoped scheduler (one Table VI row) reads the same table.
            scheduler = service.inline_scheduler(1)
            scheduler.submit("mnli")
            scheduler.run_until_idle()
        finally:
            service.close()
        assert scorers == []


class TestRefresh:
    def test_refreshed_version_scores_again(
        self, scorers, nlp_hub_small, nlp_suite_small, test_pipeline_config,
        fine_tuner,
    ):
        config = replace(
            test_pipeline_config,
            recall=replace(test_pipeline_config.recall, proxy_score="counting-leep"),
        )
        artifacts = OfflineArtifacts.build(
            nlp_hub_small.subset(nlp_hub_small.model_names[:8]),
            nlp_suite_small,
            config=config,
            fine_tuner=fine_tuner,
        )
        service = SelectionService(artifacts)
        spare = [
            name
            for name in nlp_hub_small.model_names
            if name not in artifacts.hub.model_names
        ][0]
        service.recall("mnli")
        old = service._scheduler_context().recall
        assert old._proxy_scores and scorers
        scorers.clear()
        service.recall("mnli")
        assert scorers == []

        service.refresh(added=[spare])
        new = service._scheduler_context().recall
        assert new is not old
        assert new._proxy_scores is not old._proxy_scores
        assert not new._proxy_scores
        result = service.recall("mnli")
        assert sorted(scorers) == sorted(result.raw_proxy_scores)
        assert len(new._proxy_scores) == len(result.raw_proxy_scores)
