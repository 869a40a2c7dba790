"""The per-engine Eq. 5/6 trend table: mined once, bitwise equal to re-mining.

``FineSelection`` memoises each ``(model, stage, num_trends)`` trend set in
one dict that its per-request clones and its extrapolator share; a zoo
refresh builds new engines and so starts a new table.
"""

import sys
import threading

import pytest

from repro.core.convergence import ConvergenceTrendMiner, lookup_trend_set
from repro.core.extrapolation import ExtrapolationConfig
from repro.core.pipeline import OfflineArtifacts
from repro.experiments.context import ExperimentContext
from repro.sched import EpochScheduler, SchedulerConfig
from repro.service import SelectionService


def assert_same_trend_set(got, want):
    assert got.model_name == want.model_name
    assert got.stage == want.stage
    assert len(got.trends) == len(want.trends)
    for got_trend, want_trend in zip(got.trends, want.trends):
        assert got_trend.trend_id == want_trend.trend_id
        assert got_trend.val_accuracy == want_trend.val_accuracy
        assert got_trend.test_accuracy == want_trend.test_accuracy
        assert got_trend.dataset_names == want_trend.dataset_names


@pytest.fixture(scope="module")
def artifacts(nlp_hub_small, nlp_suite_small, test_pipeline_config, fine_tuner):
    return OfflineArtifacts.build(
        nlp_hub_small,
        nlp_suite_small,
        config=test_pipeline_config,
        fine_tuner=fine_tuner,
    )


def make_scheduler(artifacts):
    return EpochScheduler.for_artifacts(
        artifacts,
        config=SchedulerConfig(max_concurrent=4, epoch_budget=4, max_queue=8),
    )


@pytest.fixture
def mine_calls(monkeypatch):
    """Names of the models ``ConvergenceTrendMiner.mine`` is called for."""
    calls = []
    real_mine = ConvergenceTrendMiner.mine

    def counting_mine(self, model_name, *args, **kwargs):
        calls.append(model_name)
        return real_mine(self, model_name, *args, **kwargs)

    monkeypatch.setattr(ConvergenceTrendMiner, "mine", counting_mine)
    return calls


class _NoCurves:
    def curves_for_model(self, model_name):
        return {}


class TestLookup:
    @pytest.mark.parametrize("modality", ["nlp", "cv"])
    @pytest.mark.parametrize("num_trends", [2, 4])
    def test_every_lookup_equals_a_fresh_mine(self, modality, num_trends):
        matrix = ExperimentContext(modality, scale="small", num_models=12).matrix
        miner = ConvergenceTrendMiner(num_trends=num_trends)
        table = {}
        for model in matrix.model_names:
            curves = matrix.curves_for_model(model)
            for stage in range(1, matrix.epochs + 1):
                got = lookup_trend_set(table, miner, matrix, model, stage=stage)
                fresh = ConvergenceTrendMiner(num_trends=num_trends).mine(
                    model, curves, stage=stage
                )
                assert_same_trend_set(got, fresh)
                again = lookup_trend_set(table, miner, matrix, model, stage=stage)
                assert again is got
        assert len(table) == len(matrix.model_names) * matrix.epochs

    def test_num_trends_is_part_of_the_key(self, nlp_matrix_small):
        model = nlp_matrix_small.model_names[0]
        miner = ConvergenceTrendMiner(num_trends=4)
        table = {}
        four = lookup_trend_set(table, miner, nlp_matrix_small, model, stage=1)
        two = lookup_trend_set(
            table, miner, nlp_matrix_small, model, stage=1, num_trends=2
        )
        assert set(table) == {(model, 1, 4), (model, 1, 2)}
        assert len(two.trends) <= 2 < len(four.trends)

    def test_concurrent_fills_agree(self, nlp_matrix_small):
        matrix = nlp_matrix_small
        keys = [
            (model, stage)
            for model in matrix.model_names
            for stage in range(1, matrix.epochs + 1)
        ]
        miner = ConvergenceTrendMiner()
        want = {
            key: miner.mine(key[0], matrix.curves_for_model(key[0]), stage=key[1])
            for key in keys
        }
        table = {}
        seen = []

        def fill(offset):
            for model, stage in keys[offset:] + keys[:offset]:
                seen.append(
                    ((model, stage), lookup_trend_set(
                        table, miner, matrix, model, stage=stage
                    ))
                )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=fill, args=(index * 3,)) for index in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 6 * len(keys)
        assert len(table) == len(keys)
        for key, trend_set in seen:
            assert_same_trend_set(trend_set, want[key])

    def test_model_without_curves_is_recorded_as_none(self):
        table = {}
        miner = ConvergenceTrendMiner()
        assert lookup_trend_set(table, miner, _NoCurves(), "m", stage=1) is None
        assert table == {("m", 1, miner.num_trends): None}


class TestSharedTable:
    def test_extrapolator_reads_the_engines_table(self, artifacts, mine_calls):
        scheduler = make_scheduler(artifacts)
        policy = scheduler._context_provider().fine_selection
        model = artifacts.matrix.model_names[0]
        predicted = policy._predict_final_accuracies([model], {model: 0.5}, 1)
        assert mine_calls == [model]
        extrapolator = policy._extrapolator(
            ExtrapolationConfig(enabled=True, num_trends=policy.config.num_trends)
        )
        assert extrapolator.trend_sets is policy._trend_sets
        bound = extrapolator.bound(model, 0.5, stage_epoch=1)
        assert mine_calls == [model]
        assert bound.predicted_final == predicted[model]

    @pytest.mark.parametrize(
        "override", [{"total_epochs": 4}, {"extrapolate": True}]
    )
    def test_per_request_clone_shares_the_table(self, artifacts, override):
        scheduler = make_scheduler(artifacts)
        parent = scheduler._context_provider().fine_selection
        request = scheduler.submit("mnli", **override)
        clone = request.context.fine_selection
        assert clone is not parent
        assert clone._trend_sets is parent._trend_sets
        scheduler.run_until_idle()
        assert scheduler.result(request) is not None
        assert parent._trend_sets

    def test_warm_scheduled_select_mines_nothing(self, artifacts, mine_calls):
        scheduler = make_scheduler(artifacts)
        first = scheduler.submit("mnli")
        scheduler.run_until_idle()
        cold = scheduler.result(first)
        assert mine_calls

        mine_calls.clear()
        second = scheduler.submit("mnli")
        scheduler.run_until_idle()
        warm = scheduler.result(second)
        assert mine_calls == []
        assert warm.selection.stages[0].predicted_accuracy
        assert warm.selection.stages == cold.selection.stages
        assert warm.selected_model == cold.selected_model


class TestRefresh:
    def test_added_model_is_mined_from_the_new_matrix(
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
        old = service._scheduler_context().fine_selection
        names = artifacts.matrix.model_names
        old._predict_final_accuracies(names, dict.fromkeys(names, 0.5), 1)
        assert old._trend_sets

        service.refresh(added=[spare])
        new = service._scheduler_context().fine_selection
        assert new is not old
        assert new._trend_sets is not old._trend_sets
        assert not new._trend_sets
        assert new.matrix is service.artifacts.matrix
        assert all(key[0] != spare for key in old._trend_sets)

        new._predict_final_accuracies([spare], {spare: 0.5}, 1)
        fresh = new.trend_miner.mine(
            spare, service.artifacts.matrix.curves_for_model(spare), stage=1
        )
        key = (spare, 1, new.trend_miner.num_trends)
        assert_same_trend_set(new._trend_sets[key], fresh)
