"""Unit tests for the EpochScheduler: policies, budgets, backpressure."""

import threading

import pytest
from oracles import serial_select

from repro.core.batch import build_phase_engines
from repro.core.pipeline import OfflineArtifacts
from repro.core.selection import BruteForceSelection, SuccessiveHalving
from repro.data.tasks import ClassificationTask
from repro.sched import EpochScheduler, SchedulerConfig
from repro.sched.scheduler import SchedulerContext
from repro.service import SelectionService
from repro.utils.exceptions import (
    BudgetExhaustedError,
    ConfigurationError,
    InternalError,
    QueueFullError,
    RequestTimeoutError,
    SchedulerError,
    SelectionError,
)
from repro.zoo.finetune import FineTuner


@pytest.fixture(scope="module")
def artifacts(nlp_hub_small, nlp_suite_small, test_pipeline_config, fine_tuner):
    return OfflineArtifacts.build(
        nlp_hub_small,
        nlp_suite_small,
        config=test_pipeline_config,
        fine_tuner=fine_tuner,
    )


@pytest.fixture(scope="module")
def serial_results(artifacts):
    return {name: serial_select(artifacts, name) for name in ("mnli", "boolq")}


def make_scheduler(artifacts, **overrides):
    defaults = dict(max_concurrent=4, epoch_budget=4, max_queue=8)
    defaults.update(overrides)
    return EpochScheduler.for_artifacts(
        artifacts, config=SchedulerConfig(**defaults)
    )


class TestSchedulerConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SchedulerConfig(policy="lifo")
        with pytest.raises(ConfigurationError):
            SchedulerConfig(max_concurrent=0)
        with pytest.raises(ConfigurationError):
            SchedulerConfig(epoch_budget=0)
        with pytest.raises(ConfigurationError):
            SchedulerConfig(max_queue=0)
        with pytest.raises(ConfigurationError):
            SchedulerConfig(max_epochs_per_request=0)
        with pytest.raises(ConfigurationError):
            SchedulerConfig(timeout_seconds=0)

    def test_unbounded_epoch_budget_is_valid(self):
        assert SchedulerConfig(epoch_budget=None).epoch_budget is None

    def test_unbounded_budget_drains_a_stage_per_round(self, artifacts):
        bounded = make_scheduler(artifacts, epoch_budget=1)
        unbounded = make_scheduler(artifacts, epoch_budget=None)
        for scheduler in (bounded, unbounded):
            scheduler.submit("mnli")
            scheduler.submit("boolq")
            scheduler.run_until_idle()
        assert unbounded.stats()["rounds"] < bounded.stats()["rounds"]


class TestSingleRequest:
    @pytest.mark.parametrize("policy", ["fair_share", "deadline"])
    def test_matches_serial_selector(self, artifacts, serial_results, policy):
        scheduler = make_scheduler(artifacts, policy=policy)
        request = scheduler.submit("mnli")
        scheduler.run_until_idle()
        result = scheduler.result(request)
        serial = serial_results["mnli"]
        assert result.selected_model == serial.selected_model
        assert result.selection.stages == serial.selection.stages
        assert result.selection.final_accuracies == serial.selection.final_accuracies
        assert result.recall.recall_scores == serial.recall.recall_scores
        assert result.total_cost == serial.total_cost

    def test_poll_progresses_to_done(self, artifacts):
        scheduler = make_scheduler(artifacts)
        request = scheduler.submit("mnli")
        assert scheduler.poll(request)["state"] == "queued"
        scheduler.run_until_idle()
        snapshot = scheduler.poll(request)
        assert snapshot["state"] == "done"
        assert snapshot["progress"]["phase"] == "done"
        assert snapshot["latency_seconds"] >= 0
        assert snapshot["progress"]["stages_completed"]


class TestConcurrentRequests:
    def test_duplicate_targets_share_sessions(self, artifacts, serial_results):
        scheduler = make_scheduler(artifacts)
        requests = [scheduler.submit("mnli") for _ in range(3)]
        scheduler.run_until_idle()
        results = [scheduler.result(r) for r in requests]
        for result in results:
            assert result.selection.stages == serial_results["mnli"].selection.stages
        stats = scheduler.pool.stats()
        # Three identical requests cost barely more than one.
        assert stats["epochs_reused"] >= stats["epochs_trained"]

    def test_mixed_targets_each_match_serial(self, artifacts, serial_results):
        scheduler = make_scheduler(artifacts, epoch_budget=2)
        targets = ["mnli", "boolq", "mnli"]
        requests = [scheduler.submit(t) for t in targets]
        scheduler.run_until_idle()
        for target, request in zip(targets, requests):
            result = scheduler.result(request)
            serial = serial_results[target]
            assert result.selected_model == serial.selected_model
            assert result.selection.stages == serial.selection.stages

    def test_completion_counters(self, artifacts):
        scheduler = make_scheduler(artifacts)
        requests = [scheduler.submit(t) for t in ("mnli", "boolq")]
        scheduler.run_until_idle()
        stats = scheduler.stats()
        assert stats["completed"] == 2
        assert stats["failed"] == 0
        assert stats["queued"] == 0 and stats["active"] == 0
        assert stats["session_pool"]["misses"] > 0
        assert all(scheduler.result(r) is not None for r in requests)


class TestPolicyRequests:
    """``submit(policy=, candidates=)``: baselines beside two-phase requests."""

    def test_methods_submitted_together_share_every_session(
        self, artifacts, serial_results
    ):
        hub, task = artifacts.hub, artifacts.suite.task("mnli")
        config = artifacts.config.fine_selection
        policies = [
            method(hub, FineTuner(seed=0), config=config)
            for method in (BruteForceSelection, SuccessiveHalving)
        ]
        scheduler = SelectionService(artifacts).inline_scheduler(3)
        requests = [scheduler.submit(task)] + [
            scheduler.submit(task, policy=policy, candidates=hub.model_names)
            for policy in policies
        ]
        scheduler.run_until_idle()
        two_phase, *baselines = map(scheduler.result, requests)
        # Brute force trains every model: one session each, shared by all
        # three requests.
        assert scheduler.pool.stats()["misses"] == len(hub)
        assert two_phase == serial_results["mnli"]
        for policy, result in zip(policies, baselines):
            assert result == policy.run(hub.model_names, task)

    def test_policy_with_another_tuner_is_refused(self, artifacts):
        scheduler = make_scheduler(artifacts)
        policy = SuccessiveHalving(artifacts.hub, FineTuner(seed=1))
        with pytest.raises(SchedulerError, match="tuner"):
            scheduler.submit(
                "mnli", policy=policy, candidates=artifacts.hub.model_names
            )
        assert scheduler.load() == {"active": 0, "queued": 0}

    @pytest.mark.parametrize("candidates", [[], ["no-such-model"]])
    def test_bad_candidates_raise_at_submit(self, artifacts, candidates):
        scheduler = make_scheduler(artifacts)
        with pytest.raises(SelectionError):
            scheduler.submit("mnli", candidates=candidates)
        assert scheduler.load() == {"active": 0, "queued": 0}


class TestAdmissionControl:
    def test_queue_full_raises(self, artifacts):
        scheduler = make_scheduler(artifacts, max_queue=2)
        scheduler.submit("mnli")
        scheduler.submit("boolq")
        with pytest.raises(QueueFullError, match="admission queue is full"):
            scheduler.submit("mnli")
        scheduler.run_until_idle()

    def test_submit_after_close_raises(self, artifacts):
        scheduler = make_scheduler(artifacts)
        scheduler.close()
        with pytest.raises(SchedulerError, match="closed"):
            scheduler.submit("mnli")

    def test_epoch_quota_fails_request(self, artifacts):
        scheduler = make_scheduler(artifacts)
        # The quota (1 epoch) is below the first stage's cost for 10
        # recalled candidates, so the request must fail deterministically.
        request = scheduler.submit("mnli", epoch_quota=1)
        scheduler.run_until_idle()
        assert request.state == "failed"
        with pytest.raises(BudgetExhaustedError, match="epoch quota"):
            scheduler.result(request)
        assert scheduler.stats()["failed"] == 1

    def test_expired_deadline_fails_request(self, artifacts):
        scheduler = make_scheduler(artifacts)
        request = scheduler.submit("mnli", timeout=1e-9)
        scheduler.run_until_idle()
        with pytest.raises(RequestTimeoutError):
            scheduler.result(request)

    def test_quota_failure_does_not_disturb_others(self, artifacts, serial_results):
        scheduler = make_scheduler(artifacts)
        doomed = scheduler.submit("mnli", epoch_quota=1)
        healthy = scheduler.submit("boolq")
        scheduler.run_until_idle()
        assert doomed.state == "failed"
        result = scheduler.result(healthy)
        assert result.selection.stages == serial_results["boolq"].selection.stages


class TestBackgroundThread:
    def test_start_serves_submissions(self, artifacts, serial_results):
        scheduler = make_scheduler(artifacts)
        scheduler.start()
        try:
            request = scheduler.submit("mnli")
            result = scheduler.result(request, timeout=120)
            assert result.selected_model == serial_results["mnli"].selected_model
        finally:
            scheduler.close()

    def test_result_timeout_raises(self, artifacts):
        scheduler = make_scheduler(artifacts)
        request = scheduler.submit("mnli")  # nothing is driving the loop
        with pytest.raises(RequestTimeoutError, match="still running"):
            scheduler.result(request, timeout=0.01)
        scheduler.run_until_idle()

    def test_raising_round_fails_pending_and_keeps_serving(
        self, artifacts, serial_results, fine_tuner
    ):
        recall, policy = build_phase_engines(artifacts, fine_tuner)
        real_filter = policy.filter_stage
        calls = []

        def filter_fails_once(*args, **kwargs):
            calls.append(args[0])
            if len(calls) == 1:
                raise RuntimeError("filter exploded")
            return real_filter(*args, **kwargs)

        policy.filter_stage = filter_fails_once
        context = SchedulerContext(
            artifacts=artifacts,
            recall=recall,
            fine_selection=policy,
            version_key=artifacts.version.key,
            fine_tuner=fine_tuner,
        )
        scheduler = EpochScheduler(
            lambda: context,
            config=SchedulerConfig(max_concurrent=4, epoch_budget=4, max_queue=8),
        )
        doomed = [scheduler.submit(target) for target in ("mnli", "boolq")]
        scheduler.start()
        try:
            for request in doomed:
                with pytest.raises(InternalError, match="filter exploded"):
                    scheduler.result(request, timeout=5)
                assert request.state == "failed"
            later = scheduler.submit("mnli")
            result = scheduler.result(later, timeout=120)
            assert result.selection.stages == serial_results["mnli"].selection.stages
            stats = scheduler.stats()
            assert stats["internal_errors"] == 1
            assert stats["failed"] == 2 and stats["completed"] == 1
        finally:
            scheduler.close()

    def test_close_without_drain_fails_pending(self, artifacts):
        scheduler = make_scheduler(artifacts)
        request = scheduler.submit("mnli")
        scheduler.close(drain=False)
        assert request.state == "failed"
        with pytest.raises(SchedulerError):
            scheduler.result(request)


class TestDeadlinePolicy:
    def test_earliest_deadline_finishes_first(self, artifacts):
        """The deadline policy drains the urgent request's stages first."""
        scheduler = make_scheduler(
            artifacts, policy="deadline", max_concurrent=3, epoch_budget=2
        )
        relaxed = [scheduler.submit("boolq"), scheduler.submit("mnli")]
        urgent = scheduler.submit("mnli", timeout=3600.0)
        order = []
        lock = threading.Lock()

        def record(request):
            with lock:
                order.append(request.id)

        scheduler._on_complete = record
        scheduler.run_until_idle()
        assert all(r.state == "done" for r in [*relaxed, urgent])
        # The deadline-bearing request was submitted last but drains
        # first, so it must not complete after the unrelated boolq
        # request (the relaxed mnli twin may ride its shared sessions).
        assert order.index(urgent.id) < order.index(relaxed[0].id)


class TestQuotaRefund:
    def test_failed_request_trains_nothing(self, artifacts):
        """Steps claimed before the quota trips are refunded, not trained."""
        scheduler = make_scheduler(artifacts, epoch_budget=None)
        doomed = scheduler.submit("mnli", epoch_quota=3)
        scheduler.run_until_idle()
        assert doomed.state == "failed"
        stats = scheduler.pool.stats()
        # Nothing of the failed request reached a training op: with an
        # unbounded budget its whole first stage was claimed in the same
        # selection pass that tripped the quota.
        assert stats["epochs_trained"] == 0
        assert doomed.epochs_charged <= 3


class TestCancellation:
    def test_close_without_drain_cancels_background_thread(self, artifacts):
        scheduler = make_scheduler(artifacts)
        scheduler.start()
        requests = [scheduler.submit("mnli"), scheduler.submit("boolq")]
        scheduler.close(drain=False)
        for request in requests:
            assert request.state in ("done", "failed")
            assert request._event.is_set()

    def test_terminal_transition_fires_callbacks_once(self, artifacts):
        completions = []
        scheduler = make_scheduler(artifacts)
        scheduler._on_complete = completions.append
        request = scheduler.submit("mnli")
        scheduler.run_until_idle()
        # A late cancellation racing an already-finished request is a no-op.
        scheduler._fail(request, SchedulerError("scheduler closed"))
        assert request.state == "done"
        assert [r.id for r in completions] == [request.id]


class TestListeners:
    def test_stage_and_terminal_notifications(self, artifacts):
        scheduler = make_scheduler(artifacts)
        request = scheduler.submit("mnli")
        seen = []
        request.add_listener(lambda r: seen.append((len(r.plan.stages), r.wait(0))))
        scheduler.run_until_idle()
        stages = [count for count, terminal in seen if not terminal]
        # One call per stage transition, then exactly one terminal call.
        assert stages == list(range(1, request.plan.num_stages + 1))
        assert [terminal for _, terminal in seen].count(True) == 1
        assert seen[-1][1] is True

    def test_listener_added_after_terminal_fires_once_at_once(self, artifacts):
        scheduler = make_scheduler(artifacts)
        request = scheduler.submit("mnli")
        scheduler.run_until_idle()
        seen = []
        request.add_listener(seen.append)
        assert seen == [request]
        # A late cancellation is a no-op: no second terminal call.
        scheduler._fail(request, SchedulerError("scheduler closed"))
        assert seen == [request]

    def test_raising_listener_is_counted_and_never_skips_completion(
        self, artifacts, serial_results
    ):
        completions = []
        scheduler = make_scheduler(artifacts)
        scheduler._on_complete = completions.append
        request = scheduler.submit("mnli")
        calls = []

        def explode(r):
            calls.append(r.wait(0))
            raise RuntimeError("listener exploded")

        request.add_listener(explode)
        scheduler.run_until_idle()
        result = scheduler.result(request)
        assert result.selection.stages == serial_results["mnli"].selection.stages
        assert completions == [request]
        stats = scheduler.stats()
        assert stats["internal_errors"] == len(calls)
        assert calls.count(True) == 1 and stats["failed"] == 0


class TestTaskIdentity:
    """Sessions and journals are keyed by the whole task, not its train split."""

    @staticmethod
    def resplit(task):
        # Same name and training data; validation and test swapped.
        return ClassificationTask(task.spec, task.train, task.test, task.val)

    def alone(self, artifacts, task):
        scheduler = make_scheduler(artifacts)
        request = scheduler.submit(task)
        scheduler.run_until_idle()
        return scheduler.result(request)

    def test_resplit_task_does_not_read_the_originals_curves(
        self, artifacts, nlp_suite_small
    ):
        original = nlp_suite_small.task("boolq")
        resplit = self.resplit(original)
        scheduler = make_scheduler(artifacts)
        scheduler.submit(original)
        scheduler.run_until_idle()
        request = scheduler.submit(resplit)
        scheduler.run_until_idle()
        expected = self.alone(artifacts, resplit)
        result = scheduler.result(request)
        assert result.selection.stages == expected.selection.stages
        assert (
            result.selection.selected_val_accuracy
            == expected.selection.selected_val_accuracy
        )

    def test_concurrent_resplit_task_trains_its_own_sessions(
        self, artifacts, nlp_suite_small
    ):
        original = nlp_suite_small.task("boolq")
        resplit = self.resplit(original)
        scheduler = make_scheduler(artifacts)
        scheduler.submit(original)
        request = scheduler.submit(resplit)
        scheduler.run_until_idle()
        expected = self.alone(artifacts, resplit)
        assert scheduler.result(request).selection.stages == expected.selection.stages
