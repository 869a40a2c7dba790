"""Every accepted request gets exactly one terminal event on its stream.

The serve emitter pushes a ``progress`` event per completed stage and one
``result``/``failed`` event, fed by the scheduler's per-request listeners.
These tests drive the scheduler in the test thread (``run_until_idle``)
so every event sequence is deterministic, and check it for each terminal
path: a result, a deadline, a cancelling close, a result restored from
the plan journal and a recovered request adopted after it finished.
"""

import io
import json

import pytest

from repro.core.pipeline import OfflineArtifacts
from repro.persist import PlanStore
from repro.sched import EpochScheduler, SchedulerConfig
from repro.serving import ServeFrontEnd, _EventEmitter
from repro.zoo.finetune import FineTuner


@pytest.fixture(scope="module")
def artifacts(nlp_hub_small, nlp_suite_small, test_pipeline_config, fine_tuner):
    return OfflineArtifacts.build(
        nlp_hub_small,
        nlp_suite_small,
        config=test_pipeline_config,
        fine_tuner=fine_tuner,
    )


def make_scheduler(artifacts, fine_tuner, store=None):
    # A fresh tuner with the fixture's configuration keeps the journal's
    # plan key stable across the simulated process lifetimes.
    return EpochScheduler.for_artifacts(
        artifacts,
        fine_tuner=FineTuner(fine_tuner.config, seed=0),
        config=SchedulerConfig(max_concurrent=4, epoch_budget=4),
        persist=store,
    )


class Stream:
    """An emitter over an in-memory stream."""

    def __init__(self) -> None:
        self.out = io.StringIO()
        self.emitter = _EventEmitter(self.out)
        self.emitter.start()

    def events(self):
        self.emitter.drain()
        self.emitter.stop()
        return [json.loads(line) for line in self.out.getvalue().splitlines()]


def by_request(events):
    grouped = {}
    for event in events:
        grouped.setdefault(event["id"], []).append(event)
    return grouped


def assert_well_formed(events, *, terminal):
    """Stages strictly increase, then exactly one terminal event ends it."""
    *progress, last = events
    assert last["event"] == terminal
    assert all(event["event"] == "progress" for event in progress)
    stages = [event["stage"] for event in progress]
    assert stages == sorted(set(stages))
    return stages


def test_result_follows_one_progress_per_stage(artifacts, fine_tuner):
    scheduler = make_scheduler(artifacts, fine_tuner)
    stream = Stream()
    requests = {
        "a": scheduler.submit("mnli"),
        "b": scheduler.submit("boolq"),
        "c": scheduler.submit("mnli"),
    }
    for request_id, request in requests.items():
        stream.emitter.track(request_id, request)
    scheduler.run_until_idle()
    grouped = by_request(stream.events())
    assert set(grouped) == set(requests)
    for request_id, request in requests.items():
        stages = assert_well_formed(grouped[request_id], terminal="result")
        assert stages == list(range(1, request.plan.num_stages + 1))
        result = grouped[request_id][-1]
        assert result["selected_model"] == request.result.selected_model
        assert result["latency_seconds"] == request.latency_seconds()


def test_deadline_fails_with_one_timeout_event(artifacts, fine_tuner):
    scheduler = make_scheduler(artifacts, fine_tuner)
    stream = Stream()
    stream.emitter.track("late", scheduler.submit("mnli", timeout=1e-9))
    scheduler.run_until_idle()
    events = by_request(stream.events())["late"]
    assert_well_formed(events, terminal="failed")
    assert events[-1]["error"]["code"] == "timeout"


def test_cancelling_close_fails_each_request_once(artifacts, fine_tuner):
    scheduler = make_scheduler(artifacts, fine_tuner)
    stream = Stream()
    for request_id, target in (("x", "mnli"), ("y", "boolq")):
        stream.emitter.track(request_id, scheduler.submit(target))
    scheduler.close(drain=False)
    grouped = by_request(stream.events())
    assert set(grouped) == {"x", "y"}
    for events in grouped.values():
        assert_well_formed(events, terminal="failed")
        assert events[-1]["error"]["type"] == "SchedulerError"


def test_journal_restored_result_is_one_result_event(
    artifacts, fine_tuner, tmp_path
):
    first = make_scheduler(artifacts, fine_tuner, PlanStore(tmp_path))
    finished = first.submit("mnli")
    first.run_until_idle()

    scheduler = make_scheduler(artifacts, fine_tuner, PlanStore(tmp_path))
    stream = Stream()
    request = scheduler.submit("mnli")
    stream.emitter.track("again", request)
    scheduler.run_until_idle()
    assert request.plan is None  # answered from the journal, no training
    events = by_request(stream.events())["again"]
    assert [event["event"] for event in events] == ["result"]
    assert events[0]["selected_model"] == finished.result.selected_model


def test_recovered_request_adopted_after_it_finished(
    artifacts, fine_tuner, tmp_path
):
    crashed = make_scheduler(artifacts, fine_tuner, PlanStore(tmp_path))
    crashed.submit("mnli")
    crashed._guarded_round()  # journaled mid-flight, then abandoned

    scheduler = make_scheduler(artifacts, fine_tuner, PlanStore(tmp_path))
    # A scheduler has the ``recover`` surface of a SelectionService.
    front = ServeFrontEnd(scheduler, recover=True)
    assert front.recovered_count == 1
    scheduler.run_until_idle()  # finishes before any stream adopts it

    stream = Stream()
    front._adopt_recovered(stream.emitter)
    grouped = by_request(stream.events())
    [(request_id, events)] = grouped.items()
    assert request_id.startswith("recovered-")
    stages = assert_well_formed(events, terminal="result")
    assert stages == list(range(1, len(stages) + 1)) and stages
