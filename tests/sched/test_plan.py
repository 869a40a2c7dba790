"""Unit tests for the SelectionPlan state machine."""

import pytest

from oracles import serial_stage_loop
from repro.core.pipeline import OfflineArtifacts
from repro.core.plan import SelectionPlan, SessionView, TrainStep
from repro.core.selection import FineSelection, SuccessiveHalving
from repro.utils.exceptions import SelectionError


@pytest.fixture(scope="module")
def artifacts(nlp_hub_small, nlp_suite_small, test_pipeline_config, fine_tuner):
    return OfflineArtifacts.build(
        nlp_hub_small,
        nlp_suite_small,
        config=test_pipeline_config,
        fine_tuner=fine_tuner,
    )


@pytest.fixture()
def engine(artifacts, fine_tuner):
    return FineSelection(
        artifacts.hub,
        artifacts.matrix,
        fine_tuner,
        config=artifacts.config.fine_selection,
    )


@pytest.fixture()
def task(artifacts):
    return artifacts.suite.task("mnli")


CANDIDATES = ["bert-base-uncased", "roberta-base", "albert-base-v2",
              "distilbert-base-uncased"]


def build_plan(engine, candidates, task):
    """A plan over fresh private sessions, as the serial oracle builds it."""
    return SelectionPlan(
        policy=engine,
        task=task,
        candidates=candidates,
        view_factory=lambda name: SessionView(
            engine.fine_tuner.start_session(engine.hub.get(name), task)
        ),
    )


class TestPlanStateMachine:
    def test_initial_state(self, engine, task):
        plan = build_plan(engine, CANDIDATES, task)
        assert not plan.done
        assert plan.surviving == CANDIDATES
        assert plan.num_stages == len(engine.stage_schedule())

    def test_claim_next_hands_out_stage_steps_once(self, engine, task):
        plan = build_plan(engine, CANDIDATES, task)
        steps = []
        while (step := plan.claim_next()) is not None:
            steps.append(step)
        assert [s.model for s in steps] == CANDIDATES
        assert all(s.stage == 0 for s in steps)
        assert plan.claim_next() is None  # stage fully claimed, none done

    def test_complete_unclaimed_step_raises(self, engine, task):
        plan = build_plan(engine, CANDIDATES, task)
        bogus = TrainStep(model=CANDIDATES[0], epochs=1, stage=0)
        with pytest.raises(SelectionError, match="never claimed"):
            plan.complete(bogus)

    def test_release_requeues_step(self, engine, task):
        plan = build_plan(engine, CANDIDATES, task)
        step = plan.claim_next()
        plan.release(step)
        assert plan.claim_next() == step

    def test_stage_advances_only_when_all_steps_complete(self, engine, task):
        plan = build_plan(engine, CANDIDATES, task)
        steps = plan.claim_stage()
        for step in steps[:-1]:
            view = plan.views[step.model]
            view.session.train_epochs(step.epochs)
            view.adopt(view.session, advance=step.epochs)
            plan.complete(step)
            assert plan.stage_index == 0  # still waiting on the last step
        last = steps[-1]
        view = plan.views[last.model]
        view.session.train_epochs(last.epochs)
        view.adopt(view.session, advance=last.epochs)
        plan.complete(last)
        assert plan.stage_index == 1
        assert len(plan.stages) == 1
        assert plan.runtime_epochs == len(CANDIDATES) * steps[0].epochs

    def test_interleaved_driving_matches_blocking_run(self, engine, task):
        """Claiming steps one at a time (scheduler-style) equals the oracle."""
        blocking = serial_stage_loop(engine, CANDIDATES, task)
        plan = build_plan(engine, CANDIDATES, task)
        while not plan.done:
            step = plan.claim_next()
            assert step is not None  # a live plan always has runnable work
            view = plan.views[step.model]
            view.session.train_epochs(step.epochs)
            view.adopt(view.session, advance=step.epochs)
            plan.complete(step)
        assert plan.result.selected_model == blocking.selected_model
        assert plan.result.stages == blocking.stages
        assert plan.result.final_accuracies == blocking.final_accuracies
        assert plan.result.runtime_epochs == blocking.runtime_epochs

    def test_progress_snapshot(self, engine, task):
        plan = build_plan(engine, CANDIDATES, task)
        snapshot = plan.progress()
        assert snapshot["phase"] == "stage 0"
        assert snapshot["num_stages"] == plan.num_stages
        assert snapshot["surviving"] == CANDIDATES

    def test_two_phase_result_needs_a_finished_plan_with_recall(self, engine, task):
        plan = build_plan(engine, CANDIDATES, task)
        with pytest.raises(SelectionError, match="not finished"):
            plan.two_phase_result()
        while not plan.done:
            for step in plan.claim_stage():
                view = plan.views[step.model]
                view.session.train_epochs(step.epochs)
                view.adopt(view.session, advance=step.epochs)
                plan.complete(step)
        with pytest.raises(SelectionError, match="no recall phase"):
            plan.two_phase_result()

    def test_empty_candidates_raise(self, engine, task):
        with pytest.raises(SelectionError, match="must not be empty"):
            build_plan(engine, [], task)


class TestSessionView:
    def test_reads_index_recorded_curve(self, artifacts, fine_tuner, task):
        session = fine_tuner.start_session(
            artifacts.hub.get("bert-base-uncased"), task
        )
        view = SessionView(session)
        with pytest.raises(SelectionError, match="not trained"):
            view.validation_accuracy()
        session.train_epochs(3)
        view.adopt(session, advance=2)
        # The view reads epoch 2 even though the session is at epoch 3.
        assert view.validation_accuracy() == session.curve.val_accuracy[1]
        assert view.test_accuracy() == session.curve.test_accuracy[1]

    def test_adopt_behind_position_raises(self, artifacts, fine_tuner, task):
        session = fine_tuner.start_session(
            artifacts.hub.get("bert-base-uncased"), task
        )
        view = SessionView(session)
        with pytest.raises(SelectionError, match="view requires"):
            view.adopt(session, advance=2)  # session has trained 0 epochs


class TestHalvingSchedules:
    def test_successive_halving_schedule(self, artifacts, fine_tuner):
        engine = SuccessiveHalving(
            artifacts.hub, fine_tuner, config=artifacts.config.fine_selection
        )
        config = artifacts.config.fine_selection
        schedule = engine.stage_schedule()
        assert sum(schedule) <= config.total_epochs
        assert all(e == config.validation_interval for e in schedule)
