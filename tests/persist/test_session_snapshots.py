"""Session snapshots: only the head and curve, under the tuner's fingerprint.

A snapshot is ``(fingerprint_tuner(tuner), head, curve)``.  A pool miss
always starts the session from the live hub and task, then adopts a
snapshot's head and curve only when it was trained under the pool's own
tuner — so a store shared across fine-tuning configs, or left behind by an
older version that pickled whole sessions, is never restored wrongly.
"""

import copyreg
import io
import pickle

import numpy as np
import pytest

from repro.cache import fingerprint_model, fingerprint_task, session_key
from repro.core.pipeline import OfflineArtifacts
from repro.persist import PlanStore
from repro.sched.pool import SessionPool
from repro.service import SelectionService
from repro.zoo.finetune import FineTuneConfig, FineTuner
from repro.zoo.models import PretrainedModel

TARGET = "mnli"


@pytest.fixture(scope="module")
def artifacts(nlp_hub_small, nlp_suite_small, test_pipeline_config, fine_tuner):
    hub = nlp_hub_small.subset(nlp_hub_small.model_names[:8])
    return OfflineArtifacts.build(
        hub, nlp_suite_small, config=test_pipeline_config, fine_tuner=fine_tuner
    )


@pytest.fixture(scope="module")
def task(nlp_suite_small):
    return nlp_suite_small.task(TARGET)


@pytest.fixture(scope="module")
def model(nlp_hub_small):
    return nlp_hub_small.get("bert-base-uncased")


def key_of(model, task, version="v0"):
    return session_key(
        version, fingerprint_model(model), fingerprint_task(task, split="all")
    )


def select_with(artifacts, learning_rate, store_dir=None):
    """Select ``TARGET`` on a fresh service; return the answer and pool stats."""
    service = SelectionService(
        artifacts,
        fine_tuner=FineTuner(FineTuneConfig(learning_rate=learning_rate)),
        store_dir=store_dir,
    )
    try:
        answer = service.select(TARGET)
        return answer, service.stats()["scheduler"]["session_pool"]
    finally:
        service.close()


class RecordingUnpickler(pickle.Unpickler):
    """Unpickler noting every class a pickle references."""

    def __init__(self, handle):
        super().__init__(handle)
        self.classes = set()

    def find_class(self, module, name):
        self.classes.add(name)
        return super().find_class(module, name)


def arrays_in(obj, seen=None):
    """Every ndarray reachable from ``obj`` through containers and attributes."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, dict):
        children = list(obj.values())
    elif isinstance(obj, (list, tuple, set)):
        children = list(obj)
    elif hasattr(obj, "__dict__"):
        children = list(vars(obj).values())
    else:
        children = []
    return [array for child in children for array in arrays_in(child, seen)]


def old_format_pickle(session) -> bytes:
    """A whole-session pickle as older versions wrote it (model lock dropped)."""

    def reduce_model(model):
        state = {k: v for k, v in vars(model).items() if k != "_head_lock"}
        return copyreg.__newobj__, (PretrainedModel,), state

    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
    pickler.dispatch_table = copyreg.dispatch_table.copy()
    pickler.dispatch_table[PretrainedModel] = reduce_model
    pickler.dump(session)
    return buffer.getvalue()


class TestSnapshotRecord:
    def test_one_epoch_snapshot_is_head_and_curve_only(
        self, model, task, fine_tuner, tmp_path
    ):
        session = fine_tuner.start_session(model, task)
        session.train_epochs(1)
        store = PlanStore(tmp_path)
        key = key_of(model, task)
        assert store.save_session(key, "tuner-fp", session)
        path = store.session_path(key)
        assert path.stat().st_size < 16 * 1024
        with open(path, "rb") as handle:
            unpickler = RecordingUnpickler(handle)
            record = unpickler.load()
        assert not unpickler.classes & {
            "ClassificationTask", "PretrainedModel", "FineTuneSession"
        }
        features = [
            session.train_features, session._val_features, session._test_features
        ]
        assert all(
            array.shape != split.shape
            for array in arrays_in(record)
            for split in features
        )
        fingerprint, head, curve = store.load_session(key)
        assert fingerprint == "tuner-fp"
        assert curve.val_accuracy == session.curve.val_accuracy
        assert head.history.train_loss == session.head.history.train_loss

    def test_unadvanced_session_is_not_republished(
        self, model, task, fine_tuner, tmp_path
    ):
        session = fine_tuner.start_session(model, task)
        session.train_epochs(1)
        store = PlanStore(tmp_path)
        key = key_of(model, task)
        assert store.save_session(key, "tuner-fp", session)
        assert not store.save_session(key, "tuner-fp", session)

    def test_old_whole_session_pickle_is_ignored_and_retrained(
        self, model, task, fine_tuner, tmp_path
    ):
        old = fine_tuner.start_session(model, task)
        old.train_epochs(2)
        store = PlanStore(tmp_path)
        key = key_of(model, task)
        store.session_path(key).write_bytes(old_format_pickle(old))
        assert store.load_session(key) is None
        pool = SessionPool(fine_tuner)
        view = pool.acquire(model, task, version_key="v0", loader=store.load_session)
        assert pool.stats()["restored"] == 0
        assert view.entry.session.epochs_trained == 0


class TestRestore:
    def test_restored_head_and_curve_continue_bitwise(
        self, model, task, fine_tuner, tmp_path
    ):
        first = SessionPool(fine_tuner)
        view = first.acquire(model, task, version_key="v0")
        view.entry.ensure_epochs(1)
        store = PlanStore(tmp_path)
        store.save_session(view.entry.key, first.tuner_fingerprint, view.entry.session)

        restarted = SessionPool(fine_tuner)
        restored = restarted.acquire(
            model, task, version_key="v0", loader=store.load_session
        )
        assert restarted.stats()["restored"] == 1
        assert restored.entry.ensure_epochs(3) == 2
        private = fine_tuner.start_session(model, task)
        private.train_epochs(3)
        session = restored.entry.session
        assert session.curve.val_accuracy == private.curve.val_accuracy
        assert session.curve.test_accuracy == private.curve.test_accuracy
        assert session.curve.train_loss == private.curve.train_loss
        for ours, theirs in zip(session.head.net.params(), private.head.net.params()):
            assert np.array_equal(ours, theirs)

    def test_snapshot_of_another_tuner_config_is_not_restored(
        self, artifacts, tmp_path
    ):
        store_dir = str(tmp_path / "store")
        first, _ = select_with(artifacts, 0.05, store_dir)
        second, pool = select_with(artifacts, 0.01, store_dir)
        fresh, _ = select_with(artifacts, 0.01)
        assert pool["restored"] == 0
        assert [s.validation_accuracy for s in second.selection.stages] == [
            s.validation_accuracy for s in fresh.selection.stages
        ]
        assert [s.validation_accuracy for s in first.selection.stages] != [
            s.validation_accuracy for s in fresh.selection.stages
        ]
