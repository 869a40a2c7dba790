"""Unit tests for the SessionPool's reuse, accounting and eviction."""

import pytest

from repro.cache import fingerprint_model, fingerprint_task, session_key
from repro.sched.pool import SessionPool
from repro.utils.exceptions import SelectionError


@pytest.fixture()
def pool(fine_tuner):
    return SessionPool(fine_tuner)


@pytest.fixture(scope="module")
def task(nlp_suite_small):
    return nlp_suite_small.task("mnli")


@pytest.fixture(scope="module")
def other_task(nlp_suite_small):
    return nlp_suite_small.task("boolq")


@pytest.fixture(scope="module")
def model(nlp_hub_small):
    return nlp_hub_small.get("bert-base-uncased")


class TestAcquire:
    def test_miss_then_hit(self, pool, model, task):
        first = pool.acquire(model, task, version_key="v0-abc")
        second = pool.acquire(model, task, version_key="v0-abc")
        assert first.entry is second.entry
        stats = pool.stats()
        assert stats["misses"] == 1 and stats["hits"] == 1

    def test_distinct_tasks_do_not_share(self, pool, model, task, other_task):
        a = pool.acquire(model, task, version_key="v0-abc")
        b = pool.acquire(model, other_task, version_key="v0-abc")
        assert a.entry is not b.entry

    def test_distinct_versions_do_not_share(self, pool, model, task):
        a = pool.acquire(model, task, version_key="v0-abc")
        b = pool.acquire(model, task, version_key="v1-def")
        assert a.entry is not b.entry

    def test_key_shape_matches_cache_helper(self, pool, model, task):
        view = pool.acquire(model, task, version_key="v0-abc")
        expected = session_key(
            "v0-abc", fingerprint_model(model), fingerprint_task(task, split="all")
        )
        assert view.entry.key == expected


def advance(pool, view, epochs):
    """Advance ``view`` the way a scheduler round does; return epochs trained."""
    trained = view.entry.ensure_epochs(view.position + epochs)
    view.adopt(view.entry.session, advance=epochs)
    pool.record_round(charged=epochs, trained=trained)
    return trained


class TestAdvance:
    def test_reuse_avoids_retraining(self, pool, model, task):
        a = pool.acquire(model, task, version_key="v0")
        b = pool.acquire(model, task, version_key="v0")
        trained_a = advance(pool, a, 2)
        trained_b = advance(pool, b, 2)  # fully served from the shared prefix
        assert (trained_a, trained_b) == (2, 0)
        stats = pool.stats()
        assert stats["epochs_trained"] == 2
        assert stats["epochs_reused"] == 2

    def test_views_read_their_own_epochs(self, pool, model, task):
        a = pool.acquire(model, task, version_key="v0")
        b = pool.acquire(model, task, version_key="v0")
        advance(pool, a, 3)
        advance(pool, b, 1)
        curve = a.entry.session.curve
        assert a.validation_accuracy() == curve.val_accuracy[2]
        assert b.validation_accuracy() == curve.val_accuracy[0]

    def test_shared_session_equals_private_session(self, fine_tuner, model, task):
        """A pooled continuation is bitwise-equal to a private session."""
        pool = SessionPool(fine_tuner)
        a = pool.acquire(model, task, version_key="v0")
        advance(pool, a, 1)
        b = pool.acquire(model, task, version_key="v0")
        advance(pool, b, 3)  # trains 2 more on top of a's prefix
        private = fine_tuner.start_session(model, task)
        private.train_epochs(3)
        assert b.entry.session.curve.val_accuracy == private.curve.val_accuracy
        assert b.entry.session.curve.test_accuracy == private.curve.test_accuracy


class TestEviction:
    def test_evict_version_drops_idle_entries(self, pool, model, task):
        view = pool.acquire(model, task, version_key="v0-old")
        pool.acquire(model, task, version_key="v1-new")
        pool.release(view)
        assert pool.evict_version("v0-old") == 1
        assert len(pool) == 1

    def test_leased_entries_survive_eviction(self, pool, model, task):
        pool.acquire(model, task, version_key="v0-old")  # lease kept
        assert pool.evict_version("v0-old") == 0
        assert len(pool) == 1

    def test_lru_bound_evicts_idle_only(self, fine_tuner, nlp_hub_small, task):
        pool = SessionPool(fine_tuner, max_sessions=2)
        names = nlp_hub_small.model_names[:3]
        views = [
            pool.acquire(nlp_hub_small.get(name), task, version_key="v0")
            for name in names[:2]
        ]
        pool.release(views[0])
        pool.acquire(nlp_hub_small.get(names[2]), task, version_key="v0")
        assert len(pool) == 2  # the released entry was evicted
        assert pool.stats()["evicted"] == 1

    def test_record_round_accounting(self, pool):
        pool.record_round(charged=10, trained=4)
        stats = pool.stats()
        assert stats["epochs_trained"] == 4
        assert stats["epochs_reused"] == 6

    def test_max_sessions_validation(self, fine_tuner):
        with pytest.raises(SelectionError):
            SessionPool(fine_tuner, max_sessions=0)
