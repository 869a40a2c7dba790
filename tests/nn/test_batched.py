"""Tests for repro.nn.batched: stacked kernels vs the serial oracle."""

import numpy as np
import pytest

from repro.nn.batched import (
    FusedSessionGroup,
    StackedHeads,
    StackedOptimizer,
    fused_fit_epoch,
    heads_compatible,
    stacked_predictions,
)
from repro.nn.network import MLPClassifier
from repro.utils.exceptions import ConfigurationError
from repro.zoo.finetune import FineTuneConfig, FineTuner


def make_heads(count, *, input_dim=12, num_classes=3, l2=1e-4,
               learning_rate=5e-2, seed=0):
    return [
        MLPClassifier(
            input_dim=input_dim,
            num_classes=num_classes,
            l2=l2,
            learning_rate=learning_rate,
            rng=np.random.default_rng(seed + index),
        )
        for index in range(count)
    ]


def make_clones(count, **kwargs):
    """Two structurally identical head groups (same RNG streams)."""
    return make_heads(count, **kwargs), make_heads(count, **kwargs)


def train_serial(heads, x, y, epochs, batch_size):
    for head in heads:
        for _ in range(epochs):
            head.fit_epoch(x, y, batch_size=batch_size)


def train_fused(heads, x, y, epochs, batch_size):
    stacked = StackedHeads(heads)
    slab = np.stack([x] * len(heads))
    losses, accuracies = [], []
    for _ in range(epochs):
        perms = np.stack([head._rng.permutation(x.shape[0]) for head in heads])
        epoch_losses, epoch_accs = fused_fit_epoch(
            stacked, slab, y, perms, batch_size=batch_size
        )
        losses.append(epoch_losses)
        accuracies.append(epoch_accs)
    stacked.writeback()
    return losses, accuracies


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(42)
    x = rng.normal(size=(50, 12))
    y = rng.integers(0, 3, size=50)
    return x, y


class TestHeadsCompatible:
    def test_same_geometry_is_compatible(self):
        assert heads_compatible(make_heads(3))

    def test_empty_group_is_not(self):
        assert not heads_compatible([])

    def test_mixed_optimizers_are_not(self):
        a = make_heads(1, learning_rate=5e-2)[0]
        b = make_heads(1, learning_rate=1e-2)[0]
        assert not heads_compatible([a, b])

    def test_mixed_shapes_are_not(self):
        a = make_heads(1)[0]
        for other in ({"num_classes": 2}, {"input_dim": 8}, {"l2": 0.0}):
            assert not heads_compatible([a, make_heads(1, **other)[0]])

    def test_mixed_adam_clock_is_not(self):
        a, b = make_heads(2)
        a.fit(np.zeros((4, 12)), np.array([0, 1, 2, 0]), epochs=1, batch_size=4)
        assert not heads_compatible([a, b])

    def test_stacked_heads_rejects_incompatible(self):
        a = make_heads(1, learning_rate=5e-2)[0]
        b = make_heads(1, learning_rate=1e-2)[0]
        with pytest.raises(ConfigurationError):
            StackedHeads([a, b])
        with pytest.raises(ConfigurationError):
            StackedHeads([])


class TestStackedKernelsBitwise:
    @pytest.mark.parametrize("count", [2, 4])
    @pytest.mark.parametrize("num_classes", [2, 3])
    @pytest.mark.parametrize("learning_rate", [5e-2, 1e-2])
    @pytest.mark.parametrize("l2", [0.0, 1e-4])
    @pytest.mark.parametrize("batch_size", [16, 25])  # 50 rows: a final batch of 2, or none
    def test_training_matches_serial(
        self, problem, count, num_classes, learning_rate, l2, batch_size
    ):
        x, y = problem
        y = y % num_classes
        serial, fused = make_clones(
            count, num_classes=num_classes, learning_rate=learning_rate, l2=l2
        )
        train_serial(serial, x, y, epochs=3, batch_size=batch_size)
        losses, accuracies = train_fused(fused, x, y, epochs=3, batch_size=batch_size)
        for s, (a, b) in enumerate(zip(serial, fused)):
            assert a.history.train_loss == [losses[e][s] for e in range(3)]
            assert a.history.train_accuracy == [accuracies[e][s] for e in range(3)]
            for pa, pb in zip(a.net.params(), b.net.params()):
                assert np.array_equal(pa, pb)

    def test_partial_final_batch(self, problem):
        x, y = problem  # 50 rows, batch 16 -> final batch of 2
        serial, fused = make_clones(3)
        train_serial(serial, x, y, epochs=2, batch_size=16)
        train_fused(fused, x, y, epochs=2, batch_size=16)
        for a, b in zip(serial, fused):
            for pa, pb in zip(a.net.params(), b.net.params()):
                assert np.array_equal(pa, pb)

    def test_writeback_preserves_layer_array_identity(self, problem):
        x, y = problem
        heads = make_heads(2)
        before = [id(p) for head in heads for p in head.net.params()]
        train_fused(heads, x, y, epochs=1, batch_size=16)
        after = [id(p) for head in heads for p in head.net.params()]
        assert before == after

    def test_continuation_after_writeback_matches_serial(self, problem):
        """Serial epochs after fused epochs equal an all-serial run."""
        x, y = problem
        serial, fused = make_clones(3)
        train_serial(serial, x, y, epochs=3, batch_size=16)
        train_fused(fused, x, y, epochs=2, batch_size=16)
        for head in fused:
            head.fit_epoch(x, y, batch_size=16)
        for a, b in zip(serial, fused):
            for pa, pb in zip(a.net.params(), b.net.params()):
                assert np.array_equal(pa, pb)

    def test_stacked_predictions_match_per_head_predict(self, problem):
        x, y = problem
        heads = make_heads(3)
        train_serial(heads, x, y, epochs=1, batch_size=16)
        stacked = StackedHeads(heads)
        batch = np.stack([x] * 3)
        fused = stacked_predictions(stacked, batch)
        for s, head in enumerate(heads):
            assert np.array_equal(fused[s], head.predict(x))


class TestStackedOptimizer:
    def test_adopts_existing_moments(self, problem):
        x, y = problem
        heads = make_heads(2)
        train_serial(heads, x, y, epochs=1, batch_size=16)
        stacked = StackedOptimizer(heads)
        assert stacked._t == heads[0].optimizer._t
        for s, head in enumerate(heads):
            for mine, theirs in zip(stacked._m + stacked._v, head.optimizer._m + head.optimizer._v):
                assert np.array_equal(mine[s], theirs)

    def test_rejects_mixed_groups(self):
        a, b = make_heads(2)
        c = make_heads(1, learning_rate=1e-2)[0]
        with pytest.raises(ConfigurationError):
            StackedOptimizer([a, c])
        b.fit(np.zeros((4, 12)), np.array([0, 1, 2, 0]), epochs=1, batch_size=4)
        with pytest.raises(ConfigurationError):
            StackedOptimizer([a, b])
        with pytest.raises(ConfigurationError):
            StackedOptimizer([])

    def test_rejects_misaligned_step(self):
        stacked = StackedOptimizer(make_heads(2))
        with pytest.raises(ConfigurationError):
            stacked.step([np.zeros(2)], [])


def make_sessions(count, *, learning_rate=5e-2, seed=0, task="sst2"):
    """``count`` fresh sessions; every small-scale task shares its slab shapes."""
    from repro.data.workloads import DataScale, WorkloadSuite
    from repro.zoo.hub import ModelHub

    suite = WorkloadSuite(
        "nlp", seed=0, scale=DataScale.small(),
        benchmark_names=["sst2", "cola", "snli"], target_names=["mnli"],
    )
    hub = ModelHub(suite, seed=0)
    tuner = FineTuner(FineTuneConfig(epochs=5, learning_rate=learning_rate), seed=seed)
    return [tuner.start_session(hub.get(name), suite.task(task))
            for name in hub.model_names[:count]]


def assert_same_curves(serial, fused):
    for a, b in zip(serial, fused):
        assert a.curve.train_loss == b.curve.train_loss
        assert a.curve.val_accuracy == b.curve.val_accuracy
        assert a.curve.test_accuracy == b.curve.test_accuracy
        assert a.head.history.train_accuracy == b.head.history.train_accuracy
        for pa, pb in zip(a.head.net.params(), b.head.net.params()):
            assert np.array_equal(pa, pb)


def lie_in_fused_kernel(monkeypatch):
    """Make every fused epoch report losses off by 1e-9 (a diverging kernel)."""
    import repro.nn.batched as batched

    real = batched.fused_fit_epoch

    def lying_fit_epoch(stacked, x, y, perms, *, batch_size):
        losses, accuracies = real(stacked, x, y, perms, batch_size=batch_size)
        return [loss + 1e-9 for loss in losses], accuracies

    monkeypatch.setattr(batched, "fused_fit_epoch", lying_fit_epoch)


class TestFusedSessionGroup:
    def test_probe_verifies_and_matches_serial(self):
        serial = make_sessions(4)
        fused = make_sessions(4)
        for session in serial:
            session.train_epochs(3)
        report = FusedSessionGroup(fused).advance(3)
        assert report.verified and not report.delegated
        assert report.fused_epochs + report.serial_epochs == 4 * 3
        assert report.probe_epochs == 4
        assert_same_curves(serial, fused)

    def test_unprobed_advance_matches_serial(self):
        """A second group of a verified geometry trains fused, unprobed."""
        FusedSessionGroup(make_sessions(3)).advance(2)
        serial = make_sessions(3, task="cola")
        fused = make_sessions(3, task="cola")
        for session in serial:
            session.train_epochs(2)
        report = FusedSessionGroup(fused).advance(2)
        assert report.verified and report.probe_epochs == 0
        assert report.fused_epochs == 3 * 2
        assert_same_curves(serial, fused)

    @pytest.mark.parametrize("count, task", [(2, "sst2"), (3, "snli")])
    def test_other_size_or_class_count_probes_again(self, count, task):
        assert FusedSessionGroup(make_sessions(3)).advance(2).probe_epochs == 3
        report = FusedSessionGroup(make_sessions(count, task=task)).advance(2)
        assert report.verified and report.probe_epochs == count

    def test_injected_divergence_delegates_to_serial(self, monkeypatch):
        """A lying kernel must lose to the oracle, not corrupt results."""
        serial = make_sessions(3)
        fused = make_sessions(3)
        for session in serial:
            session.train_epochs(3)

        lie_in_fused_kernel(monkeypatch)
        report = FusedSessionGroup(fused).advance(3)
        assert report.delegated and not report.verified
        assert report.mismatches
        assert report.fused_epochs == 0
        assert report.serial_epochs == 3 * 3
        # Delegation kept the serial trajectory: results still exact.
        assert_same_curves(serial, fused)

    def test_failed_verdict_sends_next_group_serial_unprobed(self, monkeypatch):
        lie_in_fused_kernel(monkeypatch)
        assert FusedSessionGroup(make_sessions(3)).advance(2).delegated
        serial = make_sessions(3, task="cola")
        fused = make_sessions(3, task="cola")
        for session in serial:
            session.train_epochs(3)
        report = FusedSessionGroup(fused).advance(3)
        assert report.delegated and not report.verified
        assert report.probe_epochs == 0 and not report.mismatches
        assert report.fused_epochs == 0
        assert report.serial_epochs == 3 * 3
        assert_same_curves(serial, fused)

    def test_concurrent_groups_share_one_verdict(self):
        """Threads advancing one geometry at once stay bitwise and agree."""
        import sys
        import threading

        from repro.nn.batched import _VERDICTS

        workers = 4
        groups = [make_sessions(2) for _ in range(workers)]
        serial = make_sessions(2)
        for session in serial:
            session.train_epochs(3)
        reports = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(
                    target=lambda g=g: reports.append(FusedSessionGroup(g).advance(3))
                )
                for g in groups
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(reports) == workers
        assert all(report.verified for report in reports)
        assert list(_VERDICTS.values()) == [True]
        for fused in groups:
            assert_same_curves(serial, fused)

    def test_group_rejects_mixed_positions(self):
        sessions = make_sessions(2)
        sessions[0].train_epochs(1)
        with pytest.raises(ConfigurationError):
            FusedSessionGroup(sessions)

    def test_group_rejects_mixed_signatures(self):
        a = make_sessions(1, learning_rate=5e-2)
        b = make_sessions(1, learning_rate=1e-2)
        with pytest.raises(ConfigurationError):
            FusedSessionGroup(a + b)

    def test_advance_rejects_non_positive(self):
        with pytest.raises(ConfigurationError):
            FusedSessionGroup(make_sessions(2)).advance(0)
