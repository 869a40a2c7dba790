"""Tests for repro.core.performance (the performance matrix)."""

import numpy as np
import pytest

from oracles import build_matrix_loop, update_matrix_loop
from repro.core.performance import (
    PerformanceMatrix,
    build_performance_matrix,
    update_performance_matrix,
)
from repro.nn.batched import FusedSessionGroup
from repro.service import modality_hub
from repro.utils.exceptions import DataError
from repro.zoo.finetune import OFFLINE_GROUP, FineTuneConfig, FineTuner, LearningCurve


class TestPerformanceMatrixStructure:
    def test_shape_matches_hub_and_suite(self, nlp_matrix_small, nlp_hub_small, nlp_suite_small):
        assert nlp_matrix_small.values.shape == (
            len(nlp_suite_small.benchmark_names),
            len(nlp_hub_small),
        )
        assert nlp_matrix_small.model_names == nlp_hub_small.model_names
        assert nlp_matrix_small.dataset_names == nlp_suite_small.benchmark_names

    def test_values_are_valid_accuracies(self, nlp_matrix_small):
        assert np.all(nlp_matrix_small.values >= 0.0)
        assert np.all(nlp_matrix_small.values <= 1.0)

    def test_curves_recorded_for_every_cell(self, nlp_matrix_small):
        expected = len(nlp_matrix_small.model_names) * len(nlp_matrix_small.dataset_names)
        assert len(nlp_matrix_small.curves) == expected

    def test_value_lookup_matches_curve(self, nlp_matrix_small):
        model = nlp_matrix_small.model_names[0]
        dataset = nlp_matrix_small.dataset_names[0]
        assert nlp_matrix_small.value(dataset, model) == pytest.approx(
            nlp_matrix_small.curve(model, dataset).final_test
        )

    def test_model_vector(self, nlp_matrix_small):
        vector = nlp_matrix_small.model_vector("bert-base-uncased")
        assert vector.shape == (len(nlp_matrix_small.dataset_names),)

    def test_average_accuracy(self, nlp_matrix_small):
        average = nlp_matrix_small.average_accuracy("bert-base-uncased")
        assert np.isclose(average, nlp_matrix_small.model_vector("bert-base-uncased").mean())

    def test_average_accuracies_equal_per_name_lookups(self):
        rng = np.random.default_rng(5)
        names = [f"m{i}" for i in range(300)]
        matrix = PerformanceMatrix(
            dataset_names=[f"d{i}" for i in range(24)],
            model_names=names,
            values=rng.uniform(0, 1, size=(24, 300)),
        )
        averages = matrix.average_accuracies()
        assert list(averages) == names
        assert all(averages[name] == matrix.average_accuracy(name) for name in names)

    @pytest.mark.parametrize(
        "widths", [range(1, 301), [511, 512, 513, 2049, 10_000]], ids=["1-300", "wide"]
    )
    def test_average_accuracies_bytes_equal_column_means(self, widths):
        # One axis-1 mean must replay np.mean's pairwise sum on every column.
        rng = np.random.default_rng(11)
        for width in widths:
            values = rng.uniform(0, 1, size=(width, 3))
            values[:, 2] = -0.0
            matrix = PerformanceMatrix(
                dataset_names=[f"d{i}" for i in range(width)],
                model_names=["a", "b", "c"],
                values=values,
            )
            averages = matrix.average_accuracies()
            columns = np.ascontiguousarray(values.T)
            for index, name in enumerate(matrix.model_names):
                expected = np.float64(np.mean(columns[index]))
                assert np.float64(averages[name]).tobytes() == expected.tobytes(), width

    def test_best_model_for(self, nlp_matrix_small):
        dataset = nlp_matrix_small.dataset_names[0]
        best = nlp_matrix_small.best_model_for(dataset)
        row = nlp_matrix_small.values[0]
        assert nlp_matrix_small.value(dataset, best) == row.max()

    def test_unknown_lookups_raise(self, nlp_matrix_small):
        with pytest.raises(DataError):
            nlp_matrix_small.value("nope", "bert-base-uncased")
        with pytest.raises(DataError):
            nlp_matrix_small.model_vector("nope")
        with pytest.raises(DataError):
            nlp_matrix_small.curve("bert-base-uncased", "nope")

    def test_curves_for_model(self, nlp_matrix_small):
        curves = nlp_matrix_small.curves_for_model("roberta-base")
        assert set(curves) == set(nlp_matrix_small.dataset_names)

    def test_submatrix(self, nlp_matrix_small):
        sub = nlp_matrix_small.submatrix(["bert-base-uncased", "roberta-base"])
        assert sub.model_names == ["bert-base-uncased", "roberta-base"]
        assert sub.values.shape[1] == 2
        assert np.allclose(
            sub.model_vector("roberta-base"),
            nlp_matrix_small.model_vector("roberta-base"),
        )

    def test_invalid_shape_rejected(self):
        with pytest.raises(DataError):
            PerformanceMatrix(["d1"], ["m1", "m2"], np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cell_rejected_where_it_enters(self, bad):
        # Unchecked, a NaN cell surfaced only at clustering time as a
        # misleading "distance matrix must be symmetric".
        values = np.full((2, 3), 0.5)
        values[1, 2] = bad
        values[1, 0] = np.nan  # a later cell in row order is not the one named
        values[0, 1] = bad
        payload = {"dataset_names": ["d0", "d1"], "model_names": ["m0", "m1", "m2"],
                   "values": values.tolist()}
        for build in (
            lambda: PerformanceMatrix(["d0", "d1"], ["m0", "m1", "m2"], values),
            lambda: PerformanceMatrix.from_dict(payload),
        ):
            with pytest.raises(DataError, match=r"\('d0', 'm1'\).*not finite"):
                build()


class TestSerialization:
    def test_json_round_trip(self, nlp_matrix_small):
        restored = PerformanceMatrix.from_json(nlp_matrix_small.to_json())
        assert restored.model_names == nlp_matrix_small.model_names
        assert restored.dataset_names == nlp_matrix_small.dataset_names
        assert np.allclose(restored.values, nlp_matrix_small.values)
        model = nlp_matrix_small.model_names[0]
        dataset = nlp_matrix_small.dataset_names[0]
        assert restored.curve(model, dataset).val_accuracy == nlp_matrix_small.curve(
            model, dataset
        ).val_accuracy

    def test_from_dict_without_curves(self):
        matrix = PerformanceMatrix.from_dict(
            {
                "dataset_names": ["d1"],
                "model_names": ["m1"],
                "values": [[0.5]],
            }
        )
        assert matrix.value("d1", "m1") == 0.5


class TestBuilder:
    def test_strong_models_have_higher_average(self, nlp_matrix_small):
        strong = nlp_matrix_small.average_accuracy("roberta-base")
        weak = nlp_matrix_small.average_accuracy(
            "CAMeL-Lab/bert-base-arabic-camelbert-mix-did-nadi"
        )
        assert strong > weak

    def test_benchmark_names_filter(self, nlp_hub_small, nlp_suite_small, fine_tuner):
        matrix = build_performance_matrix(
            nlp_hub_small.subset(["bert-base-uncased", "roberta-base"]),
            nlp_suite_small,
            fine_tuner=fine_tuner,
            epochs=1,
            benchmark_names=["sst2", "cola"],
        )
        assert matrix.dataset_names == ["sst2", "cola"]
        assert matrix.epochs == 1


def assert_same_matrix(got, expected):
    """Bitwise values, every curve list and the curve key order."""
    assert got.dataset_names == expected.dataset_names
    assert got.model_names == expected.model_names
    assert got.epochs == expected.epochs
    assert np.array_equal(got.values.view(np.uint64), expected.values.view(np.uint64))
    assert list(got.curves) == list(expected.curves)
    for key, curve in expected.curves.items():
        mine = got.curves[key]
        assert mine.val_accuracy == curve.val_accuracy, key
        assert mine.test_accuracy == curve.test_accuracy, key
        assert mine.train_loss == curve.train_loss, key


class TestGroupedBuildMatchesOracle:
    """The benchmark-outer, grouped and fused build equals the serial
    model-major loop it replaced."""

    @pytest.mark.parametrize("modality", ["nlp", "cv"])
    @pytest.mark.parametrize("epochs", [1, 2, 3])
    def test_build(self, request, modality, epochs):
        hub = request.getfixturevalue(f"{modality}_hub_small")
        suite = request.getfixturevalue(f"{modality}_suite_small")
        tuner = FineTuner(FineTuneConfig(epochs=3), seed=0)
        got = build_performance_matrix(hub, suite, fine_tuner=tuner, epochs=epochs)
        assert_same_matrix(got, build_matrix_loop(hub, suite, tuner, epochs))

    @pytest.mark.parametrize("added", [0, 1, 3])
    def test_update(self, nlp_hub_small, nlp_suite_small, added):
        tuner = FineTuner(FineTuneConfig(epochs=2), seed=0)
        names = nlp_hub_small.model_names
        old_hub = nlp_hub_small.subset(names[: len(names) - added])
        old = build_performance_matrix(
            old_hub, nlp_suite_small, fine_tuner=tuner, epochs=2,
            benchmark_names=["cola", "sst2", "rte"],
        )
        new_hub = nlp_hub_small.subset(names[1:])
        got = update_performance_matrix(old, new_hub, nlp_suite_small, fine_tuner=tuner)
        assert_same_matrix(got, update_matrix_loop(old, new_hub, nlp_suite_small, tuner))


class TestOfflineGroups:
    @pytest.fixture()
    def advances(self, monkeypatch):
        calls = []
        original = FusedSessionGroup.advance

        def spy(self, epochs):
            report = original(self, epochs)
            calls.append(report)
            return report

        monkeypatch.setattr(FusedSessionGroup, "advance", spy)
        return calls

    def test_groups_are_bounded_and_fused(self, nlp_hub_small, nlp_suite_small, advances):
        assert len(nlp_hub_small) == 12
        build_performance_matrix(
            nlp_hub_small, nlp_suite_small, fine_tuner=FineTuner(seed=0), epochs=3,
            benchmark_names=["cola", "sst2"],
        )
        assert [report.sessions for report in advances] == [OFFLINE_GROUP, 2] * 2
        assert all(report.verified and not report.delegated for report in advances)
        # cola and sst2 share every kernel shape: only the first group of
        # each size probes.
        assert [report.probe_epochs for report in advances] == [OFFLINE_GROUP, 2, 0, 0]

    @pytest.mark.parametrize("modality, models, most_probes", [("nlp", 40, 6), ("cv", None, 5)])
    def test_full_build_probes_once_per_geometry(self, advances, modality, models, most_probes):
        suite, hub = modality_hub(modality, num_models=models)
        build_performance_matrix(hub, suite, fine_tuner=FineTuner(seed=0))
        groups_per_task = -(-len(hub) // OFFLINE_GROUP)
        assert len(advances) == len(suite.benchmark_names) * groups_per_task
        assert all(report.verified for report in advances)
        assert sum(report.probe_epochs > 0 for report in advances) <= most_probes

    @pytest.mark.parametrize("epochs, models", [(1, 12), (3, 1)])
    def test_one_epoch_or_one_model_makes_no_group(
        self, nlp_hub_small, nlp_suite_small, advances, epochs, models
    ):
        build_performance_matrix(
            nlp_hub_small.subset(nlp_hub_small.model_names[:models]),
            nlp_suite_small, fine_tuner=FineTuner(seed=0), epochs=epochs,
            benchmark_names=["cola", "sst2"],
        )
        assert advances == []
