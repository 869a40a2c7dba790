"""Tests for repro.cluster.distance."""

import numpy as np
import pytest

from repro.cluster import distance as distance_module
from repro.cluster.distance import (
    check_distance_matrix,
    pairwise_distances,
    similarity_to_distance,
)
from repro.utils.exceptions import DataError
from oracles import symmetrised_distance


class TestPairwiseDistances:
    def test_euclidean_matches_manual(self):
        points = np.array([[0.0, 0.0], [3.0, 4.0]])
        distances = pairwise_distances(points)
        assert np.isclose(distances[0, 1], 5.0)

    def test_symmetric_zero_diagonal(self):
        points = np.random.default_rng(0).normal(size=(6, 4))
        distances = pairwise_distances(points)
        assert np.allclose(distances, distances.T)
        assert np.allclose(np.diag(distances), 0.0)

    def test_rejects_1d(self):
        with pytest.raises(DataError):
            pairwise_distances(np.ones(4))


class TestSimilarityToDistance:
    def test_conversion(self):
        similarity = np.array([[1.0, 0.8], [0.8, 1.0]])
        distance = similarity_to_distance(similarity)
        assert np.isclose(distance[0, 1], 0.2)
        assert np.allclose(np.diag(distance), 0.0)

    def test_clips_negative_distances(self):
        similarity = np.array([[1.0, 1.2], [1.2, 1.0]])
        assert similarity_to_distance(similarity).min() >= 0.0

    def test_rejects_non_square(self):
        with pytest.raises(DataError):
            similarity_to_distance(np.ones((2, 3)))


def _symmetric_similarity(n, seed=0):
    upper = np.triu(np.random.default_rng(seed).uniform(-0.2, 1.2, size=(n, n)), 1)
    similarity = upper + upper.T
    np.fill_diagonal(similarity, 1.0)
    return similarity


def _with_pair(matrix, i, j, value):
    out = matrix.copy()
    out[i, j] = out[j, i] = value
    return out


def _with_entry(matrix, i, j, value):
    out = matrix.copy()
    out[i, j] = value
    return out


class TestSimilarityToDistanceFastPath:
    """The exact-symmetry shortcut returns the bytes of the symmetrising oracle."""

    BASE = _symmetric_similarity(40)
    CASES = {
        "symmetric": BASE,
        "asymmetric": np.random.default_rng(1).uniform(0.0, 1.0, size=(40, 40)),
        "one-ulp-asymmetric": _with_entry(BASE, 3, 17, np.nextafter(BASE[17, 3], 2.0)),
        "nan-pair": _with_pair(BASE, 3, 17, np.nan),
        "nan-one-side": _with_entry(BASE, 5, 30, np.nan),
        "plus-inf-pair": _with_pair(BASE, 3, 17, np.inf),
        "minus-inf-pair": _with_pair(BASE, 3, 17, -np.inf),
        # d = 1e308: d + d overflows, so (d + d.T) / 2 is inf, not d.
        "overflowing-pair": _with_pair(BASE, 3, 17, -1e308),
        "empty": np.zeros((0, 0)),
        "single": np.array([[0.25]]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bytes_equal_oracle(self, case):
        similarity = self.CASES[case]
        with np.errstate(over="ignore"):
            result = similarity_to_distance(similarity)
            expected = symmetrised_distance(similarity)
        assert result.shape == expected.shape and result.dtype == expected.dtype
        assert result.tobytes() == expected.tobytes()

    def test_result_never_aliases_input(self):
        similarity = _symmetric_similarity(8)
        before = similarity.copy()
        similarity_to_distance(similarity)[:] = 7.0
        assert similarity.tobytes() == before.tobytes()


class TestCheckDistanceMatrix:
    def test_accepts_valid(self):
        matrix = pairwise_distances(np.random.default_rng(0).normal(size=(4, 2)))
        assert check_distance_matrix(matrix).shape == (4, 4)

    def test_rejects_asymmetric(self):
        with pytest.raises(DataError):
            check_distance_matrix(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(DataError):
            check_distance_matrix(np.array([[1.0, 0.5], [0.5, 0.0]]))

    def test_rejects_negative(self):
        with pytest.raises(DataError):
            check_distance_matrix(np.array([[0.0, -0.5], [-0.5, 0.0]]))


def _valid_distance(n=20, seed=0):
    return symmetrised_distance(_symmetric_similarity(n, seed))


def _perturbed(kind, i, j):
    matrix = _valid_distance()
    if kind == "off-1e-9":
        matrix[i, j] += 1e-9
    elif kind == "off-1e-3":
        matrix[i, j] += 1e-3
    elif kind == "nan":
        matrix[i, j] = matrix[j, i] = np.nan
    return matrix


class TestCheckDistanceMatrixVerdicts:
    """The exact-equality pass before ``allclose`` changes no verdict."""

    VERDICTS = {"exact": True, "off-1e-9": True, "off-1e-3": False, "nan": False}

    @pytest.mark.parametrize("kind", sorted(VERDICTS))
    @pytest.mark.parametrize("pair", [(1, 2), (3, 17)])
    def test_dense(self, kind, pair):
        matrix = _perturbed(kind, *pair)
        if self.VERDICTS[kind]:
            assert check_distance_matrix(matrix) is matrix
        else:
            with pytest.raises(DataError, match="symmetric"):
                check_distance_matrix(matrix)

    @pytest.mark.parametrize("kind", sorted(VERDICTS))
    @pytest.mark.parametrize("pair", [(1, 2), (3, 17)])
    def test_memmap_block_pairs(self, kind, pair, tmp_path, monkeypatch):
        # 8-row blocks over 20 rows: (1, 2) sits in a diagonal block pair,
        # (3, 17) in an off-diagonal one.
        monkeypatch.setattr(distance_module, "STREAM_BLOCK_ROWS", 8)
        path = tmp_path / "distance.npy"
        np.save(path, _perturbed(kind, *pair))
        matrix = np.load(path, mmap_mode="r")
        assert isinstance(matrix, np.memmap)
        if self.VERDICTS[kind]:
            assert check_distance_matrix(matrix) is matrix
        else:
            with pytest.raises(DataError, match="symmetric"):
                check_distance_matrix(matrix)
