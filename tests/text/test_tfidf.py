"""Tests for repro.text.tfidf.TfidfVectorizer."""

import numpy as np
import pytest

from repro.text.tfidf import TfidfVectorizer
from repro.utils.exceptions import DataError

CORPUS = [
    "bert model fine-tuned on qqp paraphrase detection",
    "bert model fine-tuned on cola acceptability",
    "vision transformer trained on imagenet",
    "roberta model pretrained with dynamic masking",
]


class TestTfidfVectorizer:
    def test_rows_are_unit_norm(self):
        matrix = TfidfVectorizer().fit_transform(CORPUS)
        norms = np.linalg.norm(matrix, axis=1)
        assert np.allclose(norms[norms > 0], 1.0)

    def test_shape(self):
        vectorizer = TfidfVectorizer()
        matrix = vectorizer.fit_transform(CORPUS)
        assert matrix.shape == (4, len(vectorizer.vocabulary_))

    def test_similar_documents_more_similar(self):
        matrix = TfidfVectorizer().fit_transform(CORPUS)
        similarity = matrix @ matrix.T
        assert similarity[0, 1] > similarity[0, 2]

    def test_max_features_caps_vocabulary(self):
        vectorizer = TfidfVectorizer(max_features=5)
        vectorizer.fit(CORPUS)
        assert len(vectorizer.vocabulary_) <= 5

    def test_min_df_filters_rare_terms(self):
        vectorizer = TfidfVectorizer(min_df=2)
        vectorizer.fit(CORPUS)
        assert "imagenet" not in vectorizer.vocabulary_
        assert "model" in vectorizer.vocabulary_

    def test_rare_term_has_higher_idf_than_common_term(self):
        vectorizer = TfidfVectorizer()
        vectorizer.fit(CORPUS)
        idf = vectorizer.idf_
        assert idf[vectorizer.vocabulary_["qqp"]] > idf[vectorizer.vocabulary_["model"]]

    def test_transform_unknown_terms_ignored(self):
        vectorizer = TfidfVectorizer().fit(CORPUS)
        row = vectorizer.transform(["completely unrelated words xyzzy"])
        assert np.allclose(row, 0.0)

    def test_transform_before_fit_rejected(self):
        with pytest.raises(DataError):
            TfidfVectorizer().transform(["text"])

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            TfidfVectorizer().fit([])
