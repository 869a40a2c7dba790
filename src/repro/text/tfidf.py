"""TF-IDF vectoriser over tokenised documents."""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.text.tokenizer import tokenize
from repro.utils.exceptions import DataError


class TfidfVectorizer:
    """Fit a vocabulary on a corpus and transform documents to TF-IDF rows.

    The vectoriser uses smoothed inverse document frequency
    (``log((1 + n) / (1 + df)) + 1``) and L2-normalised rows, matching the
    common implementation so cosine similarities behave as expected.
    """

    def __init__(self, *, max_features: Optional[int] = None, min_df: int = 1) -> None:
        if max_features is not None and max_features < 1:
            raise DataError("max_features must be >= 1 when given")
        if min_df < 1:
            raise DataError("min_df must be >= 1")
        self.max_features = max_features
        self.min_df = int(min_df)
        self.vocabulary_: Dict[str, int] = {}
        self.idf_: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    def fit(self, documents: Sequence[str]) -> "TfidfVectorizer":
        """Learn the vocabulary and IDF weights from ``documents``."""
        if not documents:
            raise DataError("cannot fit a TF-IDF vectoriser on an empty corpus")
        tokenised = [tokenize(doc) for doc in documents]
        document_frequency: Dict[str, int] = {}
        for tokens in tokenised:
            for token in set(tokens):
                document_frequency[token] = document_frequency.get(token, 0) + 1
        terms = [
            term for term, df in document_frequency.items() if df >= self.min_df
        ]
        # Order by document frequency (desc) then alphabetically for stability.
        terms.sort(key=lambda term: (-document_frequency[term], term))
        if self.max_features is not None:
            terms = terms[: self.max_features]
        self.vocabulary_ = {term: index for index, term in enumerate(sorted(terms))}
        n = len(documents)
        idf = np.zeros(len(self.vocabulary_))
        for term, index in self.vocabulary_.items():
            idf[index] = np.log((1.0 + n) / (1.0 + document_frequency[term])) + 1.0
        self.idf_ = idf
        return self

    def transform(self, documents: Sequence[str]) -> np.ndarray:
        """Transform ``documents`` to L2-normalised TF-IDF rows."""
        if self.idf_ is None:
            raise DataError("vectoriser must be fitted before transform")
        matrix = np.zeros((len(documents), len(self.vocabulary_)))
        for row, document in enumerate(documents):
            tokens = tokenize(document)
            if not tokens:
                continue
            counts: Dict[int, int] = {}
            for token in tokens:
                index = self.vocabulary_.get(token)
                if index is not None:
                    counts[index] = counts.get(index, 0) + 1
            for index, count in counts.items():
                matrix[row, index] = (count / len(tokens)) * self.idf_[index]
            norm = np.linalg.norm(matrix[row])
            if norm > 0:
                matrix[row] /= norm
        return matrix

    def fit_transform(self, documents: Sequence[str]) -> np.ndarray:
        """Fit on ``documents`` and return their TF-IDF rows."""
        return self.fit(documents).transform(documents)
