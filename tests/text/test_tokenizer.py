"""Tests for repro.text.tokenizer."""

from repro.text.tokenizer import tokenize


class TestTokenize:
    def test_lowercases_and_splits(self):
        assert tokenize("Hello World") == ["hello", "world"]

    def test_splits_model_names_into_pieces(self):
        tokens = tokenize("Jeevesh8/bert_ft_qqp-68")
        assert "bert" in tokens
        assert "qqp" in tokens
        assert "68" in tokens

    def test_removes_stopwords(self):
        tokens = tokenize("this is a model for the task")
        assert "the" not in tokens
        assert "model" in tokens

    def test_min_length_filter(self):
        assert tokenize("a b cd") == ["cd"]

    def test_empty_string(self):
        assert tokenize("") == []

    def test_punctuation_only(self):
        assert tokenize("!!! --- ...") == []
