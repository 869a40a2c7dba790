"""Tests for repro.zoo.model_cards."""

from repro.zoo.catalog import nlp_catalog
from repro.zoo.model_cards import render_model_card


class TestRenderModelCard:
    def test_contains_name_and_architecture(self):
        entry = next(e for e in nlp_catalog() if e.name == "bert-base-uncased")
        card = render_model_card(entry)
        assert "bert-base-uncased" in card
        assert "Intended uses" in card
        assert "Training procedure" in card

    def test_mentions_finetune_datasets(self):
        entry = next(e for e in nlp_catalog() if e.name == "Jeevesh8/bert_ft_qqp-68")
        card = render_model_card(entry)
        assert "qqp" in card

    def test_no_finetune_mentions_absence(self):
        entry = next(e for e in nlp_catalog() if e.name == "roberta-base")
        card = render_model_card(entry)
        assert "without task-specific fine-tuning" in card

    def test_deterministic(self):
        entry = nlp_catalog()[0]
        assert render_model_card(entry) == render_model_card(entry)

    def test_cards_differ_between_models(self):
        cards = {render_model_card(entry) for entry in nlp_catalog()[:5]}
        assert len(cards) == 5

    def test_sibling_checkpoints_have_similar_cards(self):
        """Same-family fine-tunes should share most of their card text (this is
        exactly why the text baseline clusters them together)."""
        entries = {e.name: e for e in nlp_catalog()}
        card_a = render_model_card(entries["Jeevesh8/bert_ft_qqp-68"])
        card_b = render_model_card(entries["Jeevesh8/bert_ft_qqp-9"])
        tokens_a = set(card_a.lower().split())
        tokens_b = set(card_b.lower().split())
        overlap = len(tokens_a & tokens_b) / len(tokens_a | tokens_b)
        assert overlap > 0.7
