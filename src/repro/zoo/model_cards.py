"""Synthetic model cards.

The paper's text-based clustering baseline (Table I) embeds each checkpoint's
HuggingFace model card with SBERT and clusters the embeddings.  Offline we
generate a deterministic model card per catalogue entry containing the same
kind of content a real card does — architecture, pre-training corpus,
fine-tuning datasets, intended use — so the text baseline has realistic
signal (names and datasets) while missing the training-performance structure
the performance-based similarity captures.
"""

from __future__ import annotations

from typing import Dict, List

from repro.zoo.catalog import ModelCatalogEntry

_ARCHITECTURE_BLURBS: Dict[str, str] = {
    "bert": "a bidirectional transformer encoder pre-trained with masked language modelling",
    "albert": "a parameter-shared transformer encoder with sentence-order prediction",
    "roberta": "a robustly optimised BERT variant trained with dynamic masking",
    "distilbert": "a distilled six-layer student of BERT base",
    "xlm-roberta": "a multilingual RoBERTa encoder covering one hundred languages",
    "mbert": "a multilingual BERT encoder trained on Wikipedia in many languages",
    "arabert": "an Arabic BERT encoder trained on Arabic news and web text",
    "bertic": "a BERT-style encoder for Bosnian, Croatian, Montenegrin and Serbian",
    "danish-bert": "a BERT encoder trained on Danish web text",
    "vit": "a vision transformer that processes images as patch sequences",
    "vit-dino": "a vision transformer trained with the self-supervised DINO objective",
    "vit-msn": "a vision transformer trained with masked siamese networks",
    "deit": "a data-efficient vision transformer trained with distillation",
    "beit": "a vision transformer pre-trained with masked image modelling",
    "poolformer": "a MetaFormer backbone using pooling as the token mixer",
    "dinat": "a hierarchical transformer with dilated neighbourhood attention",
    "van": "a convolutional backbone with large-kernel visual attention",
}

_CORPUS_BLURBS: Dict[str, str] = {
    "english": "English books, Wikipedia and web crawl corpora",
    "foreign": "a non-English corpus of news, social media and web documents",
    "imagenet1k": "the ImageNet-1k classification dataset",
    "imagenet21k": "the ImageNet-21k full hierarchy",
    "faces": "facial imagery collections",
    "artwork": "digitised artwork collections",
}


def render_model_card(entry: ModelCatalogEntry) -> str:
    """Render a deterministic, human-readable model card for ``entry``."""
    architecture_blurb = _ARCHITECTURE_BLURBS.get(
        entry.architecture, "a neural network encoder"
    )
    corpus_blurb = _CORPUS_BLURBS.get(entry.pretrain_corpus, "a proprietary corpus")
    lines: List[str] = [
        f"# {entry.name}",
        "",
        f"{entry.short_name} is {architecture_blurb}.",
        f"The backbone was pre-trained on {corpus_blurb}.",
    ]
    if entry.description:
        lines.append(entry.description)
    if entry.finetune_datasets:
        datasets = ", ".join(entry.finetune_datasets)
        lines.append(
            f"The checkpoint was further fine-tuned on the following downstream "
            f"dataset(s): {datasets}."
        )
    else:
        lines.append("The checkpoint ships without task-specific fine-tuning.")
    lines.extend(
        [
            "",
            "## Intended uses",
            f"This model is intended for {entry.modality.upper()} classification tasks; "
            "use it as a starting point and fine-tune on your target dataset.",
            "",
            "## Training procedure",
            f"Architecture family: {entry.architecture}. Model family: {entry.family}. "
            f"Source label space: {entry.source_classes} classes.",
        ]
    )
    return "\n".join(lines)
