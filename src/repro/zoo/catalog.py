"""Catalogue of the simulated model repository.

The entries mirror the paper's Appendix B (Table VIII): 40 NLP checkpoints
and 30 CV checkpoints, keeping the original HuggingFace names.  Each entry
records what the reproduction needs to *simulate* the checkpoint:

* ``architecture`` and ``family`` — used for clustering analysis and for
  grouping "sibling" checkpoints (e.g. the ``bert_ft_qqp-*`` runs) whose
  encoders should behave similarly;
* ``quality`` — overall encoder quality in ``[0, 1]`` (signal-to-noise of
  the representation);
* ``pretrain_corpus`` — which broad upstream corpus the backbone saw
  (``english`` / ``foreign`` for NLP, ``imagenet1k`` / ``imagenet21k`` /
  ``faces`` / ``artwork`` for CV);
* ``finetune_datasets`` + ``finetune_weight`` — benchmark datasets whose
  domain the checkpoint was pulled towards by downstream fine-tuning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.utils.exceptions import ConfigurationError


@dataclass(frozen=True)
class ModelCatalogEntry:
    """Static description of one simulated checkpoint."""

    name: str
    modality: str
    architecture: str
    family: str
    quality: float
    pretrain_corpus: str = "english"
    finetune_datasets: Tuple[str, ...] = ()
    finetune_weight: float = 0.45
    source_classes: int = 8
    description: str = ""

    def __post_init__(self) -> None:
        if self.modality not in ("nlp", "cv"):
            raise ConfigurationError(
                f"model {self.name!r}: modality must be 'nlp' or 'cv'"
            )
        if not 0.0 < self.quality <= 1.0:
            raise ConfigurationError(
                f"model {self.name!r}: quality must be in (0, 1], got {self.quality}"
            )
        if not 0.0 <= self.finetune_weight < 1.0:
            raise ConfigurationError(
                f"model {self.name!r}: finetune_weight must be in [0, 1)"
            )
        if self.source_classes < 2:
            raise ConfigurationError(
                f"model {self.name!r}: source_classes must be >= 2"
            )

    @property
    def short_name(self) -> str:
        """Model name without the repository prefix (as used in the paper's figures)."""
        return self.name.split("/")[-1]


def _nlp(
    name: str,
    architecture: str,
    family: str,
    quality: float,
    *,
    corpus: str = "english",
    finetunes: Tuple[str, ...] = (),
    weight: float = 0.45,
    classes: int = 8,
    description: str = "",
) -> ModelCatalogEntry:
    return ModelCatalogEntry(
        name=name,
        modality="nlp",
        architecture=architecture,
        family=family,
        quality=quality,
        pretrain_corpus=corpus,
        finetune_datasets=finetunes,
        finetune_weight=weight,
        source_classes=classes,
        description=description,
    )


def _cv(
    name: str,
    architecture: str,
    family: str,
    quality: float,
    *,
    corpus: str = "imagenet1k",
    finetunes: Tuple[str, ...] = (),
    weight: float = 0.45,
    classes: int = 10,
    description: str = "",
) -> ModelCatalogEntry:
    return ModelCatalogEntry(
        name=name,
        modality="cv",
        architecture=architecture,
        family=family,
        quality=quality,
        pretrain_corpus=corpus,
        finetune_datasets=finetunes,
        finetune_weight=weight,
        source_classes=classes,
        description=description,
    )


# --------------------------------------------------------------------------- #
# 40 NLP checkpoints (names from the paper's Table VIII).
# --------------------------------------------------------------------------- #
_NLP_CATALOG: List[ModelCatalogEntry] = [
    _nlp("18811449050/bert_finetuning_test", "bert", "bert-misc", 0.46,
         finetunes=("sst2",), weight=0.25,
         description="BERT fine-tuning smoke-test checkpoint of unknown provenance."),
    _nlp("aditeyabaral/finetuned-sail2017-xlm-roberta-base", "xlm-roberta", "xlmr-sentiment", 0.62,
         finetunes=("sst2", "imdb"), weight=0.35,
         description="XLM-RoBERTa base fine-tuned on SAIL-2017 code-mixed sentiment."),
    _nlp("albert-base-v2", "albert", "albert-base", 0.80,
         description="ALBERT base v2 pre-trained with masked language modelling."),
    _nlp("aliosm/sha3bor-metre-detector-arabertv2-base", "arabert", "arabic", 0.42,
         corpus="foreign",
         description="AraBERT v2 fine-tuned to detect Arabic poetry metre."),
    _nlp("Alireza1044/albert-base-v2-qnli", "albert", "albert-qnli", 0.78,
         finetunes=("qnli",),
         description="ALBERT base v2 fine-tuned on QNLI."),
    _nlp("anirudh21/bert-base-uncased-finetuned-qnli", "bert", "bert-qnli", 0.71,
         finetunes=("qnli",),
         description="BERT base uncased fine-tuned on QNLI."),
    _nlp("aviator-neural/bert-base-uncased-sst2", "bert", "bert-sst2", 0.70,
         finetunes=("sst2",),
         description="BERT base uncased fine-tuned on SST-2 sentiment."),
    _nlp("aychang/bert-base-cased-trec-coarse", "bert", "bert-trec", 0.68,
         finetunes=("trec",),
         description="BERT base cased fine-tuned on TREC coarse question types."),
    _nlp("bert-base-uncased", "bert", "bert-base", 0.80,
         description="Original BERT base uncased masked-language-model checkpoint."),
    _nlp("bondi/bert-semaphore-prediction-w4", "bert", "bert-misc", 0.46,
         description="BERT checkpoint fine-tuned on a niche semaphore-prediction task."),
    _nlp("CAMeL-Lab/bert-base-arabic-camelbert-da-sentiment", "arabert", "arabic", 0.41,
         corpus="foreign", finetunes=("sst2",), weight=0.2,
         description="CAMeLBERT dialectal-Arabic sentiment model."),
    _nlp("CAMeL-Lab/bert-base-arabic-camelbert-mix-did-nadi", "arabert", "arabic", 0.39,
         corpus="foreign",
         description="CAMeLBERT mix fine-tuned for Arabic dialect identification (NADI)."),
    _nlp("classla/bcms-bertic-parlasent-bcs-ter", "bertic", "balkan", 0.40,
         corpus="foreign",
         description="BERTić fine-tuned for parliamentary sentiment in BCMS languages."),
    _nlp("connectivity/bert_ft_qqp-1", "bert", "bert-ft-qqp", 0.73,
         finetunes=("qqp",),
         description="BERT base fine-tuned on QQP (connectivity sweep, run 1)."),
    _nlp("connectivity/bert_ft_qqp-17", "bert", "bert-init-qqp", 0.58,
         finetunes=("qqp",), weight=0.3,
         description="BERT base fine-tuned on QQP from a re-initialised checkpoint (run 17)."),
    _nlp("connectivity/bert_ft_qqp-7", "bert", "bert-ft-qqp", 0.72,
         finetunes=("qqp",),
         description="BERT base fine-tuned on QQP (connectivity sweep, run 7)."),
    _nlp("connectivity/bert_ft_qqp-96", "bert", "bert-init-qqp", 0.57,
         finetunes=("qqp",), weight=0.3,
         description="BERT base fine-tuned on QQP from a re-initialised checkpoint (run 96)."),
    _nlp("dhimskyy/wiki-bert", "bert", "bert-misc", 0.50,
         description="BERT variant pre-trained on a small Wikipedia crawl."),
    _nlp("distilbert-base-uncased", "distilbert", "distilbert", 0.74,
         description="DistilBERT base uncased distilled from BERT."),
    _nlp("DoyyingFace/bert-asian-hate-tweets-asian-unclean-freeze-4", "bert", "bert-tweet", 0.63,
         finetunes=("tweet_eval", "sst2"), weight=0.3,
         description="BERT fine-tuned on hate-speech tweets with frozen lower layers."),
    _nlp("emrecan/bert-base-multilingual-cased-snli_tr", "mbert", "multilingual", 0.62,
         finetunes=("snli",), weight=0.35,
         description="Multilingual BERT fine-tuned on Turkish SNLI."),
    _nlp("gchhablani/bert-base-cased-finetuned-rte", "bert", "bert-glue", 0.66,
         finetunes=("rte",),
         description="BERT base cased fine-tuned on RTE."),
    _nlp("gchhablani/bert-base-cased-finetuned-wnli", "bert", "bert-glue", 0.60,
         finetunes=("wnli",),
         description="BERT base cased fine-tuned on WNLI."),
    _nlp("Guscode/DKbert-hatespeech-detection", "danish-bert", "danish", 0.44,
         corpus="foreign",
         description="Danish BERT fine-tuned for hate-speech detection."),
    _nlp("ishan/bert-base-uncased-mnli", "bert", "bert-mnli", 0.82,
         finetunes=("snli", "xnli", "sick"), weight=0.5,
         description="BERT base uncased fine-tuned on MNLI."),
    _nlp("jb2k/bert-base-multilingual-cased-language-detection", "mbert", "multilingual", 0.50,
         description="Multilingual BERT fine-tuned for language identification."),
    _nlp("Jeevesh8/512seq_len_6ep_bert_ft_cola-91", "bert", "bert-ft-cola", 0.68,
         finetunes=("cola",),
         description="BERT fine-tuned on CoLA with 512-token sequences for 6 epochs (run 91)."),
    _nlp("Jeevesh8/6ep_bert_ft_cola-47", "bert", "bert-ft-cola", 0.66,
         finetunes=("cola",),
         description="BERT fine-tuned on CoLA for 6 epochs (run 47)."),
    _nlp("Jeevesh8/bert_ft_cola-88", "bert", "bert-ft-cola", 0.67,
         finetunes=("cola",),
         description="BERT fine-tuned on CoLA (run 88)."),
    _nlp("Jeevesh8/bert_ft_qqp-40", "bert", "bert-ft-qqp", 0.72,
         finetunes=("qqp",),
         description="BERT fine-tuned on QQP (run 40)."),
    _nlp("Jeevesh8/bert_ft_qqp-68", "bert", "bert-ft-qqp", 0.73,
         finetunes=("qqp",),
         description="BERT fine-tuned on QQP (run 68)."),
    _nlp("Jeevesh8/bert_ft_qqp-9", "bert", "bert-ft-qqp", 0.72,
         finetunes=("qqp",),
         description="BERT fine-tuned on QQP (run 9)."),
    _nlp("Jeevesh8/feather_berts_46", "bert", "bert-mnli", 0.81,
         finetunes=("snli", "xnli", "sick"), weight=0.5,
         description="Feather BERT #46: BERT base fine-tuned on MNLI."),
    _nlp("Jeevesh8/init_bert_ft_qqp-24", "bert", "bert-init-qqp", 0.58,
         finetunes=("qqp",), weight=0.3,
         description="Re-initialised BERT fine-tuned on QQP (run 24)."),
    _nlp("Jeevesh8/init_bert_ft_qqp-33", "bert", "bert-init-qqp", 0.57,
         finetunes=("qqp",), weight=0.3,
         description="Re-initialised BERT fine-tuned on QQP (run 33)."),
    _nlp("manueltonneau/bert-twitter-en-is-hired", "bert", "bert-tweet", 0.61,
         finetunes=("tweet_eval",), weight=0.35,
         description="BERT fine-tuned on English tweets announcing employment."),
    _nlp("roberta-base", "roberta", "roberta-base", 0.84,
         description="RoBERTa base pre-trained with dynamic masking."),
    _nlp("socialmediaie/TRAC2020_IBEN_B_bert-base-multilingual-uncased", "mbert", "multilingual", 0.48,
         finetunes=("tweet_eval",), weight=0.2,
         description="Multilingual BERT fine-tuned on TRAC-2020 aggression detection (Bengali)."),
    _nlp("Splend1dchan/bert-base-uncased-slue-goldtrascription-e3-lr1e-4", "bert", "bert-misc", 0.56,
         description="BERT fine-tuned on SLUE gold transcriptions."),
    _nlp("XSY/albert-base-v2-imdb-calssification", "albert", "albert-imdb", 0.70,
         finetunes=("imdb", "sst2"), weight=0.4,
         description="ALBERT base v2 fine-tuned on IMDB sentiment classification."),
]

# --------------------------------------------------------------------------- #
# 30 CV checkpoints (names from the paper's Table VIII).
# --------------------------------------------------------------------------- #
_CV_CATALOG: List[ModelCatalogEntry] = [
    _cv("facebook/deit-base-patch16-224", "deit", "deit-base", 0.82,
        corpus="imagenet1k",
        description="DeiT base distilled vision transformer, 224px, ImageNet-1k."),
    _cv("facebook/deit-base-patch16-384", "deit", "deit-base", 0.83,
        corpus="imagenet1k",
        description="DeiT base distilled vision transformer, 384px, ImageNet-1k."),
    _cv("facebook/deit-small-patch16-224", "deit", "deit-small", 0.74,
        corpus="imagenet1k",
        description="DeiT small vision transformer, 224px, ImageNet-1k."),
    _cv("facebook/dino-vitb16", "vit-dino", "dino-base", 0.80,
        corpus="imagenet21k",
        description="Self-supervised DINO ViT-B/16."),
    _cv("facebook/dino-vitb8", "vit-dino", "dino-base", 0.81,
        corpus="imagenet21k",
        description="Self-supervised DINO ViT-B/8."),
    _cv("facebook/dino-vits16", "vit-dino", "dino-small", 0.73,
        corpus="imagenet1k",
        description="Self-supervised DINO ViT-S/16."),
    _cv("facebook/vit-msn-base", "vit-msn", "msn", 0.78,
        corpus="imagenet1k",
        description="Masked Siamese Network ViT base."),
    _cv("facebook/vit-msn-small", "vit-msn", "msn", 0.72,
        corpus="imagenet1k",
        description="Masked Siamese Network ViT small."),
    _cv("google/vit-base-patch16-224", "vit", "vit-base", 0.85,
        corpus="imagenet21k",
        description="ViT base patch16, 224px, ImageNet-21k pre-training + ImageNet-1k fine-tune."),
    _cv("google/vit-base-patch16-384", "vit", "vit-base", 0.86,
        corpus="imagenet21k",
        description="ViT base patch16, 384px, ImageNet-21k pre-training + ImageNet-1k fine-tune."),
    _cv("google/vit-base-patch32-224-in21k", "vit", "vit-in21k", 0.76,
        corpus="imagenet21k",
        description="ViT base patch32 pre-trained on ImageNet-21k only (no fine-tuned head)."),
    _cv("lixiqi/beit-base-patch16-224-pt22k-ft22k-finetuned-FER2013-6e-05", "beit", "beit-fer", 0.66,
        corpus="faces", finetunes=("fer2013",), weight=0.5,
        description="BEiT base fine-tuned on FER-2013 facial expressions (lr 6e-05)."),
    _cv("lixiqi/beit-base-patch16-224-pt22k-ft22k-finetuned-FER2013-7e-05", "beit", "beit-fer", 0.65,
        corpus="faces", finetunes=("fer2013",), weight=0.5,
        description="BEiT base fine-tuned on FER-2013 facial expressions (lr 7e-05)."),
    _cv("lixiqi/beit-base-patch16-224-pt22k-ft22k-finetuned-FER-5e-05-3", "beit", "beit-fer", 0.66,
        corpus="faces", finetunes=("fer2013",), weight=0.5,
        description="BEiT base fine-tuned on FER facial expressions (lr 5e-05, run 3)."),
    _cv("microsoft/beit-base-patch16-224", "beit", "beit-base", 0.80,
        corpus="imagenet21k",
        description="BEiT base, ImageNet-21k pre-training with ImageNet-1k fine-tune."),
    _cv("microsoft/beit-base-patch16-224-pt22k", "beit", "beit-pt22k", 0.70,
        corpus="imagenet21k",
        description="BEiT base pre-trained on ImageNet-22k (no supervised fine-tune)."),
    _cv("microsoft/beit-base-patch16-224-pt22k-ft22k", "beit", "beit-base", 0.81,
        corpus="imagenet21k",
        description="BEiT base pre-trained and fine-tuned on ImageNet-22k."),
    _cv("microsoft/beit-base-patch16-384", "beit", "beit-base", 0.82,
        corpus="imagenet21k",
        description="BEiT base, 384px, ImageNet-21k."),
    _cv("microsoft/beit-large-patch16-224-pt22k", "beit", "beit-pt22k", 0.69,
        corpus="imagenet21k",
        description="BEiT large pre-trained on ImageNet-22k (no supervised fine-tune)."),
    _cv("mrgiraffe/vit-large-dataset-model-v3", "vit", "vit-misc", 0.55,
        corpus="imagenet1k",
        description="ViT checkpoint trained on an undocumented large dataset."),
    _cv("sail/poolformer_m36", "poolformer", "poolformer-m", 0.70,
        corpus="imagenet1k",
        description="PoolFormer M36 MetaFormer backbone."),
    _cv("sail/poolformer_m48", "poolformer", "poolformer-m", 0.71,
        corpus="imagenet1k",
        description="PoolFormer M48 MetaFormer backbone."),
    _cv("sail/poolformer_s36", "poolformer", "poolformer-s", 0.66,
        corpus="imagenet1k",
        description="PoolFormer S36 MetaFormer backbone."),
    _cv("shi-labs/dinat-base-in1k-224", "dinat", "dinat-base", 0.72,
        corpus="imagenet1k",
        description="Dilated Neighborhood Attention Transformer base, ImageNet-1k."),
    _cv("shi-labs/dinat-large-in22k-in1k-224", "dinat", "dinat-large", 0.79,
        corpus="imagenet21k",
        description="DiNAT large, ImageNet-22k pre-training, ImageNet-1k fine-tune, 224px."),
    _cv("shi-labs/dinat-large-in22k-in1k-384", "dinat", "dinat-large", 0.80,
        corpus="imagenet21k",
        description="DiNAT large, ImageNet-22k pre-training, ImageNet-1k fine-tune, 384px."),
    _cv("Visual-Attention-Network/van-base", "van", "van", 0.71,
        corpus="imagenet1k",
        description="Visual Attention Network base."),
    _cv("Visual-Attention-Network/van-large", "van", "van", 0.76,
        corpus="imagenet1k",
        description="Visual Attention Network large."),
    _cv("oschamp/vit-artworkclassifier", "vit", "vit-artwork", 0.52,
        corpus="artwork",
        description="ViT fine-tuned to classify artwork styles."),
    _cv("nateraw/vit-age-classifier", "vit", "vit-faces", 0.60,
        corpus="faces", finetunes=("fer2013",), weight=0.35,
        description="ViT fine-tuned to predict age buckets from face crops."),
]


def nlp_catalog() -> List[ModelCatalogEntry]:
    """The 40 simulated NLP checkpoints."""
    return list(_NLP_CATALOG)


def cv_catalog() -> List[ModelCatalogEntry]:
    """The 30 simulated CV checkpoints."""
    return list(_CV_CATALOG)


def catalog_for_modality(modality: str) -> List[ModelCatalogEntry]:
    """Return the catalogue for ``modality`` (``"nlp"`` or ``"cv"``)."""
    if modality == "nlp":
        return nlp_catalog()
    if modality == "cv":
        return cv_catalog()
    raise ConfigurationError(f"modality must be 'nlp' or 'cv', got {modality!r}")
