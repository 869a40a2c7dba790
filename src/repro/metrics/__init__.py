"""Lightweight transferability (proxy) scores.

The coarse-recall phase needs a cheap estimate of how well a frozen
checkpoint will transfer to a target dataset without fine-tuning it.  The
paper uses LEEP; this subpackage also provides NCE, LogME, the H-score and a
kNN proxy so the choice of proxy score can be ablated (see the paper's
"future work" on combining multiple light-weight tasks).

All scorers share the same call contract (see
:class:`~repro.metrics.base.ProxyScorer`): given a pre-trained model and a
target dataset split, return a scalar where *higher means better expected
transfer*.  :func:`~repro.metrics.registry.get_scorer` resolves scorers by
name, and :func:`~repro.metrics.normalization.min_max_normalize` maps raw
scores of a candidate pool into ``[0, 1]`` as required by Eq. 2 of the paper.
"""

from repro.metrics.base import ProxyScorer
from repro.metrics.hscore import HScoreScorer, h_score
from repro.metrics.knn import KnnScorer, knn_transfer_accuracy
from repro.metrics.leep import LeepScorer, leep_score
from repro.metrics.logme import LogMeScorer, log_maximum_evidence
from repro.metrics.nce import NceScorer, nce_score
from repro.metrics.normalization import min_max_normalize
from repro.metrics.registry import available_scorers, get_scorer, register_scorer

__all__ = [
    "ProxyScorer",
    "HScoreScorer",
    "h_score",
    "KnnScorer",
    "knn_transfer_accuracy",
    "LeepScorer",
    "leep_score",
    "LogMeScorer",
    "log_maximum_evidence",
    "NceScorer",
    "nce_score",
    "min_max_normalize",
    "available_scorers",
    "get_scorer",
    "register_scorer",
]
