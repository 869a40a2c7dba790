"""Tokenisation for model-card text."""

from __future__ import annotations

import re
from typing import List, Set

_TOKEN_PATTERN = re.compile(r"[a-z0-9]+")

#: Common English words carrying no model-card-specific signal.
_STOPWORDS: Set[str] = {
    "a", "an", "and", "are", "as", "at", "be", "by", "for", "from", "has",
    "in", "is", "it", "its", "of", "on", "or", "that", "the", "this", "to",
    "was", "were", "with", "without", "your", "you", "use", "used", "using",
}


#: Shortest token kept; single characters carry no signal.
_MIN_LENGTH = 2


def tokenize(text: str) -> List[str]:
    """Lower-case word/number tokens of ``text``, stopwords removed.

    Model names like ``bert_ft_qqp-68`` split into their informative pieces
    (``bert``, ``ft``, ``qqp``, ``68``), which is what lets the text baseline
    group checkpoints with similar names.
    """
    return [
        token
        for token in _TOKEN_PATTERN.findall(text.lower())
        if len(token) >= _MIN_LENGTH and token not in _STOPWORDS
    ]
