"""Fig. 5 benchmark — coarse-recall vs random-recall quality.

Times one coarse-recall query (the online cost the figure is about) and
prints the average-accuracy-at-K comparison for every target dataset.
"""

from __future__ import annotations

import numpy as np
from conftest import emit

from repro.experiments import fig5_recall_quality


def test_fig5_recall_quality(nlp_context, cv_context, benchmark):
    benchmark(lambda: nlp_context.selector.recall("mnli", top_k=10))

    all_records = []
    for context in (nlp_context, cv_context):
        records = fig5_recall_quality.run(context)
        all_records.extend(records)
        emit(f"Fig. 5 ({context.modality})", fig5_recall_quality.render(records))
        # Shape check: averaged over targets and K, coarse recall returns
        # better models than random recall.
        coarse = np.mean([r["coarse_recall_avg_acc"] for r in records])
        random = np.mean([r["random_recall_avg_acc"] for r in records])
        assert coarse > random
