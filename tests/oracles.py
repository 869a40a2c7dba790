"""Reference loop implementations the library code must match.

These are the original per-pair and per-row loops, the per-model encoder
and model-major offline build, and the blocking stage-by-stage selection
loop.  The library no longer ships them; the unit
and property suites compare the vectorised paths and the epoch scheduler
against them bitwise.  Import with ``from oracles import ...`` (the
``tests`` directory is on ``sys.path`` under pytest's default import mode).
"""

import zlib

import numpy as np

from repro.cluster.distance import check_distance_matrix
from repro.cluster.silhouette import silhouette_score
from repro.core.batch import build_phase_engines, resolve_target_task
from repro.core.model_clustering import SILHOUETTE_MAX_MODELS
from repro.core.performance import PerformanceMatrix
from repro.core.plan import SelectionPlan, SessionView
from repro.core.results import SelectionResult, TwoPhaseResult
from repro.core.similarity import performance_similarity
from repro.utils.exceptions import DataError
from repro.zoo.finetune import FineTuner


def encode_loop(model, features) -> np.ndarray:
    """Reference per-model encoder: one ``default_rng`` per noise row."""
    features = np.asarray(features, dtype=float)
    if features.ndim != 2 or features.shape[1] != model.space.feature_dim:
        raise DataError(f"bad feature shape {features.shape}")
    concepts = model.space.project(features)
    gained = concepts * model.concept_gains[None, :]
    hidden = gained @ model.projection
    hidden = np.tanh(hidden / 2.0) * 2.0
    if model.representation_noise > 0:
        noise = np.empty(hidden.shape)
        rounded = np.round(features, decimals=8)
        for row in range(hidden.shape[0]):
            digest = zlib.crc32(rounded[row].tobytes()) ^ model._noise_key
            row_rng = np.random.default_rng(digest & 0x7FFFFFFF)
            noise[row] = row_rng.standard_normal(hidden.shape[1])
        hidden = hidden + model.representation_noise * noise
    return hidden


def build_matrix_loop(hub, suite, fine_tuner, epochs, benchmark_names=None):
    """Reference offline build: one serial ``fine_tune`` per pair, model-major."""
    dataset_names = list(benchmark_names or suite.benchmark_names)
    values = np.zeros((len(dataset_names), len(hub.model_names)))
    curves = {}
    for column, model_name in enumerate(hub.model_names):
        model = hub.get(model_name)
        for row, dataset_name in enumerate(dataset_names):
            curve = fine_tuner.fine_tune(model, suite.task(dataset_name), epochs=epochs)
            values[row, column] = curve.final_test
            curves[(model_name, dataset_name)] = curve
    return PerformanceMatrix(
        dataset_names=dataset_names,
        model_names=hub.model_names,
        values=values,
        curves=curves,
        epochs=epochs,
    )


def update_matrix_loop(old, hub, suite, fine_tuner) -> PerformanceMatrix:
    """Reference incremental update: copy survivors, fine-tune added models
    serially (model-major), then append the survivors' old curves."""
    old_index = {name: i for i, name in enumerate(old.model_names)}
    values = np.zeros((len(old.dataset_names), len(hub.model_names)))
    curves = {}
    for column, model_name in enumerate(hub.model_names):
        if model_name in old_index:
            values[:, column] = old.values[:, old_index[model_name]]
            continue
        model = hub.get(model_name)
        for row, dataset_name in enumerate(old.dataset_names):
            curve = fine_tuner.fine_tune(
                model, suite.task(dataset_name), epochs=old.epochs
            )
            values[row, column] = curve.final_test
            curves[(model_name, dataset_name)] = curve
    curves.update(
        {key: curve for key, curve in old.curves.items() if key[0] in hub.model_names}
    )
    return PerformanceMatrix(
        dataset_names=list(old.dataset_names),
        model_names=hub.model_names,
        values=values,
        curves=curves,
        epochs=old.epochs,
    )


def _performance_similarity_matrix_loop(
    matrix: PerformanceMatrix, *, top_k: int = 5
) -> np.ndarray:
    """Reference O(n^2) pairwise Eq. 1 loop (pre-vectorization implementation)."""
    vectors = [matrix.model_vector(name) for name in matrix.model_names]
    n = len(vectors)
    similarity = np.ones((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            similarity[i, j] = similarity[j, i] = performance_similarity(
                vectors[i], vectors[j], top_k=top_k
            )
    return similarity


def symmetrised_distance(similarity) -> np.ndarray:
    """Reference ``d = 1 - s``: clip, zero diagonal, always ``(d + d.T) / 2``."""
    distance = np.clip(1.0 - np.asarray(similarity, dtype=float), 0.0, None)
    np.fill_diagonal(distance, 0.0)
    return (distance + distance.T) / 2.0


def _silhouette_samples_loop(
    distance_matrix: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Reference per-row silhouette loop; the oracle the streaming path must match."""
    distances = check_distance_matrix(distance_matrix)
    labels = np.asarray(labels, dtype=int)
    n = distances.shape[0]
    if labels.shape != (n,):
        raise DataError("labels must align with the distance matrix")
    unique = np.unique(labels)
    if unique.size < 2:
        raise DataError("silhouette requires at least two clusters")
    values = np.zeros(n)
    for i in range(n):
        own = labels[i]
        own_mask = labels == own
        own_size = int(own_mask.sum())
        if own_size <= 1:
            values[i] = 0.0
            continue
        intra = distances[i, own_mask].sum() / (own_size - 1)
        inter = np.inf
        for other in unique:
            if other == own:
                continue
            other_mask = labels == other
            inter = min(inter, float(distances[i, other_mask].mean()))
        denominator = max(intra, inter)
        values[i] = 0.0 if denominator == 0 else (inter - intra) / denominator
    return values


def eager_silhouette(distance, labels):
    """Reference clustering silhouette: scored on the distance the clustering ran on.

    What a clustering computed at construction before the score became
    lazy: ``None`` past ``SILHOUETTE_MAX_MODELS`` or for degenerate labels
    (fewer than two clusters, or all singletons), else the mean silhouette.
    """
    n = distance.shape[0]
    unique = set(np.asarray(labels).tolist())
    if n > SILHOUETTE_MAX_MODELS or len(unique) < 2 or len(unique) >= n:
        return None
    return silhouette_score(distance, labels)


def serial_stage_loop(policy, candidates, task) -> SelectionResult:
    """Reference blocking selection: one stage at a time, private sessions.

    Every candidate gets its own fresh session from the policy's
    fine-tuner; each stage's steps are claimed together, trained in
    candidate order in the calling thread and completed before the next
    stage opens.  No executor, no session sharing, no fused kernels.
    """
    plan = SelectionPlan(
        policy=policy,
        task=task,
        candidates=list(candidates),
        view_factory=lambda name: SessionView(
            policy.fine_tuner.start_session(policy.hub.get(name), task)
        ),
    )
    while not plan.done:
        for step in list(iter(plan.claim_next, None)):
            view = plan.views[step.model]
            view.session.train_epochs(step.epochs)
            view.adopt(view.session, advance=step.epochs)
            plan.complete(step)
    return plan.result


def serial_two_phase(recall, policy, task, *, top_k=None) -> TwoPhaseResult:
    """Reference two-phase selection: coarse recall, then the blocking loop."""
    recall_result = recall.recall(task, top_k=top_k)
    selection = serial_stage_loop(policy, recall_result.recalled_models, task)
    selection.extra_epoch_cost = recall_result.epoch_cost
    return TwoPhaseResult(
        target_name=task.name, recall=recall_result, selection=selection
    )


def serial_select(artifacts, target, *, top_k=None, fine_tuner=None) -> TwoPhaseResult:
    """:func:`serial_two_phase` over a fresh engine pair for ``artifacts``."""
    recall, policy = build_phase_engines(artifacts, fine_tuner or FineTuner(seed=0))
    task = resolve_target_task(artifacts.suite, target)
    return serial_two_phase(recall, policy, task, top_k=top_k)
