"""The offline phase: artifacts built once per repository version.

:class:`OfflineArtifacts` packages everything the online phases need and is
built once per model-repository *version* (the paper's offline phase): the
performance matrix and the model clustering.  Past the
:class:`~repro.core.config.SimilarityConfig` spill threshold the build runs
out-of-core — similarity and distance live as memory-mapped files in the
:mod:`repro.store` matrix store, bitwise-equal to the in-RAM path (see
``docs/scaling.md``).  :class:`~repro.service.SelectionService` answers
online queries against them.

The repository underneath the artifacts is *mutable*:
:meth:`OfflineArtifacts.refresh` derives the artifacts of the next zoo
version (checkpoints added and/or removed) incrementally — fine-tuning only
the new models, updating only the changed rows of the similarity matrix and
patching the clustering in place (with a staleness-bounded fallback to a
full re-cluster) — instead of recomputing the whole offline phase.  It
computes no full distance unless the clustering is rebuilt, and purges
nothing: :meth:`repro.service.SelectionService.refresh` purges the
superseded version after its swap.  See ``docs/zoo-updates.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Union

from repro.cache import CacheLike, fingerprint_matrix, resolve_cache
from repro.cluster.distance import offline_similarity
from repro.cluster.incremental import update_clustering
from repro.core.config import PipelineConfig
from repro.core.model_clustering import ModelClusterer, ModelClustering
from repro.core.performance import (
    PerformanceMatrix,
    build_performance_matrix,
    update_performance_matrix,
)
from repro.data.workloads import WorkloadSuite
from repro.utils.exceptions import ConfigurationError
from repro.zoo.catalog import ModelCatalogEntry
from repro.zoo.finetune import FineTuner
from repro.zoo.hub import ModelHub, ZooVersion


def purge_superseded_artifacts(
    matrix: PerformanceMatrix, similarity_config, cache: CacheLike = None
) -> int:
    """Purge every cached and spilled artifact derived from ``matrix``.

    The zoo-refresh invalidation sweep: entries keyed by ``matrix``'s
    content fingerprint leave the artifact cache (both tiers) and the
    matrix store its similarity config spills to.  Touches only a store
    that already exists — evicting never *creates* a store directory as a
    side effect.  Readers still holding a purged memmap keep a valid
    mapping (POSIX unlink semantics); only new lookups miss.  Returns the
    memory-tier entries plus the spilled files removed.
    """
    from pathlib import Path

    from repro.store import MatrixStore, peek_store

    fragment = fingerprint_matrix(matrix)
    resolved = resolve_cache(cache)
    evicted = resolved.evict_matching(fragment) if resolved is not None else 0
    if similarity_config is not None and similarity_config.store_dir is not None:
        if not Path(similarity_config.store_dir).is_dir():
            return evicted  # nothing was ever spilled there; don't mkdir it
        store = MatrixStore(similarity_config.store_dir)
    else:
        store = peek_store()
    return evicted + (store.evict_matching(fragment) if store is not None else 0)


@dataclass
class RefreshResult:
    """Outcome of one incremental :meth:`OfflineArtifacts.refresh`.

    Attributes
    ----------
    artifacts:
        The artifacts of the new zoo version (the old ones stay intact).
    old_version / new_version:
        Zoo versions before and after the update.
    added / removed:
        Checkpoint names that entered / left the repository.
    reclustered:
        Whether the staleness threshold forced a full re-cluster.
    staleness:
        Stale-model fraction of the new clustering (0.0 after a re-cluster).
    evicted_entries:
        Superseded-version artifacts purged by
        :meth:`repro.service.SelectionService.refresh` after its swap:
        in-memory cache entries, spilled matrix-store files and plan-store
        files; 0 for a bare :meth:`OfflineArtifacts.refresh`.
    """

    artifacts: "OfflineArtifacts"
    old_version: ZooVersion
    new_version: ZooVersion
    added: List[str]
    removed: List[str]
    reclustered: bool
    staleness: float
    evicted_entries: int = 0

    def summary(self) -> Dict[str, object]:
        """JSON-friendly snapshot used by the CLI and service stats."""
        return {
            "old_version": self.old_version.key,
            "new_version": self.new_version.key,
            "added": list(self.added),
            "removed": list(self.removed),
            "num_models": len(self.artifacts.hub),
            "reclustered": self.reclustered,
            "staleness": self.staleness,
            "evicted_entries": self.evicted_entries,
        }


@dataclass
class OfflineArtifacts:
    """Offline products shared by every online query against one repository.

    ``version`` is ``hub.version``, taken once at construction: the hub
    fingerprints its whole catalogue on every read of it.
    """

    hub: ModelHub
    suite: WorkloadSuite
    matrix: PerformanceMatrix
    clustering: ModelClustering
    config: PipelineConfig
    version: ZooVersion = field(init=False)
    fine_tuner: Optional[FineTuner] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.version = self.hub.version

    @classmethod
    def build(
        cls,
        hub: ModelHub,
        suite: Optional[WorkloadSuite] = None,
        *,
        config: Optional[PipelineConfig] = None,
        fine_tuner: Optional[FineTuner] = None,
        cache: CacheLike = None,
    ) -> "OfflineArtifacts":
        """Run the offline phase: performance matrix + model clustering."""
        suite = suite or hub.suite
        config = config or PipelineConfig.for_modality(hub.modality)
        matrix = build_performance_matrix(
            hub,
            suite,
            fine_tuner=fine_tuner,
            epochs=config.offline_epochs,
        )
        clusterer = ModelClusterer(config.clustering)
        clustering = clusterer.cluster(
            matrix,
            model_cards=hub.model_cards(),
            cache=cache,
            similarity_config=config.similarity,
        )
        return cls(
            hub=hub,
            suite=suite,
            matrix=matrix,
            clustering=clustering,
            config=config,
            fine_tuner=fine_tuner,
        )

    def refresh(
        self,
        *,
        added: Iterable[Union[str, ModelCatalogEntry]] = (),
        removed: Iterable[str] = (),
        cache: CacheLike = None,
    ) -> RefreshResult:
        """Incrementally derive the artifacts of the next zoo version.

        Fine-tunes only the ``added`` checkpoints (surviving performance
        columns are copied), updates only the changed rows of the Eq. 1
        similarity matrix, and patches the clustering in place — falling
        back to a full re-cluster when the accumulated staleness exceeds
        ``config.clustering.staleness_threshold``.  The incremental matrix
        and similarity are provably bitwise-equal to their from-scratch
        counterparts; the clustering carries structural guarantees relative
        to the previous epoch plus the staleness budget (see
        :mod:`repro.cluster.incremental`), all enforced by the property
        suite.

        Only the new similarity is computed, in RAM or out-of-core as the
        similarity config decides, and it lands in the artifact cache or
        matrix store under the key a cold rebuild would use.  The whole
        distance is derived only if the clustering is rebuilt.  ``self`` is
        not mutated and nothing is evicted, so a service can keep serving
        the old epoch until it swaps;
        :meth:`repro.service.SelectionService.refresh` purges the
        superseded version's entries after the cut-over, when no in-flight
        old-epoch request can repopulate them.

        Added models train under the tuner recorded at build time, the
        *offline* tuner, so the incremental result matches a from-scratch
        rebuild bitwise.
        """
        added = list(added)
        removed = list(removed)
        if not added and not removed:
            raise ConfigurationError("refresh requires at least one added or removed model")
        new_hub = self.hub.with_changes(added=added, removed=removed)
        new_matrix = update_performance_matrix(
            self.matrix, new_hub, self.suite, fine_tuner=self.fine_tuner
        )
        old_names = set(self.hub.model_names)
        new_names = set(new_hub.model_names)
        added_names = [name for name in new_hub.model_names if name not in old_names]
        removed_names = [name for name in self.hub.model_names if name not in new_names]

        clustering_config = self.config.clustering
        similarity_config = self.config.similarity
        if clustering_config.similarity == "performance":
            # Surviving tiles are copied and added rows computed under the
            # new epoch's canonical keys, in RAM or out-of-core as the
            # similarity config decides — bitwise-equal to a cold rebuild.
            new_similarity = offline_similarity(
                new_matrix,
                top_k=clustering_config.top_k,
                cache=cache,
                config=similarity_config,
                previous=(self.matrix, self.clustering.similarity),
            )
            update = update_clustering(
                self.clustering,
                new_matrix,
                new_similarity,
                config=clustering_config,
                similarity_config=similarity_config,
            )
            new_clustering = update.clustering
            reclustered, staleness = update.reclustered, update.staleness
        else:
            # The text baseline keys on model-card content, which changes
            # with the catalogue — no incremental path, rebuild the
            # clustering outright.
            clusterer = ModelClusterer(clustering_config)
            new_clustering = clusterer.cluster(
                new_matrix, model_cards=new_hub.model_cards(), cache=cache
            )
            reclustered, staleness = True, 0.0

        artifacts = OfflineArtifacts(
            hub=new_hub,
            suite=self.suite,
            matrix=new_matrix,
            clustering=new_clustering,
            config=self.config,
            fine_tuner=self.fine_tuner,
        )
        return RefreshResult(
            artifacts=artifacts,
            old_version=self.version,
            new_version=artifacts.version,
            added=added_names,
            removed=removed_names,
            reclustered=reclustered,
            staleness=staleness,
        )

