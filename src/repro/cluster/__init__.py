"""Clustering substrate used by model clustering and convergence-trend mining.

The paper compares K-means against agglomerative hierarchical clustering
(average linkage) and evaluates cluster quality with the silhouette
coefficient.  Both algorithms, the silhouette metric, and the distance
helpers they share are implemented here from scratch on numpy so the
reproduction carries no external ML dependencies.
"""

from repro.cluster.distance import pairwise_distances, similarity_to_distance
from repro.cluster.hierarchical import AgglomerativeClustering
from repro.cluster.kmeans import KMeans
from repro.cluster.nnchain import (
    NNChainClustering,
    TiedDistancesError,
    nn_chain_dendrogram,
)
from repro.cluster.silhouette import silhouette_samples, silhouette_score
from repro.cluster.assignments import ClusterAssignment

__all__ = [
    "pairwise_distances",
    "similarity_to_distance",
    "AgglomerativeClustering",
    "KMeans",
    "NNChainClustering",
    "TiedDistancesError",
    "nn_chain_dendrogram",
    "silhouette_samples",
    "silhouette_score",
    "ClusterAssignment",
    "ClusteringUpdate",
    "update_clustering",
]


def __getattr__(name):
    # Lazy re-export: repro.cluster.incremental imports from repro.core,
    # which imports this package — resolving it at first attribute access
    # instead of import time breaks the cycle.
    if name in ("ClusteringUpdate", "update_clustering"):
        from repro.cluster import incremental

        return getattr(incremental, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
