"""Matrix store: the library's one content-addressed ``.npy`` store.

The offline phase of the paper materialises dense ``(n, n)`` matrices —
Eq. 1 similarity and its distance conversion — that stop fitting in RAM
once a model zoo reaches checkpoint-hub scale.  This package provides the
disk tier those matrices spill to: a :class:`MatrixStore` of ``.npy`` files
addressed by the *same* content-hash cache keys as :mod:`repro.cache`,
written through atomically-published :class:`MatrixWriter` memmaps and read
back as read-only :class:`numpy.memmap` row tiles on demand.  The same
class is the persistent tier of :class:`repro.cache.ArtifactCache`.

Spilling is decided by :class:`repro.core.config.SimilarityConfig`
(``spill_threshold_bytes``) and performed by
:func:`repro.core.similarity.performance_similarity_matrix_ooc`; the
clustering layer then works directly on the memmapped artifacts without
densifying them.  ``docs/scaling.md`` documents the memory model and the
operational guidance for large zoos.

Environment variables
---------------------
``REPRO_STORE_DIR``
    Persistent root directory of the default spill store.  Unset, the
    store lives in a per-process temporary directory.  (The artifact
    cache's disk tier is a separate store, enabled by ``REPRO_CACHE_DIR``.)
"""

from repro.store.matrix import (
    DEFAULT_TILE_ROWS,
    MatrixStore,
    MatrixWriter,
    ScratchMatrix,
    StoreLike,
    get_store,
    iter_row_blocks,
    peek_store,
    resolve_store,
)

__all__ = [
    "DEFAULT_TILE_ROWS",
    "MatrixStore",
    "MatrixWriter",
    "ScratchMatrix",
    "StoreLike",
    "get_store",
    "iter_row_blocks",
    "peek_store",
    "resolve_store",
]
