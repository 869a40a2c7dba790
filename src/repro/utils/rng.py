"""Deterministic random-number management.

Every stochastic component of the library accepts either an integer seed or
a :class:`numpy.random.Generator`.  The helpers here normalise both into a
generator, and :class:`RngFactory` derives independent named streams so
that, for example, every model in the hub fine-tunes with its own
reproducible stream regardless of evaluation order.
"""

from __future__ import annotations

from typing import Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

SeedLike = Union[int, np.random.Generator, None]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``None`` creates a non-deterministic generator, an ``int`` seeds a new
    PCG64 generator and an existing generator is returned unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


class RngFactory:
    """Factory producing named, reproducible random streams.

    A factory is constructed from a single root seed; asking twice for the
    same ``name`` returns generators with identical streams.  This is used
    by the model hub so that e.g. fine-tuning ``bert-base`` on ``mnli`` is
    reproducible independently of all other (model, dataset) pairs.
    """

    def __init__(self, root_seed: int = 0) -> None:
        self._root_seed = int(root_seed)

    @property
    def root_seed(self) -> int:
        """Root seed the factory was created with."""
        return self._root_seed

    def named(self, *labels: object) -> np.random.Generator:
        """Return a generator keyed by ``labels`` (and the root seed)."""
        key = "/".join(str(label) for label in labels)
        entropy = (self._root_seed, _stable_hash(key))
        return np.random.default_rng(np.random.SeedSequence(entropy=entropy))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"RngFactory(root_seed={self._root_seed})"


def _stable_hash(text: str) -> int:
    """Hash ``text`` into a non-negative integer, stable across processes."""
    value = 2166136261
    for char in text.encode("utf-8"):
        value ^= char
        value = (value * 16777619) % (2**32)
    return value


def stable_hash(text: str) -> int:
    """Public alias of the FNV-1a hash used to key random streams."""
    return _stable_hash(text)


# ``SeedSequence`` hashing constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_XSHIFT = np.uint32(16)
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)


def _hash_constants(init: int, mult: int, count: int) -> tuple:
    """``init`` and its first ``count - 1`` products with ``mult``, mod 2**32."""
    constants = [init]
    while len(constants) < count:
        constants.append((constants[-1] * mult) % 2**32)
    return tuple(np.uint32(value) for value in constants)


# Hashmix call k xors constant k in and multiplies by constant k + 1.
# Mixing one entropy word into the pool makes 4 + 4 * 3 calls; generating
# four uint64 words hashes 8 uint32 words.
_HASH_A = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE**2 + 1)
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE + 1)


def _seed_sequence_state(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for every seed at once.

    Each seed must lie in ``[0, 2**32)`` so its entropy is one ``uint32``
    word.  Returns an ``(n, 4)`` ``uint64`` array whose row ``i`` is the
    state numpy derives for ``seeds[i]``, computed in wrapping ``uint32``
    arithmetic over all rows together.
    """
    seeds = np.asarray(seeds)
    if seeds.ndim != 1:
        raise ValueError(f"seeds must be one-dimensional, got shape {seeds.shape}")
    if seeds.size and (
        seeds.dtype.kind not in "iu" or seeds.min() < 0 or seeds.max() >= 2**32
    ):
        raise ValueError("seeds must be integers in [0, 2**32)")
    calls = iter(range(len(_HASH_A) - 1))

    def hashmix(value: np.ndarray) -> np.ndarray:
        k = next(calls)
        value = (value ^ _HASH_A[k]) * _HASH_A[k + 1]
        return value ^ (value >> _XSHIFT)

    entropy = seeds.astype(np.uint32)
    pool = [hashmix(entropy)]
    pool += [hashmix(np.zeros_like(entropy)) for _ in range(_POOL_SIZE - 1)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashmix(pool[src])
                pool[dst] = mixed ^ (mixed >> _XSHIFT)
    words = np.empty((entropy.shape[0], 2 * _POOL_SIZE), dtype=np.uint32)
    for k in range(2 * _POOL_SIZE):
        value = (pool[k % _POOL_SIZE] ^ _HASH_B[k]) * _HASH_B[k + 1]
        words[:, k] = value ^ (value >> _XSHIFT)
    return words.view(np.uint64)


class _FixedState(ISeedSequence):
    """Seed sequence handing PCG64 precomputed ``generate_state(4, uint64)`` words."""

    def __init__(self, state: np.ndarray) -> None:
        self._state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self._state


def seeded_standard_normal(seeds: np.ndarray, width: int) -> np.ndarray:
    """Rows of standard normals, one independently seeded stream per row.

    Row ``i`` equals ``np.random.default_rng(seeds[i]).standard_normal(width)``
    bit for bit, for seeds in ``[0, 2**32)``.  ``SeedSequence``'s hashing
    runs vectorised over all seeds; each row's state words then seed a
    ``PCG64`` whose own C seeding and ``Generator.standard_normal`` make the
    draws.  Returns a ``(len(seeds), width)`` float array.
    """
    states = _seed_sequence_state(seeds)
    out = np.empty((states.shape[0], int(width)))
    for row, state in enumerate(states):
        bit_gen = np.random.PCG64(_FixedState(state))
        out[row] = np.random.Generator(bit_gen).standard_normal(width)
    return out
