"""Property suite: batched per-row seeding equals numpy's own seeding.

:func:`repro.utils.rng.seeded_standard_normal` replaces a loop that built
one ``np.random.default_rng(seed)`` per encoded row.  Encoder output, and
with it every golden, depends on those bits, so the batched helper must
reproduce numpy bit for bit: the ``SeedSequence`` state words it derives
for each seed, and the normal draws PCG64 makes from them.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.utils.rng import _seed_sequence_state, seeded_standard_normal

#: Edges of the encoder's 31-bit seed range.
BOUNDARY_SEEDS = [0, 1, 2**31 - 2, 2**31 - 1]

seed_lists = st.lists(st.integers(0, 2**31 - 1), max_size=24)
widths = st.sampled_from([1, 24])


def _oracle_rows(seeds, width):
    rows = [np.random.default_rng(seed).standard_normal(width) for seed in seeds]
    return np.array(rows).reshape(len(seeds), width)


def _bits(array):
    return np.ascontiguousarray(array).view(np.uint64)


class TestSeedSequenceState:
    @given(seeds=seed_lists)
    @settings(max_examples=60, deadline=None)
    def test_words_match_generate_state(self, seeds):
        seeds = BOUNDARY_SEEDS + seeds
        expected = np.array(
            [np.random.SeedSequence(s).generate_state(4, np.uint64) for s in seeds]
        )
        got = _seed_sequence_state(np.array(seeds, dtype=np.int64))
        assert got.dtype == np.uint64
        assert np.array_equal(got, expected)

    def test_no_seeds_gives_no_words(self):
        assert _seed_sequence_state(np.array([], dtype=np.int64)).shape == (0, 4)

    @pytest.mark.parametrize("bad", [[-1], [2**32], [1.5]])
    def test_rejects_seeds_outside_one_word(self, bad):
        with pytest.raises(ValueError):
            _seed_sequence_state(np.array(bad))


class TestSeededStandardNormal:
    @given(seeds=seed_lists, width=widths)
    @settings(max_examples=60, deadline=None)
    def test_rows_match_default_rng_bitwise(self, seeds, width):
        seeds = BOUNDARY_SEEDS + seeds
        got = seeded_standard_normal(np.array(seeds, dtype=np.int64), width)
        assert got.shape == (len(seeds), width)
        assert np.array_equal(_bits(got), _bits(_oracle_rows(seeds, width)))

    @given(seed=st.integers(0, 2**31 - 1), width=widths)
    @example(seed=0, width=1)
    @example(seed=1, width=24)
    @example(seed=2**31 - 2, width=1)
    @example(seed=2**31 - 1, width=24)
    @settings(max_examples=60, deadline=None)
    def test_one_row_matches_default_rng_bitwise(self, seed, width):
        got = seeded_standard_normal(np.array([seed], dtype=np.int64), width)
        assert np.array_equal(_bits(got), _bits(_oracle_rows([seed], width)))

    @pytest.mark.parametrize("width", [1, 24])
    def test_zero_rows(self, width):
        got = seeded_standard_normal(np.array([], dtype=np.int64), width)
        assert got.shape == (0, width)
