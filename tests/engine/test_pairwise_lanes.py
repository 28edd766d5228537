"""The pairwise lane sweep: lane k scores its own pair (a_k, b_k).

Differential tests against the full-table scalar reference, on both
sides of the working-dtype switch, plus the ungapped mode the Karlin
calibration runs at the gap-penalty cap.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alphabet import BLOSUM62, DNA, GapPenalty, random_matrix
from repro.engine.lanes import _working_dtype, score_pairs
from repro.stats.karlin import _score_pairs
from repro.sw import sw_score_scalar

GP = GapPenalty.cudasw_default()
CAP = GapPenalty(rho=2**20, sigma=2**20)


def random_pairs(rng, size, pairs, m, n):
    return (
        rng.integers(0, size, size=(pairs, m), dtype=np.uint8),
        rng.integers(0, size, size=(pairs, n), dtype=np.uint8),
    )


def scalar_scores(a, b, matrix, gaps):
    return np.array(
        [sw_score_scalar(x, y, matrix, gaps) for x, y in zip(a, b)],
        dtype=np.int64,
    )


def best_ungapped(a, b, matrix):
    """Best gap-free segment over every diagonal (Kadane per diagonal)."""
    table = matrix.scores[a[:, None], b[None, :]].astype(np.int64)
    best = 0
    for d in range(-(a.size - 1), b.size):
        running = 0
        for v in np.diagonal(table, offset=d):
            running = max(0, running + int(v))
            best = max(best, running)
    return best


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    pairs=st.integers(min_value=1, max_value=9),
    m=st.integers(min_value=1, max_value=40),
    n=st.integers(min_value=1, max_value=40),
    rho=st.integers(min_value=1, max_value=16),
    sigma_frac=st.floats(min_value=0.0, max_value=1.0),
)
def test_matches_scalar_int32(seed, pairs, m, n, rho, sigma_frac):
    gaps = GapPenalty(rho=rho, sigma=max(1, int(rho * sigma_frac)))
    assert _working_dtype(m, n, 11, gaps) is np.int32
    a, b = random_pairs(np.random.default_rng(seed), 24, pairs, m, n)
    np.testing.assert_array_equal(
        score_pairs(a, b, BLOSUM62, gaps), scalar_scores(a, b, BLOSUM62, gaps)
    )


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    pairs=st.integers(min_value=1, max_value=3),
    m=st.integers(min_value=230, max_value=250),
    n=st.integers(min_value=640, max_value=680),
    sigma=st.integers(min_value=2**20 - 2**14, max_value=2**20),
)
def test_matches_scalar_int64(seed, pairs, m, n, sigma):
    """Penalties near the validation cap push the sweep onto int64."""
    gaps = GapPenalty(rho=2**20, sigma=sigma)
    assert _working_dtype(m, n, 11, gaps) is np.int64
    rng = np.random.default_rng(seed)
    matrix = random_matrix(DNA, rng)
    a, b = random_pairs(rng, DNA.size, pairs, m, n)
    np.testing.assert_array_equal(
        score_pairs(a, b, matrix, gaps), scalar_scores(a, b, matrix, gaps)
    )


def test_mixed_lengths_and_identical_pairs():
    rng = np.random.default_rng(1)
    a, b = random_pairs(rng, 24, 5, 50, 75)
    b[0, 10:60] = a[0]  # lane 0 holds a perfect 50-residue match
    scores = score_pairs(a, b, BLOSUM62, GP)
    assert scores.dtype == np.int64
    assert scores[0] >= int(BLOSUM62.scores[a[0], a[0]].sum())
    np.testing.assert_array_equal(scores, scalar_scores(a, b, BLOSUM62, GP))


def test_ungapped_at_cap_is_best_segment():
    rng = np.random.default_rng(2)
    a, b = random_pairs(rng, 24, 6, 60, 45)
    b[1, 5:35] = a[1, 20:50]
    expected = [best_ungapped(x, y, BLOSUM62) for x, y in zip(a, b)]
    np.testing.assert_array_equal(score_pairs(a, b, BLOSUM62, CAP), expected)
    np.testing.assert_array_equal(_score_pairs(BLOSUM62, a, b, None), expected)


def test_ungapped_bound_enforced():
    """Past ``length * max(W) >= 2**20`` a gapped alignment could win."""
    long = np.zeros((1, 2**20 // 11 + 1), dtype=np.uint8)
    with pytest.raises(ValueError, match="too long"):
        _score_pairs(BLOSUM62, long, long, None)


@pytest.mark.parametrize(
    "a, b",
    [
        (np.zeros((2, 5)), np.zeros((3, 5))),
        (np.zeros(5), np.zeros((1, 5))),
        (np.zeros((2, 0)), np.zeros((2, 5))),
    ],
)
def test_shape_validation(a, b):
    with pytest.raises(ValueError):
        score_pairs(a, b, BLOSUM62, GP)
