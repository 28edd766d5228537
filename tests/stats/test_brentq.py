"""Differential tests: the local Brent port against ``scipy.optimize.brentq``.

Lambda feeds every bit score and E-value, so the port must return the
*same float*, not a nearby one.  Each test captures the exact function
and bracket ``karlin_lambda`` solves and hands them to SciPy.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import optimize

from repro.alphabet import BLOSUM62, DNA, PROTEIN, dna_matrix, random_matrix
from repro.sequence.frequencies import SWISSPROT_AA_FREQUENCIES
from repro.stats import karlin
from repro.stats.karlin import _brentq, karlin_lambda


def lambda_both_ways(matrix, frequencies):
    """``karlin_lambda`` as computed, and SciPy's root of the same solve."""
    calls = []
    port = karlin._brentq

    def spy(f, xa, xb, xtol):
        calls.append((f, xa, xb, xtol))
        return port(f, xa, xb, xtol)

    with mock.patch.object(karlin, "_brentq", spy):
        lam = karlin_lambda(matrix, frequencies)
    (f, xa, xb, xtol), = calls
    return lam, optimize.brentq(f, xa, xb, xtol=xtol)


@pytest.mark.parametrize(
    "matrix, frequencies",
    [
        (BLOSUM62, SWISSPROT_AA_FREQUENCIES),
        (dna_matrix(2, -3), np.array([0.25, 0.25, 0.25, 0.25, 0.0])),
        (dna_matrix(1, -1), np.array([0.3, 0.2, 0.2, 0.3, 0.0])),
    ],
    ids=["blosum62", "dna+2/-3", "dna+1/-1"],
)
def test_named_systems_bit_equal(matrix, frequencies):
    lam, reference = lambda_both_ways(matrix, frequencies)
    assert lam == reference


def test_blosum62_lambda_pinned():
    """The ungapped root every gapped BLOSUM62 10/2 E-value uses."""
    assert karlin_lambda(BLOSUM62, SWISSPROT_AA_FREQUENCIES) == (
        0.3172224820044583
    )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    protein=st.booleans(),
    low=st.integers(min_value=-8, max_value=-1),
    bonus=st.integers(min_value=0, max_value=8),
)
def test_random_scoring_systems_bit_equal(seed, protein, low, bonus):
    rng = np.random.default_rng(seed)
    alphabet = PROTEIN if protein else DNA
    matrix = random_matrix(alphabet, rng, low=low, high=3, diagonal_bonus=bonus)
    freq = rng.dirichlet(np.ones(alphabet.size))
    p = freq / freq.sum()
    assume(float(p @ matrix.scores @ p) < 0)
    lam, reference = lambda_both_ways(matrix, freq)
    assert lam == reference


@settings(max_examples=60, deadline=None)
@given(
    root=st.floats(min_value=-50, max_value=50),
    below=st.floats(min_value=1e-3, max_value=40),
    above=st.floats(min_value=1e-3, max_value=40),
    power=st.sampled_from([1, 3, 5]),
    xtol=st.sampled_from([1e-12, 2e-12, 1e-6]),
)
def test_generic_brackets_bit_equal(root, below, above, power, xtol):
    """Odd powers and an exponential exercise the interpolation,
    extrapolation and bisection branches on both sides of the root."""
    def poly(x):
        return (x - root) ** power

    def expo(x):
        return math.expm1(x - root)

    xa, xb = root - below, root + above
    for f in (poly, expo):
        assume(f(xa) != 0 and f(xb) != 0)
        for lo, hi in ((xa, xb), (xb, xa)):
            assert outcome(_brentq, f, lo, hi, xtol) == outcome(
                optimize.brentq, f, lo, hi, xtol=xtol
            )


def outcome(solve, *args, **kwargs):
    """The root, or ``RuntimeError`` when the 100 iterations run out
    (both implementations give up on the same inputs)."""
    try:
        return solve(*args, **kwargs)
    except RuntimeError:
        return RuntimeError


def test_same_sign_bracket_rejected():
    with pytest.raises(ValueError, match="different signs"):
        _brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)


def test_nonconvergence_raises(monkeypatch):
    monkeypatch.setattr(karlin, "_MAXITER", 2)
    with pytest.raises(RuntimeError, match="not converged after 2"):
        _brentq(lambda x: x**3 - 2.0, 0.0, 2.0, 1e-12)
