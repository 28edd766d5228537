"""Karlin-Altschul parameters of a scoring system.

For ungapped local alignment with substitution scores ``s(a, b)`` and
background frequencies ``p_a``, Karlin & Altschul (1990) showed the
optimal score follows an extreme-value distribution with

    E(S) = K * m * n * exp(-lambda * S)

where ``lambda`` is the unique positive root of

    sum_{a,b} p_a * p_b * exp(lambda * s(a, b)) = 1

(which exists iff the expected score is negative and a positive score is
possible), and ``K`` is a computable constant.  ``lambda`` is solved
exactly here by :func:`_brentq`, a pure-Python port of the Brent
routine behind ``scipy.optimize.brentq`` that repeats its floating-point
operations in the same order, so the root is bit-identical to SciPy's
without importing SciPy on the search path.  ``K``'s closed form
involves an infinite series over lattice sums; following common
practice for gapped scoring systems — where no closed form exists at
all — ``K`` is *calibrated empirically*: optimal scores of random
sequence pairs are fitted to the EVD with ``lambda`` fixed, through
the EVD location of their mean score (see :func:`calibrate_k`).

The random pairs are drawn one sequence at a time in a fixed order
(:func:`_sample_pairs`) and then scored together in one pairwise lane
sweep (:func:`repro.engine.lanes.score_pairs`), lane ``k`` carrying
pair ``k`` — the inter-task layout of the paper, one independent pair
per thread.  Ungapped systems run the same sweep with gap penalties at
the validation cap, where no gapped alignment can score above zero.
The calibration is deterministic given the RNG seed and is cached per
scoring system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.alphabet import GapPenalty, SubstitutionMatrix
from repro.obs import current as obs_current

__all__ = [
    "KarlinParameters",
    "karlin_lambda",
    "expected_score",
    "relative_entropy",
    "karlin_parameters",
    "calibrate_k",
]


def _clean_frequencies(
    matrix: SubstitutionMatrix, frequencies: np.ndarray
) -> np.ndarray:
    freq = np.asarray(frequencies, dtype=np.float64)
    if freq.shape != (matrix.alphabet.size,):
        raise ValueError(
            f"frequencies must have shape ({matrix.alphabet.size},), "
            f"got {freq.shape}"
        )
    if np.any(freq < 0) or freq.sum() <= 0:
        raise ValueError("frequencies must be non-negative and not all zero")
    return freq / freq.sum()


def expected_score(
    matrix: SubstitutionMatrix, frequencies: np.ndarray
) -> float:
    """Mean per-column score ``sum p_a p_b s(a,b)`` (must be < 0 for
    local-alignment statistics to exist)."""
    p = _clean_frequencies(matrix, frequencies)
    return float(p @ matrix.scores @ p)


def karlin_lambda(
    matrix: SubstitutionMatrix,
    frequencies: np.ndarray,
    *,
    tolerance: float = 1e-12,
) -> float:
    """The unique positive root of ``sum p_a p_b exp(lambda s_ab) = 1``.

    Raises ``ValueError`` when the scoring system is invalid for local
    alignment (non-negative expected score, or no positive score).
    """
    p = _clean_frequencies(matrix, frequencies)
    S = matrix.scores.astype(np.float64)
    mean = float(p @ S @ p)
    if mean >= 0:
        raise ValueError(
            f"expected score must be negative for local-alignment "
            f"statistics (got {mean:.4f})"
        )
    support = np.outer(p, p) > 0
    if not np.any(S[support] > 0):
        raise ValueError("a positive score must be possible")

    weights = np.outer(p, p)

    def f(lam: float) -> float:
        return float(np.sum(weights * np.exp(lam * S))) - 1.0

    # f(0) = 0, f'(0) = mean < 0, and f -> +inf: bracket the positive root.
    hi = 0.5
    while f(hi) < 0:
        hi *= 2.0
        if hi > 1e4:  # pragma: no cover - pathological matrices
            raise ValueError("failed to bracket lambda")
    return _brentq(f, 1e-10, hi, xtol=tolerance)


#: ``scipy.optimize.brentq``'s default relative tolerance, ``4 * eps``.
_RTOL = 4 * float(np.finfo(float).eps)
#: ``scipy.optimize.brentq``'s default iteration cap.
_MAXITER = 100


def _brentq(
    f: Callable[[float], float], xa: float, xb: float, xtol: float
) -> float:
    """A root of ``f`` in the sign-changing bracket ``[xa, xb]``.

    A line-for-line port of SciPy's ``brentq.c`` (Brent 1973: inverse
    quadratic interpolation, secant and bisection steps) with the same
    defaults.  The floating-point operations run in the C routine's
    order, so the root is bit-identical to ``scipy.optimize.brentq``;
    λ feeds every bit score and E-value, so a nearby root is not enough.
    """
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_MAXITER):
        if fpre != 0 and fcur != 0 and (
            math.copysign(1.0, fpre) != math.copysign(1.0, fcur)
        ):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (
                    -fcur * (fblk * dblk - fpre * dpre)
                    / (dblk * dpre * (fblk - fpre))
                )
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise RuntimeError(f"root not converged after {_MAXITER} iterations")


def relative_entropy(
    matrix: SubstitutionMatrix, frequencies: np.ndarray, lam: float | None = None
) -> float:
    """The scoring system's relative entropy H (bits of information per
    aligned column under the target distribution)."""
    p = _clean_frequencies(matrix, frequencies)
    if lam is None:
        lam = karlin_lambda(matrix, frequencies)
    S = matrix.scores.astype(np.float64)
    target = np.outer(p, p) * np.exp(lam * S)
    return float(np.sum(target * S) * lam / math.log(2))


@dataclass(frozen=True)
class KarlinParameters:
    """The (lambda, K, H) triple of one scoring system."""

    lam: float
    k: float
    h: float
    gapped: bool

    def __post_init__(self) -> None:
        if self.lam <= 0 or self.k <= 0 or self.h <= 0:
            raise ValueError("Karlin parameters must be positive")

    def bit_score(self, raw_score: float) -> float:
        """Normalized score in bits: ``(lambda S - ln K) / ln 2``."""
        return (self.lam * raw_score - math.log(self.k)) / math.log(2)

    def evalue(self, raw_score: float, m: int, n: int) -> float:
        """Expected number of chance hits at least this good in an
        ``m x n`` search space."""
        if m <= 0 or n <= 0:
            raise ValueError("search-space dimensions must be positive")
        return self.k * m * n * math.exp(-self.lam * raw_score)

    @staticmethod
    def pvalue_from_evalue(evalue: float) -> float:
        """P(at least one chance hit) = 1 - exp(-E)."""
        return -math.expm1(-evalue)


#: Shape of every calibration run: ``samples`` random pairs of two
#: ``length``-residue sequences.
_SAMPLES, _LENGTH = 60, 180


def _sample_pairs(
    size: int,
    p: np.ndarray,
    rng: np.random.Generator,
    samples: int,
    length: int,
) -> tuple[np.ndarray, np.ndarray]:
    """``samples`` random pairs as two ``(samples, length)`` uint8 arrays.

    Sequences are drawn one at a time, ``a`` then ``b`` for each sample,
    so the pairs (and every calibrated parameter) stay fixed by the seed.
    """
    a = np.empty((samples, length), dtype=np.uint8)
    b = np.empty((samples, length), dtype=np.uint8)
    for i in range(samples):
        a[i] = rng.choice(size, size=length, p=p)
        b[i] = rng.choice(size, size=length, p=p)
    return a, b


def _score_pairs(
    matrix: SubstitutionMatrix,
    a: np.ndarray,
    b: np.ndarray,
    gaps: GapPenalty | None,
) -> np.ndarray:
    """Optimal local score of every pair ``(a[k], b[k])``, one lane sweep.

    ``gaps=None`` scores ungapped alignments: the sweep runs with both
    penalties at the validation cap ``2**20``, where any alignment with a
    gap scores at most ``length * max(W) - 2**20 < 0`` and so never beats
    the empty alignment — the optimum is the best gap-free segment.
    """
    from repro.engine.lanes import score_pairs

    if gaps is None:
        cap = 2**20
        if min(a.shape[1], b.shape[1]) * int(matrix.scores.max()) >= cap:
            raise ValueError(
                "sequences too long for exact ungapped scoring at the "
                "gap-penalty cap"
            )
        gaps = GapPenalty(rho=cap, sigma=cap)
    instr = obs_current()
    if instr.enabled:
        instr.count("stats.calibrate.pairs", a.shape[0])
    return score_pairs(a, b, matrix, gaps)


def calibrate_k(
    matrix: SubstitutionMatrix,
    frequencies: np.ndarray,
    lam: float,
    gaps: GapPenalty | None,
    rng: np.random.Generator,
    *,
    samples: int = _SAMPLES,
    length: int = _LENGTH,
) -> float:
    """Empirical K: fit the EVD location from random-pair optimal scores.

    For an EVD, ``E[S] = (ln(K m n) + gamma) / lambda`` with Euler's
    ``gamma``; solving for K from the sample mean gives a consistent,
    simple estimator.  Gapped systems use the exact gapped optimum,
    ungapped systems the best ungapped segment (see :func:`_score_pairs`).
    """
    if samples <= 1 or length <= 1:
        raise ValueError("need several samples of non-trivial length")
    p = _clean_frequencies(matrix, frequencies)
    a, b = _sample_pairs(matrix.alphabet.size, p, rng, samples, length)
    scores = _score_pairs(matrix, a, b, gaps).astype(np.float64)
    gamma = 0.5772156649015329
    mean = float(scores.mean())
    k = math.exp(lam * mean - gamma) / (length * length)
    # Clamp to the sane range of published K values.
    return float(min(max(k, 1e-6), 1.0))


_CACHE: dict[tuple, KarlinParameters] = {}


def karlin_parameters(
    matrix: SubstitutionMatrix,
    frequencies: np.ndarray,
    gaps: GapPenalty | None = None,
    *,
    seed: int = 2011,
) -> KarlinParameters:
    """The (lambda, K, H) of a scoring system, with caching.

    ``gaps=None`` gives the ungapped statistics (exact lambda); with a
    gap model, ``lambda`` is scaled by the standard gapped correction
    fitted into the empirical calibration (the empirical scores already
    include gaps, so the EVD fit absorbs the difference).
    """
    p = _clean_frequencies(matrix, frequencies)
    key = (
        matrix.name,
        matrix.scores.tobytes(),
        p.tobytes(),
        None if gaps is None else (gaps.rho, gaps.sigma),
        seed,
    )
    if key in _CACHE:
        return _CACHE[key]
    lam = lam_ungapped = karlin_lambda(matrix, frequencies)
    if gaps is not None:
        # Gapped lambda is below the ungapped one; fit it from the
        # empirical score spread (EVD: stddev = pi / (sqrt(6) lambda)).
        rng = np.random.default_rng(seed)
        a, b = _sample_pairs(matrix.alphabet.size, p, rng, _SAMPLES, _LENGTH)
        scores = _score_pairs(matrix, a, b, gaps).astype(np.float64)
        spread = float(scores.std(ddof=1))
        lam_gapped = math.pi / (math.sqrt(6.0) * max(spread, 1e-9))
        lam = min(lam, lam_gapped)
    rng = np.random.default_rng(seed + 1)
    k = calibrate_k(matrix, frequencies, lam, gaps, rng)
    h = relative_entropy(matrix, frequencies, lam_ungapped)
    params = KarlinParameters(lam=lam, k=k, h=h, gapped=gaps is not None)
    _CACHE[key] = params
    return params
