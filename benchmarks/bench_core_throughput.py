"""Micro-benchmarks of the library's own hot paths.

Unlike the exhibit benchmarks (which regenerate the paper's numbers from
the device model), these measure the actual Python/numpy implementations:
the reference aligners, the striped SIMD loop, the functional kernel
simulators and the closed-form count paths.  Useful for keeping the
simulator itself fast enough to run the experiment sweeps.
"""

import numpy as np
import pytest

from repro.alphabet import BLOSUM62, GapPenalty
from repro.baselines import farrar_sweep
from repro.kernels import (
    ImprovedIntraTaskKernel,
    ImprovedKernelConfig,
    OriginalIntraTaskKernel,
)
from repro.sequence import PackedQueryProfile, StripedProfile, random_protein
from repro.sw import sw_score_antidiagonal, sw_score_scalar

GP = GapPenalty.cudasw_default()


@pytest.fixture(scope="module")
def pair():
    rng = np.random.default_rng(0)
    return random_protein(200, rng, id="q"), random_protein(300, rng, id="d")


def test_scalar_reference(benchmark, pair):
    q, d = pair
    score = benchmark.pedantic(
        sw_score_scalar, args=(q, d, BLOSUM62, GP), rounds=3, iterations=1
    )
    assert score > 0


def test_antidiagonal_reference(benchmark, pair):
    q, d = pair
    score = benchmark(sw_score_antidiagonal, q, d, BLOSUM62, GP)
    assert score == sw_score_scalar(q, d, BLOSUM62, GP)


def test_striped_simd(benchmark, pair):
    q, d = pair
    profile = StripedProfile(q.codes, BLOSUM62, target_lanes=8)
    score, _ = benchmark(farrar_sweep, profile, d.codes, GP)
    assert score == sw_score_scalar(q, d, BLOSUM62, GP)


def test_original_kernel_simulation(benchmark, pair):
    q, d = pair
    kernel = OriginalIntraTaskKernel(threads_per_block=64)
    run = benchmark(kernel.run_pair, q.codes, d.codes, BLOSUM62, GP)
    assert run.score == sw_score_scalar(q, d, BLOSUM62, GP)


def test_improved_kernel_simulation(benchmark, pair):
    q, d = pair
    kernel = ImprovedIntraTaskKernel(ImprovedKernelConfig(threads_per_block=32))
    run = benchmark(kernel.run_pair, q.codes, d.codes, BLOSUM62, GP)
    assert run.score == sw_score_scalar(q, d, BLOSUM62, GP)


def test_bulk_closed_form_counts(benchmark):
    rng = np.random.default_rng(1)
    lengths = np.maximum(
        rng.lognormal(np.log(2000), 0.5, 10_000).astype(np.int64), 100
    )
    kernel = OriginalIntraTaskKernel()
    counts = benchmark(kernel.bulk_pair_counts, 567, lengths)
    assert counts.cells == int(567 * lengths.sum())


def test_packed_profile_construction(benchmark):
    rng = np.random.default_rng(2)
    q = random_protein(5478, rng)
    profile = benchmark(PackedQueryProfile, q.codes, BLOSUM62)
    assert profile.n_packs == 5478 // 4 + (1 if 5478 % 4 else 0)
