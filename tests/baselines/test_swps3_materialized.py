"""SWPS3 scale model over materialized (residue-bearing) databases."""

import numpy as np
import pytest

from repro.baselines import Swps3Model
from repro.sequence import Database, Sequence


@pytest.fixture(scope="module")
def materialized_db():
    rng = np.random.default_rng(0)
    seqs = [Sequence.random(f"s{i}", int(n), rng)
            for i, n in enumerate(rng.integers(100, 600, size=40))]
    return Database.from_sequences(seqs)


def test_report_samples_real_residues(materialized_db):
    rng = np.random.default_rng(1)
    rep = Swps3Model().report(300, materialized_db, rng, sample_rows=5_000)
    assert rep.total_cells == 300 * materialized_db.total_residues
    assert rep.gcups > 0
    assert rep.sampled_columns > 0


def test_report_deterministic_under_seed(materialized_db):
    r1 = Swps3Model().report(
        300, materialized_db, np.random.default_rng(7), sample_rows=5_000
    )
    r2 = Swps3Model().report(
        300, materialized_db, np.random.default_rng(7), sample_rows=5_000
    )
    assert r1.time_seconds == r2.time_seconds
    assert r1.lazy_fraction == r2.lazy_fraction


def test_lazy_fraction_grows_with_cheaper_gaps(materialized_db):
    """Cheap gaps make lazy-F corrections more frequent — the mechanism is
    visible through the sampled workload."""
    from repro.alphabet import GapPenalty

    rng1 = np.random.default_rng(2)
    rng2 = np.random.default_rng(2)
    strict = Swps3Model(gaps=GapPenalty(20, 1)).report(
        200, materialized_db, rng1, sample_rows=5_000
    )
    cheap = Swps3Model(gaps=GapPenalty(2, 1)).report(
        200, materialized_db, rng2, sample_rows=5_000
    )
    assert cheap.lazy_fraction > strict.lazy_fraction


def test_report_pinned(materialized_db):
    """Real residues under cheap gaps: heavy lazy-F work, pinned exactly."""
    from repro.alphabet import GapPenalty

    rep = Swps3Model(gaps=GapPenalty(2, 1)).report(
        200, materialized_db, np.random.default_rng(2), sample_rows=5_000
    )
    assert rep.time_seconds == 0.0006024090128755365
    assert rep.lazy_fraction == 0.6060669680449283
