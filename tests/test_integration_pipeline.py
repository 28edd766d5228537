"""End-to-end pipeline integration tests.

Each test walks a realistic user journey across several subsystems and
checks the cross-cutting invariants no unit test sees: functional scores
vs kernel simulators vs baselines on the same database, report accounting
consistency, and serialization in the middle of a workflow.
"""

import numpy as np
import pytest

from repro.alphabet import BLOSUM62, GapPenalty
from repro.app import CudaSW, predict_batch
from repro.baselines import BlastLikeSearcher, farrar_sweep
from repro.cuda import TESLA_C1060, TESLA_C2050
from repro.kernels import ImprovedIntraTaskKernel, ImprovedKernelConfig
from repro.sequence import (
    Database,
    StripedProfile,
    evolve,
    plant_motif,
    random_protein,
)
from repro.stats import ScoreStatistics, annotate_hits

GP = GapPenalty.cudasw_default()


@pytest.fixture(scope="module")
def workload():
    """A query, one strong homolog, one weak homolog, decoys — with one
    sequence long enough to cross the (lowered) dispatch threshold."""
    rng = np.random.default_rng(0)
    query = random_protein(90, rng, id="query")
    strong, _ = plant_motif(query, 400, rng, id="strong")
    diverged = evolve(query, rng, substitution_rate=0.4, indel_rate=0.03)
    weak, _ = plant_motif(diverged, 350, rng, id="weak")
    long_decoy = random_protein(900, rng, id="long_decoy")
    decoys = [random_protein(250, rng, id=f"decoy{i}") for i in range(4)]
    db = Database.from_sequences([strong, weak, long_decoy, *decoys])
    return query, db


class TestCrossSystemAgreement:
    def test_app_swps3_and_kernels_agree(self, workload):
        query, db = workload
        app = CudaSW(
            TESLA_C1060,
            intra_kernel=ImprovedIntraTaskKernel(
                ImprovedKernelConfig(threads_per_block=32), TESLA_C1060
            ),
            threshold=500,  # force the long decoy through intra-task
        )
        reference, report = app.search(query, db)
        simulated, _ = app.search(query, db, engine="simulate")
        profile = StripedProfile(query.codes, BLOSUM62, target_lanes=8)
        swps3_scores = [
            farrar_sweep(profile, db.codes_of(i), app.gaps)[0]
            for i in range(len(db))
        ]

        assert np.array_equal(reference.scores, simulated.scores)
        assert np.array_equal(reference.scores, swps3_scores)
        assert report.n_intra_sequences == 1  # the 900-residue decoy

    def test_heuristic_lower_bounds_everyone(self, workload):
        query, db = workload
        app = CudaSW(TESLA_C1060)
        exact, _ = app.search(query, db)
        heuristic = BlastLikeSearcher(query).search(db)
        assert np.all(heuristic <= exact.scores)
        # And it still ranks the strong homolog first.
        assert int(np.argmax(heuristic)) == 0

    def test_statistics_rank_by_relationship(self, workload):
        query, db = workload
        app = CudaSW(TESLA_C1060)
        result, _ = app.search(query, db)
        stats = ScoreStatistics(BLOSUM62, GP)
        hits = annotate_hits(result, stats, len(query), k=3)
        assert [h.hit.id for h in hits[:2]] == ["strong", "weak"]
        assert hits[0].evalue < hits[1].evalue < 1e-3


class TestReportAccounting:
    def test_counts_and_times_are_consistent(self, workload):
        query, db = workload
        app = CudaSW(TESLA_C1060, threshold=500)
        _, report = app.search(query, db)
        assert report.n_inter_sequences + report.n_intra_sequences == len(db)
        assert report.total_time == pytest.approx(
            report.inter_time + report.intra_time + report.transfer_time
        )
        assert (
            report.inter_counts.cells + report.intra_counts.cells
            <= report.total_cells
        )
        # Padded issue slots exceed useful cells on both sides.
        assert report.inter_counts.idle_thread_steps >= 0
        assert report.intra_counts.idle_thread_steps >= 0

    def test_batch_matches_individual_predictions(self, workload):
        _, db = workload
        app = CudaSW(TESLA_C1060)
        batch = predict_batch(app, [90, 200], db)
        solo = [app.predict(m, db) for m in (90, 200)]
        for b, s in zip(batch.reports, solo):
            assert b.total_time == pytest.approx(s.total_time)


class TestSerializationMidPipeline:
    def test_save_search_load_search(self, workload, tmp_path):
        from repro.sequence.serialize import load_database, save_database

        query, db = workload
        app = CudaSW(TESLA_C2050)
        before, _ = app.search(query, db)
        path = tmp_path / "workload.npz"
        save_database(db, path)
        after, _ = app.search(query, load_database(path))
        assert np.array_equal(before.scores, after.scores)


class TestDeviceConsistency:
    def test_same_scores_any_device_different_times(self, workload):
        """Devices change the clock, never the mathematics."""
        query, db = workload
        r1, t1 = CudaSW(TESLA_C1060).search(query, db)
        r2, t2 = CudaSW(TESLA_C2050).search(query, db)
        assert np.array_equal(r1.scores, r2.scores)
        assert t1.total_time != t2.total_time
