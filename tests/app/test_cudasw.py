"""Tests for the end-to-end CUDASW++ application layer."""

import numpy as np
import pytest

from repro.app import CudaSW, multi_gpu_time, split_round_robin
from repro.app.cudasw import tuned_improved_config
from repro.cuda import TESLA_C1060, TESLA_C2050
from repro.kernels import ImprovedIntraTaskKernel, ImprovedKernelConfig
from repro.sequence import Database, SWISSPROT_PROFILE, random_protein
from repro.sw import sw_score_antidiagonal


@pytest.fixture(scope="module")
def swissprot_full():
    """The full-scale Swiss-Prot stand-in (lengths only — cheap).

    Scale matters: the inter-task side needs many occupancy-sized groups
    and the intra-task side enough blocks to fill the SMs, otherwise
    grid-underutilization and coarse-group load imbalance — real effects
    the cost model captures — dominate the threshold experiments.  The
    performance path never materializes residues, so full scale costs
    only a 516k-element length array.
    """
    rng = np.random.default_rng(42)
    return SWISSPROT_PROFILE.build(rng)


@pytest.fixture(scope="module")
def tiny_db():
    """A tiny materialized database with one above-threshold sequence."""
    rng = np.random.default_rng(7)
    from repro.sequence import Sequence

    seqs = [Sequence.random(f"s{i}", int(n), rng)
            for i, n in enumerate([40, 80, 200, 350, 3500])]
    return Database.from_sequences(seqs)


class TestPredict:
    def test_report_fields(self, swissprot_full):
        app = CudaSW(TESLA_C1060, intra_kernel="original")
        r = app.predict(567, swissprot_full)
        assert r.device == "Tesla C1060"
        assert r.n_inter_sequences + r.n_intra_sequences == len(swissprot_full)
        assert r.total_time > 0
        assert r.gcups > 0
        assert 0 <= r.intra_time_fraction < 1
        assert r.total_cells == 567 * swissprot_full.total_residues

    def test_improved_beats_original(self, swissprot_full):
        orig = CudaSW(TESLA_C1060, intra_kernel="original").predict(
            567, swissprot_full
        )
        imp = CudaSW(TESLA_C1060, intra_kernel="improved").predict(
            567, swissprot_full
        )
        assert imp.gcups > orig.gcups
        assert imp.intra_time_fraction < orig.intra_time_fraction

    def test_lower_threshold_hurts_original_kernel(self, swissprot_full):
        """Figure 3: small threshold decreases cause large GCUPs drops."""
        gcups = [
            CudaSW(TESLA_C1060, intra_kernel="original", threshold=t).predict(
                572, swissprot_full
            ).gcups
            for t in (3072, 2000, 1200)
        ]
        assert gcups[0] > gcups[1] > gcups[2]
        assert gcups[0] > 1.5 * gcups[2]

    def test_improved_kernel_less_threshold_sensitive(self, swissprot_full):
        """Figure 5(a): the improved kernel flattens the sensitivity."""
        def drop(kernel):
            hi = CudaSW(TESLA_C1060, intra_kernel=kernel, threshold=3072).predict(
                576, swissprot_full
            ).gcups
            lo = CudaSW(TESLA_C1060, intra_kernel=kernel, threshold=1200).predict(
                576, swissprot_full
            ).gcups
            return hi / lo

        assert drop("original") > 1.5 * drop("improved")

    def test_fermi_helps_original_more(self, swissprot_full):
        """Table II / Section IV-A: the C2050's caches mainly rescue the
        original kernel."""
        gain_orig = (
            CudaSW(TESLA_C2050, intra_kernel="original", threshold=1500)
            .predict(567, swissprot_full).gcups
            / CudaSW(TESLA_C1060, intra_kernel="original", threshold=1500)
            .predict(567, swissprot_full).gcups
        )
        gain_imp = (
            CudaSW(TESLA_C2050, intra_kernel="improved", threshold=1500)
            .predict(567, swissprot_full).gcups
            / CudaSW(TESLA_C1060, intra_kernel="improved", threshold=1500)
            .predict(567, swissprot_full).gcups
        )
        assert gain_orig > gain_imp

    def test_all_below_threshold(self):
        db = Database.from_lengths([100, 200, 300])
        r = CudaSW(TESLA_C1060).predict(100, db)
        assert r.n_intra_sequences == 0
        assert r.intra_time == 0.0
        assert r.inter_time > 0

    def test_all_above_threshold(self):
        db = Database.from_lengths([4000, 5000])
        r = CudaSW(TESLA_C1060).predict(100, db)
        assert r.n_inter_sequences == 0
        assert r.inter_time == 0.0
        assert r.intra_time > 0

    def test_streaming_copy_hides_transfer(self, swissprot_full):
        plain = CudaSW(TESLA_C1060).predict(567, swissprot_full)
        stream = CudaSW(TESLA_C1060, streaming_copy=True).predict(
            567, swissprot_full
        )
        assert stream.transfer_time < plain.transfer_time
        assert stream.total_time < plain.total_time

    def test_custom_intra_kernel_instance(self, swissprot_full):
        k = ImprovedIntraTaskKernel(
            ImprovedKernelConfig(threads_per_block=128), TESLA_C1060
        )
        r = CudaSW(TESLA_C1060, intra_kernel=k).predict(567, swissprot_full)
        assert r.gcups > 0

    def test_validation(self, swissprot_full):
        with pytest.raises(ValueError):
            CudaSW(TESLA_C1060, intra_kernel="bogus")
        with pytest.raises(ValueError):
            CudaSW(TESLA_C1060, threshold=0)
        with pytest.raises(ValueError):
            CudaSW(TESLA_C1060).predict(0, swissprot_full)

    def test_tuned_configs(self):
        assert tuned_improved_config(TESLA_C1060).strip_height == 512
        assert tuned_improved_config(TESLA_C2050).strip_height == 1024


class TestFunctionalSearch:
    def test_scores_match_reference(self, tiny_db):
        rng = np.random.default_rng(1)
        app = CudaSW(TESLA_C1060)
        q = random_protein(120, rng, id="query")
        result, report = app.search(q, tiny_db)
        for i in range(len(tiny_db)):
            expected = sw_score_antidiagonal(
                q.codes, tiny_db.codes_of(i), app.matrix, app.gaps
            )
            assert result.scores[i] == expected
        assert report.n_intra_sequences == 1  # the 3500-residue entry

    def test_simulated_kernels_agree_with_reference(self, tiny_db):
        """Dispatch through the functional kernel simulators must give the
        same scores as the reference path."""
        rng = np.random.default_rng(2)
        # Small-strip improved kernel keeps the simulation fast.
        k = ImprovedIntraTaskKernel(
            ImprovedKernelConfig(threads_per_block=32), TESLA_C1060
        )
        app = CudaSW(TESLA_C1060, intra_kernel=k, threshold=300)
        q = random_protein(60, rng, id="q")
        small = tiny_db.select(np.array([0, 1, 2, 3]))  # keep it quick
        ref, _ = app.search(q, small)
        sim, _ = app.search(q, small, engine="simulate")
        assert np.array_equal(ref.scores, sim.scores)

    def test_top_hits_ranked(self, tiny_db):
        app = CudaSW(TESLA_C1060)
        # Query = a slice of sequence s2, so s2 must be the best hit.
        q = tiny_db[2].slice(20, 120)
        result, _ = app.search(q, tiny_db)
        top = result.top(3)
        assert top[0].id == "s2"
        assert top[0].score >= top[1].score >= top[2].score

    def test_search_requires_residues(self, swissprot_full):
        rng = np.random.default_rng(4)
        app = CudaSW(TESLA_C1060)
        with pytest.raises(ValueError, match="materialized"):
            app.search(random_protein(50, rng), swissprot_full)

    def test_score_of_lookup(self, tiny_db):
        rng = np.random.default_rng(5)
        app = CudaSW(TESLA_C1060)
        result, _ = app.search(random_protein(50, rng), tiny_db)
        assert result.score_of("s1") == result.scores[1]
        with pytest.raises(KeyError):
            result.score_of("nope")


class TestSearchEngines:
    """The selectable functional backends must be interchangeable."""

    def test_all_engines_agree(self, tiny_db):
        rng = np.random.default_rng(11)
        app = CudaSW(TESLA_C1060)
        q = random_protein(45, rng, id="q")
        small = tiny_db.select(np.array([0, 1, 2, 3]))  # scalar is slow
        results = {
            engine: app.search(q, small, engine=engine)[0].scores
            for engine in ("scalar", "antidiagonal", "batched")
        }
        assert np.array_equal(results["scalar"], results["antidiagonal"])
        assert np.array_equal(results["scalar"], results["batched"])

    def test_batched_is_the_default(self, tiny_db):
        rng = np.random.default_rng(12)
        app = CudaSW(TESLA_C1060)
        assert app.last_engine_report is None
        app.search(random_protein(30, rng), tiny_db)
        assert app.last_engine_report is not None
        assert sum(app.last_engine_report.group_sizes) == len(tiny_db)

    def test_engine_report_not_touched_by_other_engines(self, tiny_db):
        rng = np.random.default_rng(13)
        app = CudaSW(TESLA_C1060)
        app.search(random_protein(30, rng), tiny_db, engine="antidiagonal")
        assert app.last_engine_report is None

    def test_workers_and_group_size_thread_through(self, tiny_db):
        rng = np.random.default_rng(14)
        app = CudaSW(TESLA_C1060)
        q = random_protein(30, rng, id="q")
        serial, _ = app.search(q, tiny_db)
        fanned, _ = app.search(
            q, tiny_db, engine="batched", workers=2, group_size=2
        )
        assert np.array_equal(serial.scores, fanned.scores)
        assert app.last_engine_report.workers == 2
        assert app.last_engine_report.group_size == 2

    def test_stale_engine_report_cleared_between_searches(self, tiny_db):
        """Regression: a batched search's report must not survive a
        following non-batched search as if it described it."""
        rng = np.random.default_rng(16)
        app = CudaSW(TESLA_C1060)
        q = random_protein(30, rng, id="q")
        app.search(q, tiny_db, engine="batched")
        assert app.last_engine_report is not None
        app.search(q, tiny_db, engine="antidiagonal")
        assert app.last_engine_report is None
        app.search(q, tiny_db, engine="simulate")
        assert app.last_engine_report is None

    def test_invalid_collect_mode_rejected(self, tiny_db):
        rng = np.random.default_rng(17)
        app = CudaSW(TESLA_C1060)
        with pytest.raises(ValueError, match="collect"):
            app.search(random_protein(30, rng), tiny_db, collect="spans")


class TestMultiGpu:
    def test_round_robin_split(self, swissprot_full):
        shards = split_round_robin(swissprot_full, 4)
        assert sum(len(s) for s in shards) == len(swissprot_full)
        # Shards see near-identical workloads.
        residues = [s.total_residues for s in shards]
        assert max(residues) / min(residues) < 1.05

    def test_lpt_split_covers_and_balances(self, swissprot_full):
        from repro.app.multigpu import split_lpt

        shards = split_lpt(swissprot_full, 4, block_size=15360)
        assert sum(len(s) for s in shards) == len(swissprot_full)

    def test_near_linear_scaling(self, swissprot_full):
        """Section IV-B: running time scales almost linearly with GPUs."""
        app = CudaSW(TESLA_C1060)
        t1 = app.predict(567, swissprot_full).total_time
        t2, reports = multi_gpu_time(app, 567, swissprot_full, 2)
        t4, _ = multi_gpu_time(app, 567, swissprot_full, 4)
        assert len(reports) == 2
        assert 1.8 < t1 / t2 < 2.1
        assert 3.5 < t1 / t4 < 4.2

    def test_lpt_beats_group_round_robin(self, swissprot_full):
        """Dealing whole groups round-robin strands the expensive tail
        group on one card; LPT balances it."""
        from repro.app.multigpu import inter_task_group_size, split_lpt

        app = CudaSW(TESLA_C1060)
        s = inter_task_group_size(app)
        rr = max(
            app.predict(567, shard).total_time
            for shard in split_round_robin(swissprot_full, 4, block_size=s)
        )
        lpt = max(
            app.predict(567, shard).total_time
            for shard in split_lpt(swissprot_full, 4, block_size=s)
        )
        assert lpt < rr

    def test_split_validation(self, swissprot_full):
        with pytest.raises(ValueError):
            split_round_robin(swissprot_full, 0)
        small = Database.from_lengths([10, 20])
        with pytest.raises(ValueError):
            split_round_robin(small, 3)
        with pytest.raises(ValueError):
            split_round_robin(swissprot_full, 2, block_size=0)
