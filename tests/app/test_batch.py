"""Tests for the multi-query batch API."""

import numpy as np
import pytest

from repro.app import CudaSW, predict_batch, search_batch
from repro.app.batch import BatchReport
from repro.cuda import TESLA_C1060
from repro.engine import build_store, open_database
from repro.sequence import Database, SWISSPROT_PROFILE, Sequence, random_protein


@pytest.fixture(scope="module")
def db_small():
    rng = np.random.default_rng(0)
    seqs = [Sequence.random(f"s{i}", int(n), rng)
            for i, n in enumerate([60, 120, 240, 400])]
    return Database.from_sequences(seqs)


@pytest.fixture(scope="module")
def db_large():
    rng = np.random.default_rng(1)
    return SWISSPROT_PROFILE.build(rng, scale=0.2)


class TestPredictBatch:
    def test_campaign_gcups(self, db_large):
        app = CudaSW(TESLA_C1060)
        batch = predict_batch(app, [144, 567, 2005], db_large)
        assert len(batch.reports) == 3
        assert batch.total_cells == sum(r.total_cells for r in batch.reports)
        # Campaign GCUPs sits within the per-query range.
        per = batch.per_query_gcups
        assert min(per) <= batch.gcups <= max(per) * 1.01

    def test_transfer_counted_once(self, db_large):
        app = CudaSW(TESLA_C1060)
        single = app.predict(567, db_large)
        batch = predict_batch(app, [567, 567], db_large)
        assert batch.total_time == pytest.approx(
            2 * single.compute_time + single.transfer_time
        )

    def test_worst_query(self, db_large):
        app = CudaSW(TESLA_C1060)
        batch = predict_batch(app, [144, 5478], db_large)
        assert batch.worst_query().query_length in (144, 5478)
        assert batch.worst_query().gcups == min(batch.per_query_gcups)

    def test_empty_batch_rejected(self, db_large):
        app = CudaSW(TESLA_C1060)
        with pytest.raises(ValueError):
            predict_batch(app, [], db_large)
        with pytest.raises(ValueError):
            BatchReport(reports=())


class TestSearchBatch:
    def test_per_query_results(self, db_small):
        rng = np.random.default_rng(2)
        app = CudaSW(TESLA_C1060)
        queries = [random_protein(50, rng, id=f"q{i}") for i in range(3)]
        results, batch = search_batch(app, queries, db_small)
        assert len(results) == 3
        for query, result in zip(queries, results):
            assert result.query_id == query.id
            assert len(result) == len(db_small)

    def test_scores_match_individual_searches(self, db_small):
        rng = np.random.default_rng(3)
        app = CudaSW(TESLA_C1060)
        queries = [random_protein(40, rng, id=f"q{i}") for i in range(2)]
        results, _ = search_batch(app, queries, db_small)
        for query, result in zip(queries, results):
            solo, _ = app.search(query, db_small)
            assert np.array_equal(result.scores, solo.scores)

    def test_empty_rejected(self, db_small):
        app = CudaSW(TESLA_C1060)
        with pytest.raises(ValueError):
            search_batch(app, [], db_small)

    def test_engine_selection_threads_through(self, db_small):
        rng = np.random.default_rng(4)
        app = CudaSW(TESLA_C1060)
        queries = [random_protein(30, rng, id=f"q{i}") for i in range(2)]
        batched, _ = search_batch(app, queries, db_small, engine="batched")
        wavefront, _ = search_batch(
            app, queries, db_small, engine="antidiagonal"
        )
        for a, b in zip(batched, wavefront):
            assert np.array_equal(a.scores, b.scores)


class TestPlanReuse:
    """A campaign plans the database once and every query reuses it."""

    @pytest.fixture(scope="class")
    def campaign(self, tmp_path_factory):
        rng = np.random.default_rng(5)
        db = Database.from_sequences(
            [Sequence.random(f"s{i}", int(n), rng)
             for i, n in enumerate(rng.integers(20, 300, size=30))]
            + [Sequence.random(f"long{i}", 1400, rng) for i in range(2)]
        )
        path = tmp_path_factory.mktemp("plan") / "db.rdb"
        build_store(db, path)
        queries = [random_protein(n, rng, id=f"q{n}") for n in (12, 25, 40)]
        return {"fasta": db, "store": open_database(path), "queries": queries}

    @pytest.mark.parametrize("source", ["fasta", "store"])
    @pytest.mark.parametrize("engine", ["batched", "hetero"])
    def test_planned_once_per_campaign(
        self, campaign, engine, source, monkeypatch
    ):
        import repro.app.threshold
        import repro.engine.plan

        calls = {"tune": 0, "plan": 0, "pack": 0}

        def spy(module, name, key):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[key] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        spy(repro.app.threshold, "tune_split_threshold", "tune")
        spy(repro.engine.plan, "plan_groups", "plan")
        spy(repro.engine.plan, "pack_groups", "pack")
        app = CudaSW(TESLA_C1060)
        db, queries = campaign[source], campaign["queries"]
        options = {"engine": engine, "group_size": 8}
        results, _ = search_batch(
            app, queries, db, collect="counters", **options
        )
        assert calls == {
            "tune": 1 if engine == "hetero" else 0, "plan": 1, "pack": 1,
        }
        campaign_counters = app.last_run_report.counters

        solo_pack: dict[str, int] = {}
        for query, result in zip(queries, results):
            solo, _ = app.search(query, db, collect="counters", **options)
            assert np.array_equal(result.scores, solo.scores)
            for name, value in app.last_run_report.counters.items():
                if name.startswith("engine.pack."):
                    solo_pack[name] = solo_pack.get(name, 0) + value
        assert solo_pack
        assert {
            name: value for name, value in campaign_counters.items()
            if name.startswith("engine.pack.")
        } == solo_pack
