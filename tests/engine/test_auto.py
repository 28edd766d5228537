"""``engine="auto"``: one geometry per query, picked by its length.

Below :data:`~repro.engine.AUTO_CROSSOVER_LENGTH` auto runs gotoh lanes
at :data:`~repro.engine.AUTO_SHORT_GROUP_SIZE`; from there on it runs
``hetero`` at 128 lanes.  Scores must equal ``sw_score_scalar`` on
either side of the crossover on every search path — serial, the worker
pool, an ``.rdb`` store, a journal killed and resumed, a memory-budget
split — and an auto search must be indistinguishable, journal
included, from the explicit engine it picked.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from repro.alphabet import BLOSUM62, GapPenalty
from repro.app import CudaSW, search_batch
from repro.engine import (
    AUTO_CROSSOVER_LENGTH,
    AUTO_SHORT_GROUP_SIZE,
    DEFAULT_GROUP_SIZE,
    BatchedEngine,
    FaultPolicy,
    MemoryBudget,
    SearchConfig,
    build_store,
    estimate_group_bytes,
    open_database,
)
from repro.obs import collect
from repro.sequence import Database, Sequence, random_protein, write_fasta
from repro.sw import sw_score_scalar

GP = GapPenalty.cudasw_default()

#: One query length either side of the crossover, and the crossover.
LENGTHS = (
    AUTO_CROSSOVER_LENGTH - 1,
    AUTO_CROSSOVER_LENGTH,
    AUTO_CROSSOVER_LENGTH + 1,
)

#: Per-group sleep in the child that is killed mid-journal.
CHILD_GROUP_SLEEP = 0.5


def picked(length):
    return "batched" if length < AUTO_CROSSOVER_LENGTH else "hetero"


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """34 short sequences and two long ones: the short geometry packs
    several gotoh groups, hetero a striped bulk group and a strips
    tail."""
    rng = np.random.default_rng(16)
    seqs = [
        Sequence.random(f"s{i}", int(n), rng)
        for i, n in enumerate(rng.integers(20, 100, size=34))
    ] + [
        Sequence.random(f"long{i}", int(n), rng)
        for i, n in enumerate(rng.integers(300, 360, size=2))
    ]
    db = Database.from_sequences(seqs)
    queries = {m: random_protein(m, rng, id=f"q{m}") for m in LENGTHS}
    reference = {
        m: np.array([
            sw_score_scalar(q.codes, db.codes_of(i), BLOSUM62, GP)
            for i in range(len(db))
        ])
        for m, q in queries.items()
    }
    tmp = tmp_path_factory.mktemp("auto")
    build_store(db, tmp / "auto.rdb")
    write_fasta(seqs, tmp / "db.fasta")
    for m, q in queries.items():
        write_fasta([q], tmp / f"q{m}.fasta")
    return {
        "db": db, "queries": queries, "reference": reference,
        "store": open_database(tmp / "auto.rdb"), "tmp": tmp,
    }


def _journal_fingerprint(path: Path) -> str:
    blob = path.read_bytes()
    start = blob.index(b'{"fingerprint"')
    end = blob.index(b"}", start) + 1
    return json.loads(blob[start:end])["fingerprint"]


class TestForQuery:
    def test_picks_by_length(self):
        auto = SearchConfig()
        assert auto.engine == "auto" and auto.group_size is None
        assert auto.for_query(AUTO_CROSSOVER_LENGTH - 1) == SearchConfig(
            engine="batched", group_size=AUTO_SHORT_GROUP_SIZE
        )
        long = auto.for_query(AUTO_CROSSOVER_LENGTH)
        assert long == SearchConfig(engine="hetero")
        assert long.group_size == DEFAULT_GROUP_SIZE
        assert long.split_threshold == "auto"

    def test_explicit_engine_runs_as_configured(self):
        config = SearchConfig(engine="striped", group_size=16)
        assert config.for_query(1) is config
        assert config.for_query(10_000) is config

    def test_pool_and_plan_options_carry_over(self):
        budget = MemoryBudget(1 << 20)
        policy = FaultPolicy(retries=1)
        auto = SearchConfig(
            workers=2, fault_policy=policy, memory_budget=budget
        )
        for m in LENGTHS:
            config = auto.for_query(m)
            assert config.engine == picked(m)
            assert (config.workers, config.fault_policy,
                    config.memory_budget) == (2, policy, budget)


@pytest.mark.parametrize("m", LENGTHS)
class TestAutoMatchesScalar:
    def test_serial(self, corpus, m):
        scores, report = BatchedEngine(BLOSUM62, GP).search(
            corpus["queries"][m], corpus["db"]
        )
        assert np.array_equal(scores, corpus["reference"][m])
        assert report.lane_engine == picked(m)
        assert report.group_size == (
            AUTO_SHORT_GROUP_SIZE if m < AUTO_CROSSOVER_LENGTH
            else DEFAULT_GROUP_SIZE
        )

    def test_worker_pool(self, corpus, m):
        # An explicit fault policy keeps the small search on the pool
        # instead of demoting it to the serial path.
        with collect("counters") as instr:
            scores, report = BatchedEngine(
                BLOSUM62, GP, workers=2,
                fault_policy=FaultPolicy(chunksize=1),
            ).search(corpus["queries"][m], corpus["db"])
        assert np.array_equal(scores, corpus["reference"][m])
        assert report.workers == 2 and report.n_groups >= 2
        assert instr.counters.get("engine.executor.tasks_submitted") >= 2

    def test_store(self, corpus, m):
        scores, report = BatchedEngine(BLOSUM62, GP).search(
            corpus["queries"][m], corpus["store"]
        )
        assert np.array_equal(scores, corpus["reference"][m])
        assert report.lane_engine == picked(m)

    def test_memory_budget_split(self, corpus, m):
        budget = MemoryBudget(estimate_group_bytes(4, 400))
        with collect("counters") as instr:
            scores, _ = BatchedEngine(
                BLOSUM62, GP, memory_budget=budget
            ).search(corpus["queries"][m], corpus["db"])
        assert np.array_equal(scores, corpus["reference"][m])
        assert instr.counters.get("engine.budget.groups_split") >= 1

    def test_killed_then_resumed(self, corpus, m):
        tmp = corpus["tmp"]
        journal = tmp / f"killed-{m}.wal"
        child = subprocess.Popen(
            [sys.executable, "-c", CHILD_SCRIPT, str(tmp / "db.fasta"),
             str(tmp / f"q{m}.fasta"), str(journal)],
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=Path(__file__).resolve().parents[2],
        )
        try:
            _wait_for_first_record(journal)
        finally:
            if child.poll() is None:
                child.send_signal(signal.SIGKILL)
            child.wait(timeout=30)
        assert child.returncode == -signal.SIGKILL
        with collect("counters") as instr:
            scores, _ = BatchedEngine(BLOSUM62, GP).search(
                corpus["queries"][m], corpus["db"],
                checkpoint=journal, resume=True,
            )
        assert np.array_equal(scores, corpus["reference"][m])
        counters = instr.counters.as_dict()
        assert counters["engine.checkpoint.groups_replayed"] >= 1
        assert counters["engine.checkpoint.groups_recomputed"] >= 1

    def test_journal_matches_the_engine_it_picked(self, corpus, m, tmp_path):
        query = corpus["queries"][m]
        auto_journal = tmp_path / "auto.wal"
        explicit_journal = tmp_path / "explicit.wal"
        BatchedEngine(BLOSUM62, GP).search(
            query, corpus["db"], checkpoint=auto_journal
        )
        BatchedEngine(BLOSUM62, GP, SearchConfig().for_query(m)).search(
            query, corpus["db"], checkpoint=explicit_journal
        )
        assert _journal_fingerprint(auto_journal) == _journal_fingerprint(
            explicit_journal
        )


#: The child killed mid-journal: an auto search with every kernel
#: slowed, so the parent can kill it between fsync'd group appends.
CHILD_SCRIPT = textwrap.dedent(
    """
    import sys, time
    import repro.engine.executor as executor
    from repro.alphabet import BLOSUM62, GapPenalty
    from repro.engine import BatchedEngine
    from repro.sequence import Database, read_fasta_file

    db_path, query_path, journal = sys.argv[1:4]

    def slowed(kernel):
        def slow(profile, group, gaps):
            time.sleep({sleep})
            return kernel(profile, group, gaps)
        return slow

    for name in ("score_packed_group", "score_packed_group_striped",
                 "score_packed_group_strips"):
        setattr(executor, name, slowed(getattr(executor, name)))
    db = Database.from_sequences(read_fasta_file(db_path))
    query = read_fasta_file(query_path)[0]
    BatchedEngine(BLOSUM62, GapPenalty.cudasw_default()).search(
        query, db, checkpoint=journal
    )
    """
).format(sleep=CHILD_GROUP_SLEEP)


def _wait_for_first_record(path: Path, timeout: float = 30.0) -> None:
    """Block until the journal holds its header and one group record
    (each append is >= 60 bytes and fsync'd)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if path.exists() and path.stat().st_size >= 180:
            return
        time.sleep(0.01)
    raise AssertionError(f"journal never reached one record in {timeout}s")


class TestAutoObservability:
    def test_campaign_builds_each_sub_plan_once(self, corpus):
        short, long = AUTO_CROSSOVER_LENGTH - 1, AUTO_CROSSOVER_LENGTH + 1
        order = [short, long, short, AUTO_CROSSOVER_LENGTH]
        app = CudaSW()
        results, _ = search_batch(
            app, [corpus["queries"][m] for m in order], corpus["db"],
            collect="counters",
        )
        for m, result in zip(order, results):
            assert np.array_equal(result.scores, corpus["reference"][m])
        run = app.last_run_report
        assert run.counters["engine.auto.plans_built"] == 2
        assert run.counters["engine.auto.queries.batched"] == 2
        assert run.counters["engine.auto.queries.hetero"] == 2
        assert run.meta["engine"] == "auto"
        assert app.last_engine_report.lane_engine == "hetero"

    def test_single_search_plans_only_its_geometry(self, corpus):
        m = AUTO_CROSSOVER_LENGTH - 1
        app = CudaSW()
        app.search(corpus["queries"][m], corpus["db"], collect="counters")
        counters = app.last_run_report.counters
        assert counters["engine.auto.plans_built"] == 1
        assert counters["engine.auto.queries.batched"] == 1
        assert "engine.auto.queries.hetero" not in counters
        assert app.last_engine_report.lane_engine == "batched"
        assert app.last_engine_report.group_size == AUTO_SHORT_GROUP_SIZE
