"""Golden pins for search planning: group geometry and journal identity.

A search plan decides which sequences share a packed group and which
kernel sweeps it; the checkpoint fingerprint hashes that decision.  On
a fixed 1,003-sequence Swiss-Prot-shaped corpus (1,000 log-normal
sequences plus three long-tail entries, the bench database's shape)
these pins freeze, for every packing engine and for both a FASTA
database and an ``.rdb`` store:

* the :class:`~repro.engine.EngineReport` geometry — group sizes, group
  widths, the kernel on each group and the resolved split threshold;
* the journal ``search_fingerprint``.

Two journals written by an earlier build of the engine are committed
under ``data/``; they must still resume with every group replayed.
"""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.app import CudaSW
from repro.engine import DatabaseStore, build_store, open_database
from repro.sequence import Database, Sequence, random_protein
from repro.sequence.synthetic import SWISSPROT_PROFILE

DATA = Path(__file__).parent / "data"

#: name -> CudaSW.search options.
CONFIGS = {
    "batched": {"engine": "batched"},
    "striped": {"engine": "striped"},
    "hetero-auto": {"engine": "hetero"},
    "hetero-150": {"engine": "hetero", "split_threshold": 150},
}

BULK = (128,) * 7
BULK_WIDTHS = (110, 161, 214, 276, 358, 480, 726)

#: config -> (group_sizes, group_max_lengths, lane_engines, threshold);
#: identical for the FASTA database and the store.
GEOMETRY = {
    "batched": (
        BULK + (100, 1, 1, 1, 4),
        BULK_WIDTHS + (2109, 2254, 2458, 2790, 4123),
        ("gotoh",) * 12,
        None,
    ),
    "striped": (
        BULK + (107,),
        BULK_WIDTHS + (4123,),
        ("striped",) * 8,
        None,
    ),
    "hetero-auto": (
        BULK + (74, 33),
        BULK_WIDTHS + (1179, 4123),
        ("striped",) * 8 + ("strips",),
        1179,
    ),
    "hetero-150": (
        (128, 101, 128, 128, 128, 128, 128, 128, 6),
        (110, 150, 202, 262, 338, 448, 651, 2254, 4123),
        ("striped",) * 2 + ("strips",) * 7,
        150,
    ),
}

#: (config, "fasta" | "store") -> search_fingerprint hex.
FINGERPRINTS = {
    ("batched", "fasta"):
        "0ca12e690b807bf10ae75055642b93ccd7fa9a1ce7dfec861640ac8c2e6547b2",
    ("batched", "store"):
        "a639474ad943ed33619b0912c24d53efddff831c18c6e03e03984515a5270626",
    ("striped", "fasta"):
        "7e925ccb3b7bcabdd1a36aefe34bf9c5d86acd475743567bd8b690e80f8b4cfc",
    ("striped", "store"):
        "531ad667e003e6ac3cbc08baa183917ef9e863d048cb303d6c5a1f494db943b3",
    ("hetero-auto", "fasta"):
        "c49910bc1a0a2b94b4e4d8de9c906fd49667249a1c27f8ac5aeb364f29469e5b",
    ("hetero-auto", "store"):
        "cbc7788291aa3c30dcc2d3955eaeda8150fa518a60b174b62b2aa5364723756a",
    ("hetero-150", "fasta"):
        "3956cefb08c3154eef96228174f514c1713b53b7eb9e13111fc85b4add923136",
    ("hetero-150", "store"):
        "614ed334c6c8025d9d5aaa08fc4aeb2e57b8b214d02f5ed05ef2d173bf874b46",
}

#: Committed journals: file -> (config, source).
JOURNALS = {
    "hetero150-fasta.wal": ("hetero-150", "fasta"),
    "batched-store.wal": ("batched", "store"),
}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    rng = np.random.default_rng(2011)
    base = SWISSPROT_PROFILE.build(
        rng, scale=1000 / SWISSPROT_PROFILE.n_sequences, materialize=True
    )
    tail = [
        Sequence.random(f"tail{i}", int(rng.integers(3600, 4140)), rng)
        for i in range(3)
    ]
    db = Database.from_sequences(list(base) + tail)
    query = random_protein(24, rng, id="PIN")
    path = tmp_path_factory.mktemp("pins") / "pins.rdb"
    build_store(db, path)
    store = open_database(path)
    assert isinstance(store, DatabaseStore)
    return {"query": query, "fasta": db, "store": store}


def _journal_fingerprint(path: Path) -> str:
    """The fingerprint from a journal's JSON header record."""
    blob = path.read_bytes()
    start = blob.index(b'{"fingerprint"')
    end = blob.index(b"}", start) + 1
    return json.loads(blob[start:end])["fingerprint"]


def test_corpus_shape(corpus):
    db = corpus["fasta"]
    assert len(db) == 1003
    assert db.total_residues == 379216


@pytest.mark.parametrize("source", ["fasta", "store"])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_geometry_and_fingerprint_pinned(corpus, name, source, tmp_path):
    app = CudaSW()
    journal = tmp_path / "pin.wal"
    app.search(
        corpus["query"], corpus[source], checkpoint=journal, **CONFIGS[name]
    )
    report = app.last_engine_report
    assert (
        report.group_sizes,
        report.group_max_lengths,
        report.lane_engines,
        report.split_threshold,
    ) == GEOMETRY[name]
    assert _journal_fingerprint(journal) == FINGERPRINTS[(name, source)]


@pytest.mark.parametrize("journal", sorted(JOURNALS))
def test_committed_journal_resumes(corpus, journal, tmp_path):
    name, source = JOURNALS[journal]
    path = tmp_path / journal
    shutil.copyfile(DATA / journal, path)
    app = CudaSW()
    fresh, _ = app.search(corpus["query"], corpus[source], **CONFIGS[name])
    resumed, _ = app.search(
        corpus["query"], corpus[source], checkpoint=path, resume=True,
        collect="counters", **CONFIGS[name],
    )
    assert np.array_equal(resumed.scores, fresh.scores)
    counters = app.last_run_report.counters
    assert counters["engine.checkpoint.groups_replayed"] == len(
        GEOMETRY[name][0]
    )
    assert counters.get("engine.checkpoint.groups_recomputed", 0) == 0
