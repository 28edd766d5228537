"""One fresh interpreter of a workload: set up, then optionally measure.

    python child.py setup    SPEC DIR SPAWNED
    python child.py campaign SPEC DIR SPAWNED SECONDS
    python child.py trace    SPEC DIR SPAWNED

``SPEC`` is the workload as JSON (engine, workers, store, ...), ``DIR``
holds the generated inputs and the reference, ``SPAWNED`` is the
parent's ``time.perf_counter()`` just before the spawn (CLOCK_MONOTONIC,
so comparable across processes).  Set-up time runs from the spawn to
ready-to-search, so nothing heavy is imported before it starts.  Results
are JSON lines on stdout.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path


def setup(spec: dict, directory: Path):
    """``import repro``, parse or build + open the database, construct
    the application and calibrate E-value statistics."""
    from repro.alphabet import GapPenalty
    from repro.app import CudaSW
    from repro.engine import build_store_from_fasta, open_database
    from repro.sequence import read_fasta_file
    from repro.sequence.database import Database
    from repro.stats import ScoreStatistics

    queries = read_fasta_file(directory / "query.fasta")
    if spec["store"]:
        store = directory / f"db-{os.getpid()}.rdb"
        build_store_from_fasta(directory / "db.fasta", store)
        db = open_database(store)
    else:
        db = Database.from_sequences(read_fasta_file(directory / "db.fasta"))
    app = CudaSW(gaps=GapPenalty.from_open_extend(10, 2))
    stats = ScoreStatistics(app.matrix, app.gaps)
    return queries, db, app, stats


def campaign_op(spec: dict, queries, db, app, stats) -> tuple[list, list]:
    """One timed operation: a ``search_batch`` call plus ranking."""
    from oracle import TOP
    from repro.app import search_batch
    from repro.stats import annotate_hits

    results, _ = search_batch(
        app, queries, db, engine=spec["engine"], workers=spec["workers"]
    )
    hits = [
        annotate_hits(r, stats, len(q), k=TOP)
        for r, q in zip(results, queries)
    ]
    return results, hits


def check_op(results, hits, reference, expected) -> str:
    """Empty when the operation's outputs equal the reference."""
    from oracle import hit_tuples

    for qi, result in enumerate(results):
        if not (result.scores == reference[qi]).all():
            bad = int((result.scores != reference[qi]).sum())
            return f"query {qi}: {bad} scores differ from the reference"
        got = [list(h) for h in hit_tuples(hits[qi])]
        if got != expected[qi]:
            return f"query {qi}: ranked hits differ from the reference"
    return ""


def load_reference(directory: Path):
    import numpy as np

    reference = np.load(directory / "reference.npy")
    expected = json.loads((directory / "expected_hits.json").read_text())
    return reference, expected


def peak_rss_mb(workers: int) -> float:
    """This process's peak plus ``workers`` pool workers at the largest
    reaped child's peak (``ru_maxrss`` is KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    pool = workers if workers > 1 else 0
    return (own + pool * child) / 1024.0


def emit(record: dict) -> None:
    print(json.dumps(record), flush=True)


def run_campaign(spec: dict, directory: Path, spawned: float,
                 seconds: float) -> None:
    state = setup(spec, directory)
    emit({"setup_s": time.perf_counter() - spawned})
    import oracle  # noqa: F401  (loaded before the first timed operation)

    reference, expected = load_reference(directory)
    started, wall = time.perf_counter(), 0.0
    # Start an operation only if one as long as the last still ends
    # inside the measuring window (the first one always runs).
    while wall == 0.0 or time.perf_counter() - started + wall <= seconds:
        t0 = time.perf_counter()
        try:
            results, hits = campaign_op(spec, *state)
        except Exception as exc:  # a failed operation, counted not fatal
            wall = time.perf_counter() - t0
            emit({"wall": wall, "error": f"{type(exc).__name__}: {exc}"})
            continue
        wall = time.perf_counter() - t0
        emit({"wall": wall,
              "error": check_op(results, hits, reference, expected)})
    emit({"peak_rss_mb": peak_rss_mb(spec["workers"])})


def main(argv: list[str]) -> int:
    mode, spec, directory, spawned = (
        argv[0], json.loads(argv[1]), Path(argv[2]), float(argv[3])
    )
    if mode == "setup":
        setup(spec, directory)
        emit({"setup_s": time.perf_counter() - spawned})
    elif mode == "campaign":
        run_campaign(spec, directory, spawned, float(argv[4]))
    elif mode == "trace":
        from replay import run_trace

        emit(run_trace(spec, directory, spawned))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
