"""Reference outputs, computed once per seed outside every timed region.

Full score vectors come from a lane engine that shares no sweep kernel
with the timed engine: gotoh lanes for the hetero campaign, striped +
strips for the gotoh workloads.  (Per-pair ``sw_score_antidiagonal``
over a whole workload runs at ~1-6 Mcells/s: 15 s for ``cold_cli`` and
minutes for either campaign, every seed.)  Every reference is then
spot-checked pair by pair against ``sw_score_antidiagonal`` on a
length-stratified subset and against ``sw_score_scalar`` on its
cheapest pairs.  A reference that disagrees anywhere raises
:class:`OracleError` and the run fails.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from inputs import Inputs
from repro.alphabet import BLOSUM62, GapPenalty
from repro.app import CudaSW, SearchResult
from repro.stats import ScoreStatistics, annotate_hits
from repro.sw.antidiagonal import sw_score_antidiagonal
from repro.sw.scalar import sw_score_scalar

GAPS = GapPenalty.from_open_extend(10, 2)  # the CLI defaults
TOP = 10                                   # the CLI's default --top
SCALAR_PAIRS = 8
SPOT_CHECK_STRATA = 24


class OracleError(AssertionError):
    """The reference itself failed a cross-check."""


def _engine_scores(inputs: Inputs, engine: str) -> np.ndarray:
    app = CudaSW(gaps=GAPS)
    return np.stack([
        app.search(q, inputs.database, engine=engine,
                   workers=inputs.workload.workers)[0].scores
        for q in inputs.queries
    ])


def _spot_check(inputs: Inputs, ref: np.ndarray) -> None:
    """Cross-check ``ref`` pair by pair."""
    rng = np.random.default_rng([inputs.seed, 7])
    db = inputs.database
    order = np.argsort(db.lengths, kind="stable")
    per_query = max(1, SPOT_CHECK_STRATA // len(inputs.queries))
    strata = np.array_split(order, per_query)
    pairs = [
        (qi, int(rng.choice(stratum)))
        for qi in range(len(inputs.queries))
        for stratum in strata
    ]
    # The longest subject once, against the shortest query: the tail is
    # where strip tiling and overflow tiers live.
    shortest = int(np.argmin([len(q) for q in inputs.queries]))
    pairs.append((shortest, int(order[-1])))
    for qi, di in pairs:
        want = sw_score_antidiagonal(
            inputs.queries[qi].codes, db.codes_of(di), BLOSUM62, GAPS
        )
        if want != ref[qi, di]:
            raise OracleError(
                f"reference {ref[qi, di]} != anti-diagonal {want} for "
                f"query {qi}, subject {db.id_of(di)}"
            )
    cells = [len(inputs.queries[qi]) * int(db.lengths[di]) for qi, di in pairs]
    for k in np.argsort(cells, kind="stable")[:SCALAR_PAIRS]:
        qi, di = pairs[int(k)]
        want = sw_score_scalar(
            inputs.queries[qi].codes, db.codes_of(di), BLOSUM62, GAPS
        )
        if want != ref[qi, di]:
            raise OracleError(
                f"reference {ref[qi, di]} != scalar {want} for query {qi}, "
                f"subject {db.id_of(di)}"
            )


def reference(inputs: Inputs, cache_dir: Path) -> tuple[np.ndarray, list]:
    """The ``(queries, database)`` reference score matrix and, per query,
    the ranked ``[id, length, score, bits, evalue]`` hits
    ``annotate_hits`` must report for it.  Cached per seed and input
    digest."""
    cache = cache_dir / (
        f"{inputs.workload.name}-{inputs.seed}-{inputs.digest()}.npz"
    )
    if cache.exists():
        with np.load(cache) as saved:
            return saved["scores"], json.loads(str(saved["hits"]))
    ref = _engine_scores(inputs, inputs.workload.reference_engine)
    _spot_check(inputs, ref)
    stats = ScoreStatistics(BLOSUM62, GAPS)
    db = inputs.database
    ids = tuple(db.id_of(i) for i in range(len(db)))
    hits = [
        [list(h) for h in hit_tuples(annotate_hits(
            SearchResult(q.id, ref[qi], ids, db.lengths.copy()),
            stats, len(q), k=TOP,
        ))]
        for qi, q in enumerate(inputs.queries)
    ]
    cache_dir.mkdir(parents=True, exist_ok=True)
    tmp = cache.with_suffix(".tmp.npz")
    np.savez(tmp, scores=ref, hits=json.dumps(hits))
    tmp.replace(cache)
    return ref, hits


def hit_tuples(annotated) -> list[tuple]:
    return [
        (a.hit.id, a.hit.length, a.hit.score, a.bit_score, a.evalue)
        for a in annotated
    ]


def hit_line(hit: tuple) -> str:
    """One hit as ``repro search`` prints it."""
    seq_id, length, score, bits, evalue = hit
    return f"{seq_id:<24} {length:>6} {score:>6} {bits:>7.1f} {evalue:>10.2g}"


def cli_hit_lines(stdout: str) -> list[str]:
    """The hit lines of a ``repro search`` report: everything between
    the column header and the first trailing ``#`` comment."""
    lines = stdout.splitlines()
    try:
        start = next(
            i for i, line in enumerate(lines) if line.startswith("hit ")
        ) + 1
    except StopIteration:
        return []
    out = []
    for line in lines[start:]:
        if line.startswith("#"):
            break
        out.append(line)
    return out
