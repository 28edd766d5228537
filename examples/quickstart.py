#!/usr/bin/env python
"""Quickstart: align two sequences, search a small database, read the hits.

Covers the three things most users come for:

1. an exact Smith-Waterman score and alignment between two proteins;
2. a CUDASW++-style database search (functional mode) with ranked hits;
3. the modeled performance report of the same search on the two GPUs of
   the paper.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.alphabet import BLOSUM62, GapPenalty
from repro.app import CudaSW
from repro.cuda import TESLA_C1060, TESLA_C2050
from repro.sequence import Database, Sequence, random_protein
from repro.sw import smith_waterman, sw_align


def main() -> None:
    rng = np.random.default_rng(7)
    gaps = GapPenalty.cudasw_default()  # gap open 10, extend 2

    # ------------------------------------------------------------------
    # 1. Pairwise alignment
    # ------------------------------------------------------------------
    query = Sequence.from_text(
        "demo_query", "MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQAPILSRVGDGTQDNLSGAEKAVQ"
    )
    subject = Sequence.from_text(
        "demo_subject", "MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQAPILSRVGDGTQD"
        "NLSGAEKAVQVKVKALPDAQFEVVHSLAKWKRQTLGQHDFSAGEGLYTHMKALRPDEDRLS"
    )
    score = smith_waterman(query, subject, BLOSUM62, gaps)
    print(f"Smith-Waterman score({query.id}, {subject.id}) = {score}\n")

    alignment = sw_align(query, subject, BLOSUM62, gaps)
    print(alignment.pretty(BLOSUM62))
    print(f"cigar: {alignment.cigar}\n")

    # ------------------------------------------------------------------
    # 2. Database search (functional: every score actually computed)
    # ------------------------------------------------------------------
    homolog = Sequence(
        "planted_homolog",
        np.concatenate(
            [random_protein(40, rng).codes, query.codes,
             random_protein(60, rng).codes]
        ),
    )
    decoys = [random_protein(int(n), rng, id=f"decoy_{i}")
              for i, n in enumerate(rng.integers(80, 400, size=8))]
    db = Database.from_sequences([homolog, *decoys], name="demo-db")

    app = CudaSW(TESLA_C1060)  # improved intra-task kernel by default
    result, report = app.search(query, db)  # engine="auto" by default
    print("top hits:")
    for hit in result.top(3):
        print(f"  {hit.id:<18} length={hit.length:<5} score={hit.score}")
    er = app.last_engine_report
    print(
        f"(auto picked the {er.lane_engine} engine: {er.n_groups} group(s), "
        f"padding efficiency {er.padding_efficiency:.2f})"
    )

    # ------------------------------------------------------------------
    # 3. Modeled performance on the paper's GPUs
    # ------------------------------------------------------------------
    print("\nmodeled performance of this search:")
    for device in (TESLA_C1060, TESLA_C2050):
        r = CudaSW(device).predict(len(query), db)
        print(
            f"  {device.name:<12} {r.gcups:6.2f} GCUPs "
            f"({r.n_inter_sequences} inter-task, "
            f"{r.n_intra_sequences} intra-task sequences)"
        )


if __name__ == "__main__":
    main()
