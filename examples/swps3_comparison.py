#!/usr/bin/env python
"""GPU vs SIMD-CPU vs heuristic: the introduction's three-way framing.

1. exact Smith-Waterman on the GPU model (CUDASW++ improved kernel);
2. exact Smith-Waterman on SIMD CPUs: SWPS3's modeled throughput, and
   exact scores from the library's own striped (Farrar) SIMD engine;
3. the BLAST-like heuristic — fast but without the optimality guarantee,
   which this example demonstrates concretely on a mutated homolog.

Run:  python examples/swps3_comparison.py
"""

import numpy as np

from repro.alphabet import BLOSUM62, GapPenalty
from repro.app import CudaSW
from repro.baselines import BlastLikeSearcher, Swps3Model
from repro.cuda import TESLA_C2050
from repro.sequence import Database, SWISSPROT_PROFILE, Sequence, random_protein
from repro.sw import smith_waterman


def throughput_comparison() -> None:
    rng = np.random.default_rng(0)
    db = SWISSPROT_PROFILE.build(rng)
    print("=== modeled throughput on Swiss-Prot (query 567) ===\n")
    gpu = CudaSW(TESLA_C2050, intra_kernel="improved").predict(567, db)
    swps3 = Swps3Model().report(567, db, rng)
    print(f"  CUDASW++ improved / Tesla C2050 : {gpu.gcups:6.2f} GCUPs")
    print(f"  SWPS3 / 4-core Xeon 2.33 GHz    : {swps3.gcups:6.2f} GCUPs")
    print(f"  ratio                           : {gpu.gcups / swps3.gcups:.1f}x")
    print(f"  (SWPS3 lazy-F share of row work : {swps3.lazy_fraction:.2%})\n")


def optimality_comparison() -> None:
    rng = np.random.default_rng(1)
    gaps = GapPenalty.cudasw_default()
    print("=== exactness: SW always finds the optimum; BLAST may not ===\n")

    core = random_protein(70, rng, id="core")
    mutated = core.codes.copy()
    pos = rng.choice(70, size=14, replace=False)  # 20% mutated
    mutated[pos] = rng.integers(0, 20, size=14)
    query = Sequence(
        "query",
        np.concatenate([random_protein(25, rng).codes, core.codes,
                        random_protein(25, rng).codes]),
    )
    subject = Sequence(
        "distant_homolog",
        np.concatenate([random_protein(60, rng).codes, mutated,
                        random_protein(60, rng).codes]),
    )
    decoys = [random_protein(180, rng, id=f"decoy{i}") for i in range(4)]
    db = Database.from_sequences([subject, *decoys])

    exact, _ = CudaSW(TESLA_C2050).search(query, db)
    heuristic = BlastLikeSearcher(query).search(db)
    striped, _ = CudaSW(TESLA_C2050).search(query, db, engine="striped")

    print(f"{'sequence':<18} {'exact SW':>9} {'striped SIMD':>13} "
          f"{'BLAST-like':>11}")
    for i in range(len(db)):
        print(
            f"{db.id_of(i):<18} {exact.scores[i]:>9} "
            f"{striped.scores[i]:>13} {heuristic[i]:>11}"
        )
    assert np.array_equal(exact.scores, striped.scores)
    print("\nstriped SIMD (exact algorithm) matches SW everywhere; the "
          "heuristic lower-bounds it")
    direct = smith_waterman(query, subject, BLOSUM62, gaps)
    print(f"homolog: exact {direct}, heuristic {heuristic[0]} "
          f"({100 * heuristic[0] / direct:.0f}% of the optimum recovered)")


if __name__ == "__main__":
    throughput_comparison()
    optimality_comparison()
