"""The Section IV-B scalability comparison.

"While SWPS3 can be run on more processors to increase the performance,
CUDASW++ can similarly be run on multiple GPUs.  Using eight x86 cores
will give SWPS3 roughly a two times increase in speed; CUDASW++ will
likewise see a twofold increase if two GPUs are used."

This driver models both scaling axes on the Swiss-Prot workload: SWPS3
across 1..8 Xeon cores (the paper's 4-core host, doubled) and CUDASW++
across 1..4 C1060s, and checks the quoted equivalence (8 cores ~ 2x over
4 cores; 2 GPUs ~ 2x over 1).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.analysis.result import ExperimentResult
from repro.app.cudasw import CudaSW
from repro.app.multigpu import multi_gpu_time
from repro.baselines.swps3 import Swps3Model, swps3_time_seconds
from repro.cuda.device import TESLA_C1060
from repro.sequence.synthetic import SWISSPROT_PROFILE

__all__ = ["scalability_comparison"]


def scalability_comparison(
    seed: int = 0,
    query_length: int = 567,
    *,
    scale: float = 1.0,
    swps3_sample_rows: int = 40_000,
) -> ExperimentResult:
    """SWPS3 thread scaling vs CUDASW++ GPU scaling on Swiss-Prot."""
    rng = np.random.default_rng(seed)
    db = SWISSPROT_PROFILE.build(rng, scale=scale)
    cells = query_length * db.total_residues

    rows = []

    # SWPS3 over 1..8 cores: measure the striped workload once, then let
    # the CPU model re-time its extrapolated counts for each thread count
    # (an 8-core host = the Xeon doubled).
    model = Swps3Model()
    counts = model.report(
        query_length, db, rng, sample_rows=swps3_sample_rows
    ).counts
    eight_core = dataclasses.replace(model.cpu, name="Xeon x8", cores=8)
    swps3_gcups = {}
    for threads in (1, 2, 4):
        t = swps3_time_seconds(
            counts, model.cpu, threads=threads, n_sequences=len(db)
        )
        swps3_gcups[threads] = cells / t / 1e9
        rows.append(("SWPS3", f"{threads} cores", swps3_gcups[threads]))
    t8 = swps3_time_seconds(counts, eight_core, threads=8, n_sequences=len(db))
    swps3_gcups[8] = cells / t8 / 1e9
    rows.append(("SWPS3", "8 cores", swps3_gcups[8]))

    # CUDASW++ (improved) over 1..4 C1060s.
    app = CudaSW(TESLA_C1060, intra_kernel="improved")
    cudasw_gcups = {1: app.predict(query_length, db).gcups}
    rows.append(("CUDASW++ improved", "1 GPU", cudasw_gcups[1]))
    for gpus in (2, 4):
        tn, _ = multi_gpu_time(app, query_length, db, gpus)
        cudasw_gcups[gpus] = cells / tn / 1e9
        rows.append(("CUDASW++ improved", f"{gpus} GPUs", cudasw_gcups[gpus]))

    swps3_doubling = swps3_gcups[8] / swps3_gcups[4]
    gpu_doubling = cudasw_gcups[2] / cudasw_gcups[1]
    return ExperimentResult(
        name="scalability_comparison",
        title="SWPS3 thread scaling vs CUDASW++ GPU scaling "
        f"(Swiss-Prot, query {query_length})",
        headers=("system", "resources", "gcups"),
        rows=tuple(rows),
        notes=(
            f"the paper's quoted equivalence: 8 cores give SWPS3 "
            f"{swps3_doubling:.2f}x over 4 cores; 2 GPUs give CUDASW++ "
            f"{gpu_doubling:.2f}x over 1 — and one GPU still outperforms "
            f"8 cores by {cudasw_gcups[1] / swps3_gcups[8]:.1f}x"
        ),
        extra={
            "swps3_doubling": swps3_doubling,
            "gpu_doubling": gpu_doubling,
            "gpu_vs_8core": cudasw_gcups[1] / swps3_gcups[8],
        },
    )
