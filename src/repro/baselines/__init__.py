"""Baselines the paper compares against (or motivates with).

* :mod:`~repro.baselines.swps3` — the SWPS3 model behind Figure 7's
  reference curve: Farrar's striped SIMD Smith-Waterman with its original
  lazy-F correction loop (:func:`farrar_sweep`, bit-exact, over the
  engine's striped profile), the 4-core Xeon cost model, and the sampled
  scale model that extrapolates the loop's counted work to a whole
  database.
* :mod:`~repro.baselines.blastlike` — a seed-and-extend heuristic in the
  BLAST family (exact word seeds, two-hit trigger, X-drop ungapped
  extension, banded gapped extension): fast, but without the optimality
  guarantee — the paper's Section I framing for why exact SW on GPUs
  matters.
"""

from repro.baselines.blastlike import BlastLikeSearcher, BlastParams
from repro.baselines.swps3 import (
    XEON_E5345,
    CpuSpec,
    StripedCounts,
    Swps3Model,
    Swps3Report,
    farrar_sweep,
    swps3_time_seconds,
)

__all__ = [
    "BlastLikeSearcher",
    "BlastParams",
    "CpuSpec",
    "StripedCounts",
    "Swps3Model",
    "Swps3Report",
    "XEON_E5345",
    "farrar_sweep",
    "swps3_time_seconds",
]
