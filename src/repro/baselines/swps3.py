"""The SWPS3 baseline model (Figure 7's reference curve).

SWPS3 (Szalkowski et al. 2008) is a multi-threaded striped-SIMD
Smith-Waterman.  Here it is reproduced as:

* the *algorithm* — :func:`farrar_sweep`, Farrar's original striped
  loop with its lazy-F correction passes, over the ``int16`` tier of the
  engine's :class:`~repro.sequence.striped_profile.StripedProfile`
  (SWPS3's 8 x 16-bit SSE word pass), counting the work it does;
* the *machine* — :class:`CpuSpec` and :func:`swps3_time_seconds` on the
  paper's 4-core 2.33 GHz Xeon;
* the *scale bridge* — running the loop over a whole Swiss-Prot stand-in
  is infeasible in Python, so :class:`Swps3Model` measures the loop's
  behaviour (including the data-dependent lazy-F workload, the paper's
  stated reason for SWPS3's query-length sensitivity) on a sampled
  subset and extrapolates the operation counts to the full database.

The engine's own striped kernel (:mod:`repro.engine.striped`) resolves
lazy-F in closed form and runs SWPS3-style adaptive precision as its
``uint8``/``int16``/exact tiers; this module exists to count the work of
the *original* lazy-F loop, which is what SWPS3 paid for.

Our lazy-F pass differs from Farrar's published loop in one deliberate
way: when it raises an ``H`` value it also refreshes the stored ``E`` for
the next column (``E = max(E, H - rho)``).  Farrar's original skips that
update, which can underestimate scores in rare corner cases; this loop
is tested for *bit-exact* agreement with the scalar reference, so it
takes the safe form and charges the extra vector op in the counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.alphabet import BLOSUM62, GapPenalty, SubstitutionMatrix
from repro.sequence.database import Database
from repro.sequence.frequencies import SWISSPROT_AA_FREQUENCIES
from repro.sequence.sequence import Sequence
from repro.sequence.striped_profile import StripedProfile
from repro.sw.utils import NEG_INF, validate_penalties

__all__ = [
    "CpuSpec",
    "XEON_E5345",
    "StripedCounts",
    "farrar_sweep",
    "swps3_time_seconds",
    "Swps3Model",
    "Swps3Report",
]

#: Vector instructions per segment row of the main loop (adds, maxes,
#: loads/stores of H/E/F — Farrar's inner loop is ~10 ops).
MAIN_OPS_PER_ROW = 10
#: Vector instructions per lazy-F row visit.
LAZY_OPS_PER_ROW = 4


@dataclass(frozen=True)
class CpuSpec:
    """A multicore SIMD CPU.

    Like the GPU model, the hardware facts live here and the behavioural
    constant (sustained issue rate) is a documented calibration.
    """

    name: str
    clock_ghz: float
    cores: int
    #: SIMD lanes at the working precision (SSE2: 8 x 16-bit).
    lanes: int
    #: Sustained SSE instructions per cycle per core on this loop
    #: (dependent-op chains keep it near 1).
    sustained_ipc: float = 1.0
    #: Per-database-sequence software overhead (dispatch, profile reuse).
    per_sequence_overhead_us: float = 0.4

    def __post_init__(self) -> None:
        if min(self.clock_ghz, self.cores, self.lanes, self.sustained_ipc) <= 0:
            raise ValueError("CPU spec values must be positive")


#: The paper's SWPS3 host: "four cores of an Intel Xeon processor clocked
#: at 2.33 GHz" (E5345-class).
XEON_E5345 = CpuSpec(name="Xeon 2.33 GHz", clock_ghz=2.33, cores=4, lanes=8)


@dataclass(frozen=True)
class StripedCounts:
    """Work performed by striped alignments."""

    cells: int
    columns: int
    segment_length: int
    main_rows: int
    lazy_rows: int

    @property
    def vector_ops(self) -> int:
        return MAIN_OPS_PER_ROW * self.main_rows + LAZY_OPS_PER_ROW * self.lazy_rows

    @property
    def lazy_fraction(self) -> float:
        """Share of row visits spent in the lazy-F loop — the source of
        SWPS3's query-length sensitivity in the paper's Figure 7."""
        total = self.main_rows + self.lazy_rows
        return self.lazy_rows / total if total else 0.0


def swps3_time_seconds(
    counts: StripedCounts | list[StripedCounts],
    cpu: CpuSpec = XEON_E5345,
    *,
    threads: int | None = None,
    n_sequences: int | None = None,
) -> float:
    """Modeled wall time of striped searches distributed over cores.

    Sequences parallelize perfectly across cores (SWPS3 is multi-threaded
    over database sequences); within a core the vector ops issue at the
    sustained rate.

    Parameters
    ----------
    n_sequences:
        Database entries the per-sequence overhead applies to; defaults to
        the number of count records (the extrapolating scale model passes
        one aggregated record for many sequences).
    """
    if isinstance(counts, StripedCounts):
        counts = [counts]
    if not counts:
        raise ValueError("no counts given")
    threads = cpu.cores if threads is None else threads
    if threads <= 0 or threads > cpu.cores:
        raise ValueError(f"threads must be in [1, {cpu.cores}]")
    n_sequences = len(counts) if n_sequences is None else n_sequences
    if n_sequences <= 0:
        raise ValueError("n_sequences must be positive")
    total_ops = sum(c.vector_ops for c in counts)
    op_time = total_ops / (threads * cpu.clock_ghz * 1e9 * cpu.sustained_ipc)
    overhead = n_sequences * cpu.per_sequence_overhead_us * 1e-6 / threads
    return op_time + overhead


def _lane_shift(v: np.ndarray, fill: int) -> np.ndarray:
    """Move each lane's value to the next lane (the striped successor
    position); lane 0 receives ``fill``."""
    out = np.empty_like(v)
    out[0] = fill
    out[1:] = v[:-1]
    return out


def farrar_sweep(
    profile: StripedProfile, subject_codes: np.ndarray, gaps: GapPenalty
) -> tuple[int, StripedCounts]:
    """Exact local-alignment score via Farrar's striped loop, and its work.

    Runs the main loop on the profile's ``int16`` tier (one
    ``(seg_len, n_lanes)`` block per subject column), then Farrar's lazy-F
    passes, which re-scan the stripe until the vertical gap state stops
    changing — the data-dependent ``lazy_rows`` of the returned counts.
    Arithmetic is ``int32`` (the ``int16`` profile rows promote), so the
    score is exact.
    """
    scores = profile.profile16
    if scores is None:
        raise ValueError(
            f"matrix {profile.matrix.name!r} has no int16 profile tier; "
            "SWPS3's word pass is 16-bit"
        )
    validate_penalties(gaps)
    seg = profile.seg_len
    V = profile.n_lanes
    rho, sigma = gaps.rho, gaps.sigma
    neg = np.int32(NEG_INF)

    h_store = np.zeros((seg, V), dtype=np.int32)
    h_load = np.zeros((seg, V), dtype=np.int32)
    e = np.full((seg, V), neg, dtype=np.int32)
    best = 0
    main_rows = 0
    lazy_rows = 0

    for code in subject_codes:
        prof = scores[code]
        # vH enters row 0 as the previous column's last row, lane-shifted:
        # that is H(prev column, position p - 1) for each lane start.
        vh = _lane_shift(h_store[seg - 1], 0)
        h_load, h_store = h_store, h_load
        vf = np.full(V, neg, dtype=np.int32)

        for i in range(seg):
            main_rows += 1
            vh = vh + prof[i]
            vh = np.maximum(vh, e[i])
            vh = np.maximum(vh, vf)
            vh = np.maximum(vh, 0)
            step_best = int(vh.max())
            if step_best > best:
                best = step_best
            h_store[i] = vh
            open_h = vh - rho
            e[i] = np.maximum(e[i] - sigma, open_h)
            vf = np.maximum(vf - sigma, open_h)
            vh = h_load[i]

        # ---- lazy-F: propagate F across lane boundaries to fixpoint ----
        carry = vf
        for _cycle in range(V):
            carry = _lane_shift(carry, neg)
            if not (carry > 0).any():
                break  # H >= 0 everywhere: a non-positive F never matters
            updated = False
            for i in range(seg):
                lazy_rows += 1
                if (carry > h_store[i]).any():
                    updated = True
                    np.maximum(h_store[i], carry, out=h_store[i])
                    # Keep E consistent with the corrected H (see module
                    # docstring).
                    np.maximum(e[i], h_store[i] - rho, out=e[i])
                    step_best = int(h_store[i].max())
                    if step_best > best:
                        best = step_best
                carry = carry - sigma
                if not (carry > 0).any():
                    break
            if not updated:
                break

    columns = len(subject_codes)
    counts = StripedCounts(
        cells=profile.length * columns,
        columns=columns,
        segment_length=seg,
        main_rows=main_rows,
        lazy_rows=lazy_rows,
    )
    return best, counts


@dataclass(frozen=True)
class Swps3Report:
    """Modeled outcome of one SWPS3 database search."""

    query_length: int
    time_seconds: float
    #: Work extrapolated from the sample to the whole database.
    counts: StripedCounts
    sampled_columns: int

    @property
    def total_cells(self) -> int:
        return self.counts.cells

    @property
    def lazy_fraction(self) -> float:
        return self.counts.lazy_fraction

    @property
    def gcups(self) -> float:
        return self.total_cells / self.time_seconds / 1e9


class Swps3Model:
    """SWPS3 on the paper's 4-core Xeon."""

    def __init__(
        self,
        cpu: CpuSpec = XEON_E5345,
        *,
        matrix: SubstitutionMatrix = BLOSUM62,
        gaps: GapPenalty | None = None,
    ) -> None:
        self.cpu = cpu
        self.matrix = matrix
        self.gaps = gaps or GapPenalty.cudasw_default()

    def report(
        self,
        query_length: int,
        db: Database,
        rng: np.random.Generator,
        *,
        sample_rows: int = 150_000,
    ) -> Swps3Report:
        """Model a full-database search from a measured sample.

        A random query of ``query_length`` is aligned against sampled
        database sequences (materialized residues if present, otherwise
        synthetic residues of the sampled lengths) until ``sample_rows``
        main-loop segment rows have been executed — a row budget, so the
        sampling cost is independent of the query length; the measured
        main/lazy row rates are then extrapolated to the whole database.
        """
        if query_length <= 0:
            raise ValueError("query length must be positive")
        if sample_rows <= 0:
            raise ValueError("sample_rows must be positive")
        query = Sequence.random(
            "swps3-query", query_length, rng,
            frequencies=SWISSPROT_AA_FREQUENCIES,
        )
        profile = StripedProfile(
            query.codes, self.matrix, target_lanes=self.cpu.lanes
        )

        sampled_cols = 0
        sampled_main = 0
        sampled_lazy = 0
        order = rng.permutation(len(db))
        for idx in order:
            idx = int(idx)
            if db.has_residues:
                d_codes = db.codes_of(idx)
            else:
                d_codes = db.alphabet.random_codes(
                    int(db.lengths[idx]), rng,
                    frequencies=SWISSPROT_AA_FREQUENCIES,
                )
            _, c = farrar_sweep(profile, d_codes, self.gaps)
            sampled_cols += c.columns
            sampled_main += c.main_rows
            sampled_lazy += c.lazy_rows
            if sampled_main >= sample_rows:
                break

        total_columns = db.total_residues
        scale = total_columns / sampled_cols
        extrapolated = StripedCounts(
            cells=query_length * total_columns,
            columns=total_columns,
            segment_length=profile.seg_len,
            main_rows=int(sampled_main * scale),
            lazy_rows=int(sampled_lazy * scale),
        )
        time = swps3_time_seconds(
            extrapolated, self.cpu, n_sequences=len(db)
        )
        return Swps3Report(
            query_length=query_length,
            time_seconds=time,
            counts=extrapolated,
            sampled_columns=sampled_cols,
        )
