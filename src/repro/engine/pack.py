"""Group packing for the batched inter-sequence engine.

CUDASW++'s inter-task kernel assigns one database sequence per SIMT
*lane* and launches length-sorted groups so lanes finish together
(Section II-C).  The functional analogue packs a group of sequences into
a dense ``(group_size, max_length)`` code matrix — one row per lane,
short rows padded with a sentinel symbol — so a NumPy operation over the
matrix advances every lane at once.

Padding is the load-balance story of the paper's Figure 2 translated to
the functional engine: every padded cell is a lane-step of wasted work,
and :attr:`PackedGroup.padding_efficiency` (useful residues over the
padded rectangle) is exactly the ``sum(len) / (s * max_len)`` quantity
of :class:`~repro.sequence.database.SequenceGroup`.  Length sorting
before grouping is what keeps it near 1.0.

Two things the length sort alone cannot fix live here too:

* the **tail group** — the final ``group_size`` remainder merges
  whatever lengths are left, so a handful of outliers can drag one
  group far below every other's efficiency.  :func:`plan_chunks` splits
  that last chunk at its largest length gaps whenever efficiency would
  fall under :data:`TAIL_EFFICIENCY_FLOOR`;
* the **long tail itself** — past a length threshold no grouping packs
  well, which is why :func:`plan_groups` can route those sequences to
  the strip-sweep engine (each :class:`PackedGroup` carries its
  ``lane_engine``, making the engine a per-group decision).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.engine.budget import MemoryBudget
from repro.sequence.database import Database

__all__ = [
    "DEFAULT_STRIP_WIDTH",
    "TAIL_EFFICIENCY_FLOOR",
    "ChunkPlan",
    "PackedGroup",
    "pack_group",
    "pack_groups",
    "plan_chunks",
    "plan_groups",
]

#: Strip width of groups swept by the strip engine (DP columns per
#: strip lane).  Lives here rather than in :mod:`~repro.engine.strips`
#: so packing and cost modelling can reason about strip geometry
#: without importing the kernel.
DEFAULT_STRIP_WIDTH = 512

#: Below this packing efficiency the tail chunk is split at its largest
#: length gaps instead of being packed as one degenerate rectangle.
TAIL_EFFICIENCY_FLOOR = 0.5

#: Gap-split floor per bulk kernel.  The row sweep's cost scales with
#: padded cells, so its tail chunk is split; the striped column sweep's
#: cost scales with column iterations, so a split there only trades
#: padding for extra near-empty columns and it opts out.
_TAIL_FLOORS = {"gotoh": TAIL_EFFICIENCY_FLOOR, "striped": 0.0}


@dataclass(frozen=True)
class PackedGroup:
    """One length-sorted group of database sequences, packed lane-per-row.

    Attributes
    ----------
    indices:
        Positions of the member sequences in the *source* database's
        original order, so per-lane scores scatter straight back.
    lengths:
        True (unpadded) length of each lane.
    codes:
        ``(size, max_length)`` ``uint8`` matrix; row ``k`` holds lane
        ``k``'s residue codes, columns past ``lengths[k]`` hold
        :attr:`pad_code`.
    pad_code:
        The padding sentinel — one past the largest valid alphabet code,
        so a padded query profile can route it to an impossibly bad
        similarity score and padded cells can never win an alignment.
    lane_engine:
        The kernel that sweeps this group (one of
        :data:`~repro.engine.striped.LANE_ENGINES`).  This is what makes
        the engine a per-group decision for heterogeneous dispatch.
    """

    indices: np.ndarray
    lengths: np.ndarray
    codes: np.ndarray
    pad_code: int
    lane_engine: str = "gotoh"

    def __post_init__(self) -> None:
        if self.codes.ndim != 2:
            raise ValueError("packed codes must be a 2-D lane matrix")
        if self.indices.shape != self.lengths.shape or (
            self.indices.size != self.codes.shape[0]
        ):
            raise ValueError("indices, lengths and code rows must agree")
        if self.indices.size == 0:
            raise ValueError("a packed group cannot be empty")
        if self.codes.shape[1] != int(self.lengths.max()):
            raise ValueError("code matrix width must equal the max length")

    @property
    def size(self) -> int:
        """Number of lanes (sequences) in the group."""
        return int(self.indices.size)

    @property
    def max_length(self) -> int:
        return int(self.codes.shape[1])

    @property
    def residues(self) -> int:
        """Useful cells per query row: the true residue count."""
        return int(self.lengths.sum())

    @property
    def padded_cells(self) -> int:
        """Occupied lane-steps per query row: the full rectangle."""
        return self.size * self.max_length

    @property
    def padding_efficiency(self) -> float:
        """Useful work over occupied lane-steps — Figure 2's load-balance
        efficiency, for the NumPy lanes instead of SIMT threads."""
        return self.residues / self.padded_cells

    @property
    def sweep_cells(self) -> int:
        """Cells actually swept per query row by this group's engine.

        The batched engines sweep the full ``(size, max_length)``
        rectangle; the strip engine sweeps ``ceil(len / W) * W`` per
        sequence, bounding each sequence's padding at ``W - 1`` cells no
        matter how ragged the group is.
        """
        if self.lane_engine == "strips":
            w = DEFAULT_STRIP_WIDTH
            counts = np.maximum(
                (self.lengths.astype(np.int64) + w - 1) // w, 1
            )
            return int(counts.sum()) * w
        return self.padded_cells

    @property
    def sweep_efficiency(self) -> float:
        """Useful work over swept cells under the *assigned* engine."""
        return self.residues / self.sweep_cells


def pack_group(
    db: Database,
    indices: np.ndarray,
    *,
    lane_engine: str = "gotoh",
) -> PackedGroup:
    """Pack the database sequences at ``indices`` into one lane matrix.

    ``indices`` refer to ``db``'s own ordering and are recorded verbatim
    in the result, so callers can pack a sorted permutation of an
    unsorted database and still scatter scores back trivially.
    ``lane_engine`` stamps the kernel that sweeps the group.
    """
    indices = np.asarray(indices, dtype=np.int64)
    if indices.ndim != 1 or indices.size == 0:
        raise ValueError("need a non-empty 1-D index array")
    db._require_residues()
    lengths = db.lengths[indices]
    max_len = int(lengths.max())
    pad_code = db.alphabet.size
    codes = np.full((indices.size, max_len), pad_code, dtype=np.uint8)
    for lane, src in enumerate(indices):
        row = db.codes_of(int(src))
        codes[lane, : row.size] = row
    codes.setflags(write=False)
    return PackedGroup(indices, lengths, codes, pad_code, lane_engine)


class ChunkPlan(NamedTuple):
    """Pure-geometry packing plan over a length-sorted database.

    ``ranges`` are ``(start, end)`` slices into the sorted order;
    the split counters record why extra groups exist so callers can
    charge the matching ``engine.pack.*`` / ``engine.budget.*``
    counters without re-deriving the decisions.
    """

    ranges: list[tuple[int, int]]
    tail_splits: int
    budget_splits: int
    budget_extra_groups: int


def _gap_split(
    lengths: np.ndarray, start: int, end: int, floor: float
) -> list[tuple[int, int]]:
    """Split ``[start, end)`` at its largest length gaps until every
    piece packs at ``floor`` efficiency or better (or is a single lane).
    ``lengths`` must be ascending over the range."""
    size = end - start
    if size < 2:
        return [(start, end)]
    seg = lengths[start:end]
    if float(seg.sum()) / (size * int(seg[-1])) >= floor:
        return [(start, end)]
    cut = int(np.argmax(np.diff(seg))) + 1
    if cut <= 0 or cut >= size:
        return [(start, end)]
    return _gap_split(lengths, start, start + cut, floor) + _gap_split(
        lengths, start + cut, end, floor
    )


def plan_chunks(
    sorted_lengths: np.ndarray,
    group_size: int,
    *,
    budget: MemoryBudget | None = None,
    tail_floor: float = TAIL_EFFICIENCY_FLOOR,
) -> ChunkPlan:
    """Plan packing ranges for an ascending-sorted length array.

    Applies, in order: fixed ``group_size`` chunking; the tail-group
    degeneracy fix (the last chunk — the ``group_size`` remainder that
    used to merge wildly different lengths into one low-efficiency
    rectangle — is split at its largest length gaps whenever its
    efficiency falls below ``tail_floor``); then the ``budget``'s
    working-set splitting within each chunk.  Geometry only — no
    database access — so the threshold cost model can evaluate candidate
    partitions without packing anything.
    """
    if group_size <= 0:
        raise ValueError(f"group size must be positive, got {group_size}")
    sorted_lengths = np.asarray(sorted_lengths, dtype=np.int64)
    n = int(sorted_lengths.size)
    ranges = [
        (start, min(start + group_size, n))
        for start in range(0, n, group_size)
    ]
    tail_splits = 0
    if ranges and tail_floor > 0:
        last = ranges.pop()
        pieces = _gap_split(sorted_lengths, last[0], last[1], tail_floor)
        tail_splits = len(pieces) - 1
        ranges.extend(pieces)
    if budget is None:
        return ChunkPlan(ranges, tail_splits, 0, 0)
    budget_splits = budget_extra = 0
    split_ranges: list[tuple[int, int]] = []
    for start, end in ranges:
        ends = budget.split_points(
            [int(x) for x in sorted_lengths[start:end]]
        )
        if len(ends) > 1:
            budget_splits += 1
            budget_extra += len(ends) - 1
        prev = 0
        for cut in ends:
            split_ranges.append((start + prev, start + cut))
            prev = cut
    return ChunkPlan(split_ranges, tail_splits, budget_splits, budget_extra)


def plan_groups(
    sorted_lengths: np.ndarray,
    group_size: int,
    *,
    bulk_kernel: str,
    threshold: int | None = None,
    budget: MemoryBudget | None = None,
) -> tuple[ChunkPlan, tuple[str, ...]]:
    """Plan groups over an ascending length array, one kernel per group.

    The one packer behind every packing engine (CUDASW++'s dispatch
    split, Section II): sequences of length ``<= threshold`` chunk into
    ``bulk_kernel`` groups (inter-task side), longer ones into
    ``"strips"`` groups for the strip-sweep engine (intra-task side),
    where padding stays bounded per sequence instead of scaling with
    group raggedness.  ``threshold=None`` puts everything in bulk
    groups; ``threshold <= 0`` routes everything to strips.  The bulk
    side takes the bulk kernel's gap-split floor (see
    :func:`plan_chunks`); strip groups pack no rectangle, so their floor
    is 0.  Returns the combined :class:`ChunkPlan` — ranges index the
    sorted order — plus the kernel stamped on each range.  Geometry
    only: no residues are read.
    """
    sorted_lengths = np.asarray(sorted_lengths, dtype=np.int64)
    n_bulk = (
        int(sorted_lengths.size)
        if threshold is None
        else int(np.searchsorted(sorted_lengths, threshold, side="right"))
    )
    bulk = plan_chunks(
        sorted_lengths[:n_bulk], group_size, budget=budget,
        tail_floor=_TAIL_FLOORS[bulk_kernel],
    )
    tail = plan_chunks(
        sorted_lengths[n_bulk:], group_size, budget=budget, tail_floor=0.0
    )
    plan = ChunkPlan(
        bulk.ranges + [(s + n_bulk, e + n_bulk) for s, e in tail.ranges],
        bulk.tail_splits + tail.tail_splits,
        bulk.budget_splits + tail.budget_splits,
        bulk.budget_extra_groups + tail.budget_extra_groups,
    )
    kernels = (bulk_kernel,) * len(bulk.ranges) + ("strips",) * len(
        tail.ranges
    )
    return plan, kernels


def pack_groups(
    db: Database,
    order: np.ndarray,
    plan: ChunkPlan,
    kernels: tuple[str, ...],
) -> list[PackedGroup]:
    """Pack each planned range of the sorted ``order`` into a group
    stamped with its kernel.  Group ``indices`` refer to ``db``'s own
    (unsorted) order."""
    return [
        pack_group(db, order[start:end], lane_engine=kernel)
        for (start, end), kernel in zip(plan.ranges, kernels)
    ]
