"""Batched inter-sequence scoring engine.

The functional analogue of CUDASW++'s inter-task kernel: instead of one
SIMT lane per database sequence, one *NumPy lane* per sequence.  A
length-sorted database is packed into ``(group_size, max_len)`` code
matrices (:mod:`~repro.engine.pack`), and a single vectorized step per
query row advances the H/E/F recurrences for every lane of a group at
once (:mod:`~repro.engine.lanes`).  Groups can optionally fan out across
worker processes (:mod:`~repro.engine.executor`).  A
:class:`~repro.engine.plan.SearchConfig` holds the search options and a
:class:`~repro.engine.plan.SearchPlan` the query-independent group
layout (:mod:`~repro.engine.plan`).

:class:`BatchedEngine` is the turnkey front end used by
:meth:`repro.app.cudasw.CudaSW.search` (the default functional backend)
and by the throughput benchmark; the pieces compose individually for
anything custom.  Scores are bit-identical to
:func:`~repro.sw.scalar.sw_score_scalar` on every pair.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

if TYPE_CHECKING:
    from repro.sequence.sequence import Sequence

from repro.alphabet import GapPenalty, SubstitutionMatrix
from repro.engine.budget import (
    MemoryBudget,
    estimate_group_bytes,
    estimate_strip_group_bytes,
)
from repro.engine.checkpoint import (
    CheckpointError,
    CheckpointJournal,
    atomic_write_text,
    search_fingerprint,
)
from repro.engine.dbstore import (
    DatabaseFormatError,
    DatabaseStore,
    StoreGroupRef,
    build_store,
    build_store_from_fasta,
    open_database,
)
from repro.engine.executor import run_groups
from repro.engine.faults import (
    DEFAULT_POLICY,
    FaultPolicy,
    InjectionPlan,
    SearchDeadlineExceeded,
)
from repro.engine.lanes import padded_lane_profile, score_packed_group
from repro.engine.pack import DEFAULT_STRIP_WIDTH, PackedGroup, pack_group
from repro.engine.plan import (
    AUTO_CROSSOVER_LENGTH,
    AUTO_SHORT_GROUP_SIZE,
    DEFAULT_GROUP_SIZE,
    SEARCH_ENGINES,
    AutoPlan,
    SearchConfig,
    SearchPlan,
    pack_database,
    pack_database_hetero,
    plan_search,
)
from repro.engine.striped import (
    LANE_ENGINES,
    count_striped_work,
    score_packed_group_striped,
)
from repro.engine.strips import score_packed_group_strips
from repro.obs import current as obs_current
from repro.sequence.database import Database
from repro.sequence.profile import QueryProfile
from repro.sequence.striped_profile import StripedProfile
from repro.sw.utils import as_codes

__all__ = [
    "AutoPlan",
    "BatchedEngine",
    "CheckpointError",
    "CheckpointJournal",
    "DatabaseFormatError",
    "DatabaseStore",
    "EngineReport",
    "FaultPolicy",
    "InjectionPlan",
    "MemoryBudget",
    "PackedGroup",
    "SearchConfig",
    "SearchDeadlineExceeded",
    "SearchPlan",
    "StoreGroupRef",
    "StripedProfile",
    "atomic_write_text",
    "build_store",
    "build_store_from_fasta",
    "count_striped_work",
    "estimate_group_bytes",
    "open_database",
    "pack_database",
    "pack_database_hetero",
    "pack_group",
    "padded_lane_profile",
    "plan_search",
    "run_groups",
    "score_packed_group",
    "score_packed_group_striped",
    "score_packed_group_strips",
    "search_fingerprint",
    "AUTO_CROSSOVER_LENGTH",
    "AUTO_SHORT_GROUP_SIZE",
    "DEFAULT_DB_FANOUT_MIN_CELLS",
    "DEFAULT_FANOUT_MIN_CELLS",
    "DEFAULT_GROUP_SIZE",
    "DEFAULT_POLICY",
    "DEFAULT_STRIP_WIDTH",
    "LANE_ENGINES",
    "SEARCH_ENGINES",
]

#: Smallest search (query length x padded database cells) worth fanning
#: out to worker processes.  Below this, pool spin-up plus per-chunk
#: group pickling costs more than the sweep itself — BENCH_engine.json
#: showed ``workers=2`` *losing* to serial on the 1,000-sequence
#: benchmark (1.28s vs 1.18s), whose ~90M padded cells sit well under
#: this line.  Searches smaller than the threshold are demoted to the
#: serial path (counted as ``engine.executor.fanout_demotions``); an
#: explicit non-default fault policy suppresses the demotion, since
#: fault-injection and timeout semantics need the pool.  ``0`` disables
#: the demotion.
DEFAULT_FANOUT_MIN_CELLS = 256 * 1024 * 1024

#: Fan-out floor for *store-backed* searches.  With a pre-packed
#: ``.rdb`` the pool's dominant per-chunk cost — pickling whole lane
#: matrices to every worker — is gone (chunks ship
#: :class:`~repro.engine.dbstore.StoreGroupRef` index vectors and each
#: worker packs from its own memmap), so fanning out pays for itself on
#: much smaller searches than the FASTA path's
#: :data:`DEFAULT_FANOUT_MIN_CELLS`.
DEFAULT_DB_FANOUT_MIN_CELLS = 32 * 1024 * 1024


@dataclass(frozen=True)
class EngineReport:
    """Packing/execution accounting of one batched search.

    ``group_efficiencies`` is the per-group sweep efficiency — the
    functional analogue of the paper's Figure 2 load-balance efficiency:
    useful residues over the cells the group's assigned engine sweeps
    (the padded ``size x max_len`` rectangle for batched groups, the
    bounded strip total for strip groups; identical for single-engine
    searches).  ``padded_cells`` aggregates the same quantity.
    """

    #: Lanes per group of the plan that ran.
    group_size: int
    workers: int
    group_sizes: tuple[int, ...]
    group_max_lengths: tuple[int, ...]
    group_efficiencies: tuple[float, ...]
    residues: int
    padded_cells: int
    #: The explicit packing engine that ran: the configured one, or the
    #: one ``engine="auto"`` picked for this query.
    lane_engine: str = "batched"
    #: The kernel stamped on each group (one entry per group).
    lane_engines: tuple[str, ...] = ()
    #: The length threshold a heterogeneous search dispatched on
    #: (``None`` for single-engine searches).
    split_threshold: int | None = None

    @property
    def n_groups(self) -> int:
        return len(self.group_sizes)

    @property
    def padding_efficiency(self) -> float:
        """Aggregate useful-work fraction over all groups.

        An empty database packs zero groups and wastes zero work, so its
        efficiency is 1.0 by convention (not a ZeroDivisionError).
        """
        if self.padded_cells == 0:
            return 1.0
        return self.residues / self.padded_cells


class BatchedEngine:
    """Score whole database groups per NumPy sweep.

    ``matrix`` and ``gaps`` are the scoring model; the search options
    come as a :class:`~repro.engine.plan.SearchConfig` or as its fields
    (``BatchedEngine(matrix, gaps, engine="hetero", workers=2)``), and
    must name a packing engine: ``"batched"`` (the row-parallel sweep
    of :mod:`~repro.engine.lanes`), ``"striped"`` (the Farrar engine of
    :mod:`~repro.engine.striped`), ``"hetero"`` — the paper's
    length-threshold split into striped bulk groups and strip-swept
    tail groups (:mod:`~repro.engine.strips`) — or ``"auto"`` (the
    default), which runs ``batched`` or ``hetero`` by query length
    (:meth:`~repro.engine.plan.SearchConfig.for_query`).  Scores are
    bit-identical; only throughput differs.
    """

    def __init__(
        self,
        matrix: SubstitutionMatrix,
        gaps: GapPenalty,
        config: SearchConfig | None = None,
        **options: Any,
    ) -> None:
        self.matrix = matrix
        self.gaps = gaps
        self.config = config or SearchConfig(**options)

    def search(
        self,
        query: Sequence | np.ndarray | str,
        target: Database | DatabaseStore | SearchPlan | AutoPlan,
        *,
        checkpoint: str | os.PathLike[str] | None = None,
        resume: bool = False,
    ) -> tuple[np.ndarray, EngineReport]:
        """Score the query against every database sequence.

        ``query`` may be a :class:`~repro.sequence.sequence.Sequence`, a
        code array or a string.  Returns ``int64`` scores in the
        database's original order plus the packing report.

        ``target`` is a database, an opened
        :class:`~repro.engine.dbstore.DatabaseStore` or a plan from
        :func:`~repro.engine.plan.plan_search`.  A database is planned
        with this engine's config; a plan brings its own config and is
        reused as is (a campaign plans once and searches many queries).
        An ``engine="auto"`` plan first resolves the query's sub-plan,
        and everything below — profile, fan-out, checkpoint
        fingerprint, report — is that explicit engine's.
        A store-backed search reads residues through the store's
        memmap, ships group *references* to pool workers instead of
        pickled lane matrices, and folds the store's content
        fingerprint into the checkpoint
        :func:`~repro.engine.checkpoint.search_fingerprint` so a
        journal refuses to resume against a rebuilt store.  Scores are
        bit-identical to the same database searched from FASTA.

        ``checkpoint`` names a write-ahead journal file
        (:class:`~repro.engine.checkpoint.CheckpointJournal`): each
        completed group's scores are durably appended as the search
        runs, so a crash costs at most the group being written.  With
        ``resume=True`` an existing journal is replayed first —
        validated against a content fingerprint of the query, scoring
        parameters and database — and only unjournaled groups are
        recomputed; a stale or corrupt journal raises
        :class:`~repro.engine.checkpoint.CheckpointError` instead of
        being merged.  ``resume=False`` (default) truncates any
        existing journal and starts fresh.

        When the fault policy's deadline fires,
        :class:`~repro.engine.faults.SearchDeadlineExceeded` is raised
        with ``partial_scores``/``completed_mask`` attached: scores in
        database order for every group finished before the deadline
        (``-1`` and ``False`` elsewhere).  Groups completed before the
        deadline are already in the journal, so a deadline-killed
        checkpointed search is resumable too.
        """
        if resume and checkpoint is None:
            raise ValueError("resume=True requires a checkpoint path")
        instr = obs_current()
        q_codes = as_codes(query, self.matrix)
        with instr.span("pack"):
            plan = (
                target
                if isinstance(target, (SearchPlan, AutoPlan))
                else plan_search(target, self.config)
            ).for_query(q_codes.size)
            groups = plan.groups
            if instr.enabled:
                plan.record(instr)
        config = plan.config
        # A plan's config names an explicit engine, whose group size
        # SearchConfig resolves.
        assert config.group_size is not None
        db, store = plan.database, plan.store
        with instr.span("profile_build"):
            # Built once per search; the striped profile wraps the plain
            # one (as its exact-fallback tier) so either engine costs
            # one profile build.  Heterogeneous searches start from the
            # plain profile — the executor builds the striped flavor
            # lazily iff bulk groups actually exist.
            profile: QueryProfile | StripedProfile
            if config.engine == "striped":
                profile = StripedProfile(q_codes, self.matrix)
            else:
                profile = QueryProfile(q_codes, self.matrix)
        policy = config.fault_policy or DEFAULT_POLICY
        workers = config.workers
        fanout_floor = (
            DEFAULT_FANOUT_MIN_CELLS
            if store is None
            else DEFAULT_DB_FANOUT_MIN_CELLS
        )
        if (
            workers > 1
            and policy is DEFAULT_POLICY
            and fanout_floor
            and profile.length * sum(g.sweep_cells for g in groups)
            < fanout_floor
        ):
            # Too small to amortize pool spin-up + per-chunk pickling:
            # run serially (see DEFAULT_FANOUT_MIN_CELLS).  Scores are
            # path-independent, so only wall time changes.
            instr.count("engine.executor.fanout_demotions", 1)
            workers = 1
        journal: CheckpointJournal | None = None
        preloaded: dict[int, np.ndarray] = {}
        on_scored: Callable[[int, np.ndarray], None] | None = None
        if checkpoint is not None:
            fingerprint = search_fingerprint(
                q_codes, self.matrix, self.gaps, config.group_size, db,
                budget_bytes=(
                    0
                    if config.memory_budget is None
                    else config.memory_budget.max_group_bytes
                ),
                engines=tuple(_engine_token(g) for g in groups),
                store_fingerprint=(
                    store.fingerprint if store is not None else ""
                ),
            )
            with instr.span("checkpoint_replay"):
                if resume:
                    journal, preloaded = CheckpointJournal.resume(
                        checkpoint, fingerprint, groups
                    )
                else:
                    journal = CheckpointJournal.create(
                        checkpoint, fingerprint, len(groups)
                    )

            live_journal = journal

            def _journal_scored(gi: int, lane_scores: np.ndarray) -> None:
                live_journal.append(gi, groups[gi], lane_scores)
                instr.count("engine.checkpoint.groups_recomputed", 1)

            on_scored = _journal_scored

        with instr.span("fan_out"):
            try:
                per_group = run_groups(
                    profile,
                    groups,
                    self.gaps,
                    workers=workers,
                    policy=policy,
                    preloaded=preloaded or None,
                    on_group_scored=on_scored,
                    store=store,
                )
            except SearchDeadlineExceeded as exc:
                partial = np.full(len(db), -1, dtype=np.int64)
                mask = np.zeros(len(db), dtype=bool)
                for gi, lane_scores in exc.partial.items():
                    partial[groups[gi].indices] = lane_scores
                    mask[groups[gi].indices] = True
                exc.partial_scores = partial
                exc.completed_mask = mask
                raise
            finally:
                if journal is not None:
                    journal.close()
        if getattr(instr, "memory", False):
            # Cross-check the tracemalloc peak observed during the
            # sweep phases against what the MemoryBudget estimator
            # predicted for the widest group: an underestimate here
            # means the OOM guard's split points are too optimistic.
            # Strip groups sweep a (total_strips, W) working set, not
            # the packed rectangle — predict from the cells each
            # engine actually allocates.
            predicted = max(
                (
                    estimate_strip_group_bytes(g.sweep_cells)
                    if g.lane_engine == "strips"
                    else estimate_group_bytes(g.size, g.max_length)
                    for g in groups
                ),
                default=0,
            )
            observed = max(
                instr.counters.get("engine.mem.sweep.peak_bytes"),
                instr.counters.get("engine.mem.sweep_parallel.peak_bytes"),
                instr.counters.get("engine.mem.serial_retry.peak_bytes"),
            )
            instr.count("engine.mem.budget_checks", 1)
            instr.counters.record_max(
                "engine.mem.budget_predicted_bytes", predicted
            )
            if observed > predicted:
                instr.count("engine.mem.budget_underestimates", 1)
        with instr.span("score_scatter"):
            scores = np.zeros(len(db), dtype=np.int64)
            for group, lane_scores in zip(groups, per_group):
                scores[group.indices] = lane_scores
        report = EngineReport(
            group_size=config.group_size,
            workers=config.workers,
            group_sizes=tuple(g.size for g in groups),
            group_max_lengths=tuple(g.max_length for g in groups),
            group_efficiencies=tuple(g.sweep_efficiency for g in groups),
            residues=sum(g.residues for g in groups),
            padded_cells=sum(g.sweep_cells for g in groups),
            lane_engine=config.engine,
            lane_engines=tuple(g.lane_engine for g in groups),
            split_threshold=plan.split_threshold,
        )
        return scores, report


def _engine_token(group: PackedGroup) -> str:
    """Fingerprint token for one group's kernel."""
    if group.lane_engine == "strips":
        return f"strips:{DEFAULT_STRIP_WIDTH}"
    return group.lane_engine
