"""One search configuration and one query-independent search plan.

CUDASW++ sorts and partitions the database once during preprocessing
and then runs every query against that one layout.  The two objects
here are that split:

* :class:`SearchConfig` — the six search options, validated once, in
  :meth:`SearchConfig.__post_init__` and nowhere else;
* :class:`SearchPlan` — what :func:`plan_search` derives from a
  database (or ``.rdb`` store) and a config without looking at any
  query: the length order, the group ranges, the kernel stamped on each
  group and the resolved split threshold.  A campaign builds it once
  and every query reuses it.

Every packing engine is the same packer with a different bulk kernel
and threshold (see :func:`~repro.engine.pack.plan_groups`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from repro.engine.budget import MemoryBudget
from repro.engine.dbstore import DatabaseStore
from repro.engine.faults import FaultPolicy
from repro.engine.pack import ChunkPlan, PackedGroup, pack_groups, plan_groups
from repro.obs import AnyInstrumentation, current as obs_current
from repro.sequence.database import Database

__all__ = [
    "DEFAULT_GROUP_SIZE",
    "PACKING_ENGINES",
    "SEARCH_ENGINES",
    "SearchConfig",
    "SearchPlan",
    "pack_database",
    "pack_database_hetero",
    "plan_search",
]

#: Default lanes per group.  Large enough that vectorized work dwarfs the
#: per-row interpreter overhead, small enough that a length-sorted
#: group's padded rectangle stays tight on log-normal (Swiss-Prot-shaped)
#: length distributions, whose heavy tail dominates a too-wide last
#: group — and several groups exist to fan out across workers.
DEFAULT_GROUP_SIZE = 128

#: Packing engine -> the kernel that sweeps its bulk groups.
_BULK_KERNELS = {"batched": "gotoh", "striped": "striped", "hetero": "striped"}

#: Engines that pack the database into groups and run a plan.
PACKING_ENGINES = tuple(_BULK_KERNELS)

#: Every functional score backend.  ``scalar`` and ``antidiagonal``
#: score pair by pair; ``simulate`` runs every pair through the
#: dispatched kernel's functional simulator.
SEARCH_ENGINES = ("scalar", "antidiagonal", "simulate", *PACKING_ENGINES)


@dataclass(frozen=True)
class SearchConfig:
    """The search options, validated once.

    See the "Search options" table in ``docs/engine.md``.  ``workers``
    and ``fault_policy`` configure the worker pool, ``group_size``,
    ``split_threshold`` and ``memory_budget`` the plan; all five apply
    to the packing engines only, and ``split_threshold`` to ``hetero``
    only (where ``None`` means ``"auto"``).
    """

    engine: str = "batched"
    workers: int = 1
    group_size: int = DEFAULT_GROUP_SIZE
    split_threshold: int | str | None = None
    fault_policy: FaultPolicy | None = None
    memory_budget: MemoryBudget | None = None

    def __post_init__(self) -> None:
        if self.engine not in SEARCH_ENGINES:
            raise ValueError(
                f"engine must be one of {SEARCH_ENGINES}, got {self.engine!r}"
            )
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.group_size <= 0:
            raise ValueError(
                f"group size must be positive, got {self.group_size}"
            )
        threshold = self.split_threshold
        if threshold not in (None, "auto") and not (
            isinstance(threshold, int) and threshold >= 0
        ):
            raise ValueError(
                f"split_threshold must be 'auto' or an integer >= 0, "
                f"got {threshold!r}"
            )
        if threshold is not None and self.engine != "hetero":
            raise ValueError(
                f"split_threshold applies to engine='hetero' only "
                f"(got engine={self.engine!r})"
            )
        if self.engine not in PACKING_ENGINES:
            for field in fields(self)[1:]:
                if getattr(self, field.name) != field.default:
                    raise ValueError(
                        f"{field.name} applies to the batched/striped/"
                        f"hetero engines only (got engine={self.engine!r})"
                    )
        if self.engine == "hetero" and threshold is None:
            object.__setattr__(self, "split_threshold", "auto")

    @property
    def packs(self) -> bool:
        """Whether this engine packs the database and runs a plan."""
        return self.engine in PACKING_ENGINES


@dataclass(frozen=True, eq=False)
class SearchPlan:
    """A query-independent search plan over one database.

    ``order`` is the stable length sort of the database;
    ``chunks.ranges`` slice it into groups, ``kernels`` names the
    kernel stamped on each, and the ``chunks`` split counts record why
    extra groups exist.  ``split_threshold`` is
    the resolved hetero threshold (``None`` for single-kernel engines).
    Build one with :func:`plan_search`.
    """

    config: SearchConfig
    database: Database
    store: DatabaseStore | None
    order: np.ndarray
    chunks: ChunkPlan
    kernels: tuple[str, ...]
    split_threshold: int | None

    @cached_property
    def groups(self) -> list[PackedGroup]:
        """The packed groups, built on first use and then reused by
        every search of the plan."""
        return pack_groups(self.database, self.order, self.chunks, self.kernels)

    def record(self, instr: AnyInstrumentation) -> None:
        """Charge the ``engine.pack.*`` counters, and for hetero plans
        the ``engine.dispatch.*`` counters, for one search.

        ``padded_cells`` counts cells the assigned kernels will actually
        sweep (``sweep_cells``) — the padded rectangle for bulk groups,
        the bounded strip total for strip groups.
        """
        groups = self.groups
        residues = sum(g.residues for g in groups)
        swept = sum(g.sweep_cells for g in groups)
        instr.count("engine.pack.groups", len(groups))
        instr.count("engine.pack.sequences", len(self.database))
        instr.count("engine.pack.residues", residues)
        instr.count("engine.pack.padded_cells", swept)
        instr.count("engine.pack.pad_waste_cells", swept - residues)
        chunks = self.chunks
        if chunks.tail_splits:
            instr.count("engine.pack.tail_splits", 1)
            instr.count("engine.pack.tail_extra_groups", chunks.tail_splits)
        if chunks.budget_splits:
            instr.count("engine.budget.groups_split", chunks.budget_splits)
            instr.count(
                "engine.budget.extra_groups", chunks.budget_extra_groups
            )
        for g in groups:
            instr.observe("engine.pack.group_cells", float(g.sweep_cells))
            instr.observe("engine.pack.group_efficiency", g.sweep_efficiency)
        if self.split_threshold is None:
            return
        tail = [g for g in groups if g.lane_engine == "strips"]
        bulk = [g for g in groups if g.lane_engine != "strips"]
        instr.count("engine.dispatch.bulk_groups", len(bulk))
        instr.count("engine.dispatch.tail_groups", len(tail))
        instr.count(
            "engine.dispatch.bulk_sequences", sum(g.size for g in bulk)
        )
        instr.count(
            "engine.dispatch.tail_sequences", sum(g.size for g in tail)
        )
        instr.counters.record_max(
            "engine.dispatch.split_threshold", self.split_threshold
        )
        if self.config.split_threshold == "auto":
            instr.count("engine.dispatch.auto_tuned", 1)


def plan_search(
    db: Database | DatabaseStore, config: SearchConfig
) -> SearchPlan:
    """Plan ``db`` for ``config``'s packing engine, once per campaign.

    Reads lengths only: a store plans from its index lengths and never
    touches the residue blob.  A ``hetero``
    config with ``split_threshold="auto"`` is tuned here by
    :func:`repro.app.threshold.tune_split_threshold`.
    """
    if not config.packs:
        raise ValueError(
            f"engine {config.engine!r} scores pair by pair and has no "
            "search plan"
        )
    store = db if isinstance(db, DatabaseStore) else None
    database = db.database if isinstance(db, DatabaseStore) else db
    database._require_residues()
    order = np.argsort(database.lengths, kind="stable")
    threshold: int | None = None
    if config.split_threshold == "auto":
        # Imported at call time: repro.app.threshold builds CudaSW apps
        # for its sweep API, so a module-level import would be circular.
        from repro.app.threshold import tune_split_threshold

        threshold = tune_split_threshold(
            database.lengths, group_size=config.group_size
        )
    elif isinstance(config.split_threshold, int):
        threshold = config.split_threshold
    chunks, kernels = plan_groups(
        database.lengths[order],
        config.group_size,
        bulk_kernel=_BULK_KERNELS[config.engine],
        threshold=threshold,
        budget=config.memory_budget,
    )
    return SearchPlan(
        config, database, store, order, chunks, kernels, threshold
    )


def _pack(db: Database, config: SearchConfig) -> list[PackedGroup]:
    plan = plan_search(db, config)
    instr = obs_current()
    if instr.enabled:
        plan.record(instr)
    return plan.groups


def pack_database(
    db: Database,
    group_size: int,
    *,
    budget: MemoryBudget | None = None,
) -> list[PackedGroup]:
    """Sort ``db`` by length and pack it into row-sweep groups — the
    ``batched`` plan's groups (CUDASW++'s sort-then-partition
    preprocessing).  Group ``indices`` refer to the *original*
    (unsorted) database order.  ``budget`` splits any group whose
    estimated sweep working set would exceed it; splitting only changes
    fan-out geometry, never scores."""
    return _pack(db, SearchConfig(group_size=group_size, memory_budget=budget))


def pack_database_hetero(
    db: Database,
    group_size: int,
    threshold: int,
    *,
    budget: MemoryBudget | None = None,
) -> list[PackedGroup]:
    """Length-threshold heterogeneous packing (the paper's core split):
    the ``hetero`` plan's groups at ``threshold`` — striped bulk groups
    up to it, strip groups past it."""
    return _pack(
        db,
        SearchConfig(
            engine="hetero", group_size=group_size,
            split_threshold=threshold, memory_budget=budget,
        ),
    )
