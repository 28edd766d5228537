"""One search configuration and one query-independent search plan.

CUDASW++ sorts and partitions the database once during preprocessing
and then runs every query against that one layout.  The objects here
are that split:

* :class:`SearchConfig` — the six search options, validated once, in
  :meth:`SearchConfig.__post_init__` and nowhere else;
* :class:`SearchPlan` — what :func:`plan_search` derives from a
  database (or ``.rdb`` store) and an explicit packing engine's config
  without looking at any query: the length order, the group ranges, the
  kernel stamped on each group and the resolved split threshold.  A
  campaign builds it once and every query reuses it;
* :class:`AutoPlan` — the plan of ``engine="auto"``, which picks one of
  two geometries per query by its length (:meth:`SearchConfig.for_query`)
  and holds one :class:`SearchPlan` per geometry, each built on first
  use.

Every packing engine is the same packer with a different bulk kernel
and threshold (see :func:`~repro.engine.pack.plan_groups`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from repro.engine.budget import MemoryBudget
from repro.engine.dbstore import DatabaseStore
from repro.engine.faults import FaultPolicy
from repro.engine.pack import ChunkPlan, PackedGroup, pack_groups, plan_groups
from repro.obs import AnyInstrumentation, current as obs_current
from repro.sequence.database import Database

__all__ = [
    "AUTO_CROSSOVER_LENGTH",
    "AUTO_SHORT_GROUP_SIZE",
    "AutoPlan",
    "DEFAULT_GROUP_SIZE",
    "PACKING_ENGINES",
    "SEARCH_ENGINES",
    "SearchConfig",
    "SearchPlan",
    "pack_database",
    "pack_database_hetero",
    "plan_search",
]

#: Default lanes per group of the explicit packing engines.  Large
#: enough that vectorized work dwarfs the per-row interpreter overhead,
#: small enough that a length-sorted group's padded rectangle stays
#: tight on log-normal (Swiss-Prot-shaped) length distributions, whose
#: heavy tail dominates a too-wide last group — and several groups
#: exist to fan out across workers.
DEFAULT_GROUP_SIZE = 128

#: Query length from which ``engine="auto"`` runs ``hetero`` at
#: :data:`DEFAULT_GROUP_SIZE` lanes; shorter queries run gotoh lanes
#: (the ``batched`` engine) at :data:`AUTO_SHORT_GROUP_SIZE`.  From the
#: committed ``benchmarks/bench_layers.py`` run
#: (``benchmarks/results/layers.txt``, 12 interleaved repeats on the
#: 1,003-sequence bench database, 2-vCPU Xeon): hetero at 128 lanes
#: beats every gotoh group size at 120 aa and every longer length
#: (median 67.6 against 66.5 MCUPs at 120 aa, 85.6 against 66.5 at
#: 200 aa) and loses below (61.0 against 66.6 at 100 aa).  Near the
#: crossover the two are within each other's quartiles; earlier runs
#: put it at 100 and 150 aa.
AUTO_CROSSOVER_LENGTH = 120

#: Lanes per gotoh group for queries shorter than
#: :data:`AUTO_CROSSOVER_LENGTH`, from the same run: the best geometric
#: mean MCUPs over 20-100 aa (64 lanes 65.1, 32 lanes 64.4, 16 lanes
#: 55.0, 128 lanes 58.1).
AUTO_SHORT_GROUP_SIZE = 64

#: Explicit packing engine -> the kernel that sweeps its bulk groups.
_BULK_KERNELS = {"batched": "gotoh", "striped": "striped", "hetero": "striped"}

#: Engines that pack the database and run a plan: the explicit ones and
#: ``auto``, which picks ``batched`` or ``hetero`` per query.
PACKING_ENGINES = (*_BULK_KERNELS, "auto")

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
    only (where ``None`` means ``"auto"``).  ``group_size=None`` means
    the engine's default: :data:`DEFAULT_GROUP_SIZE` for the explicit
    packing engines.  ``engine="auto"`` (the default) owns both
    ``group_size`` and ``split_threshold`` and picks them per query
    (:meth:`for_query`), so setting either is an error.
    """

    engine: str = "auto"
    workers: int = 1
    group_size: int | None = None
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
        if self.group_size is not None and self.group_size <= 0:
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
        if self.engine == "auto":
            for name in ("group_size", "split_threshold"):
                if getattr(self, name) is not None:
                    raise ValueError(
                        f"engine='auto' picks {name} per query; name an "
                        f"explicit packing engine to set it"
                    )
        elif threshold is not None and self.engine != "hetero":
            raise ValueError(
                f"split_threshold applies to engine='hetero' only "
                f"(got engine={self.engine!r})"
            )
        if not self.packs:
            for option in fields(self)[1:]:
                if getattr(self, option.name) != option.default:
                    raise ValueError(
                        f"{option.name} applies to the batched/striped/"
                        f"hetero engines only (got engine={self.engine!r})"
                    )
        if self.engine in _BULK_KERNELS and self.group_size is None:
            object.__setattr__(self, "group_size", DEFAULT_GROUP_SIZE)
        if self.engine == "hetero" and threshold is None:
            object.__setattr__(self, "split_threshold", "auto")

    @property
    def packs(self) -> bool:
        """Whether this engine packs the database and runs a plan."""
        return self.engine in PACKING_ENGINES

    def for_query(self, query_length: int) -> SearchConfig:
        """The explicit config a query of ``query_length`` runs with.

        An explicit engine runs as configured.  ``engine="auto"`` picks
        by length alone, never by run-time timings, so scores, journals
        and reports stay deterministic: gotoh lanes at
        :data:`AUTO_SHORT_GROUP_SIZE` below
        :data:`AUTO_CROSSOVER_LENGTH`, ``hetero`` at its defaults from
        there on.
        """
        if self.engine != "auto":
            return self
        if query_length < AUTO_CROSSOVER_LENGTH:
            return replace(
                self, engine="batched", group_size=AUTO_SHORT_GROUP_SIZE
            )
        return replace(self, engine="hetero")


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

    def for_query(self, query_length: int) -> SearchPlan:
        """The plan a query runs: this one, whatever its length."""
        return self

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


@dataclass(frozen=True, eq=False)
class AutoPlan:
    """The plan of ``engine="auto"``: one :class:`SearchPlan` per
    geometry :meth:`SearchConfig.for_query` picks, each built on first
    use, so a campaign plans each geometry at most once and a single
    search plans only the geometry it runs.  Build one with
    :func:`plan_search`.
    """

    config: SearchConfig
    database: Database
    store: DatabaseStore | None
    _plans: dict[str, SearchPlan] = field(
        default_factory=dict, init=False, repr=False
    )

    def for_query(self, query_length: int) -> SearchPlan:
        """The sub-plan for a query of ``query_length``.  Counts the
        query under ``engine.auto.queries.<engine>`` and each sub-plan
        build under ``engine.auto.plans_built``."""
        config = self.config.for_query(query_length)
        instr = obs_current()
        plan = self._plans.get(config.engine)
        if plan is None:
            plan = _plan_explicit(self.database, self.store, config)
            self._plans[config.engine] = plan
            instr.count("engine.auto.plans_built", 1)
        instr.count(f"engine.auto.queries.{config.engine}", 1)
        return plan


def plan_search(
    db: Database | DatabaseStore, config: SearchConfig
) -> SearchPlan | AutoPlan:
    """Plan ``db`` for ``config``'s packing engine, once per campaign.

    Reads lengths only: a store plans from its index lengths and never
    touches the residue blob.  A ``hetero``
    config with ``split_threshold="auto"`` is tuned here by
    :func:`repro.app.threshold.tune_split_threshold`.  ``engine="auto"``
    returns an :class:`AutoPlan`, which plans nothing until a query
    asks for its geometry.
    """
    if not config.packs:
        raise ValueError(
            f"engine {config.engine!r} scores pair by pair and has no "
            "search plan"
        )
    store = db if isinstance(db, DatabaseStore) else None
    database = db.database if isinstance(db, DatabaseStore) else db
    if config.engine == "auto":
        database._require_residues()
        return AutoPlan(config, database, store)
    return _plan_explicit(database, store, config)


def _plan_explicit(
    database: Database, store: DatabaseStore | None, config: SearchConfig
) -> SearchPlan:
    """The :class:`SearchPlan` of an explicit packing engine's config."""
    # __post_init__ resolves an explicit engine's group size.
    assert config.group_size is not None
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
    plan = _plan_explicit(db, None, config)
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
    return _pack(
        db,
        SearchConfig(
            engine="batched", group_size=group_size, memory_budget=budget
        ),
    )


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
