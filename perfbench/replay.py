"""Traced replay: one workload operation broken down by layer, from outside.

Spans live only here, around calls to the layers' public functions; the
program's own ``repro.obs.collect("full")`` spans and counters are read
from inside those calls.  The run, in one fresh interpreter:

* ``startup``: spawn to ``import repro.cli`` done; an ``importtime``
  probe in another fresh interpreter attributes it to numpy and scipy;
* ``setup``: FASTA parse or store build + open, ``CudaSW(...)``, cold
  ``karlin_parameters``;
* ``untraced``: the workload's operation with collection off (the
  ``repro search`` process itself for ``cold_cli``);
* ``traced``: the same operation under ``collect("full")``;
* ``replay``: per query, ``tune_split_threshold`` + ``pack_database*``
  and every group through its own ``score_packed_group*`` kernel,
  serially, so sweep time splits by kernel.

Every span carries a name, start, end, parent and request id and is
kept in memory until the end.  Top-level spans plus
``trace.unattributed_s`` sum to the traced wall time.
"""

from __future__ import annotations

import subprocess
import sys
import time
from contextlib import contextmanager

# Arrays of the striped column sweep's operand shape (size, seg_len,
# n_lanes) touched every column: h, hbuf, e, f, ftmp, best, sub, and the
# pre-materialized rho/sigma/cap/bias constants (repro.engine.striped).
STRIPED_OPERANDS = 11

#: Work counters that must repeat exactly for a seed.
WORK_COUNTERS = (
    "engine.pack.padded_cells",
    "engine.pack.groups",
    "engine.sweep.padded_cells",
    "engine.sweep.useful_cells",
    "engine.striped.columns",
    "engine.striped.lazy_f_iterations",
    "engine.striped.overflow_reruns",
    "engine.executor.worker_round_trips",
    "engine.executor.retries",
)

KERNELS = {"gotoh": "lanes", "striped": "striped", "strips": "strips"}


class Recorder:
    """In-memory spans: ``{name, request, parent, start, end}``, times in
    seconds since the process was spawned."""

    def __init__(self, origin: float) -> None:
        self.origin = origin
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def now(self) -> float:
        return time.perf_counter() - self.origin

    def add(self, name: str, request: str, start: float, end: float,
            parent: int | None = None) -> int:
        self.spans.append({"id": len(self.spans), "name": name,
                           "request": request, "parent": parent,
                           "start": start, "end": end})
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, request: str):
        parent = self._stack[-1] if self._stack else None
        sid = self.add(name, request, self.now(), float("nan"), parent)
        self._stack.append(sid)
        try:
            yield self.spans[sid]
        finally:
            self._stack.pop()
            self.spans[sid]["end"] = self.now()

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name)

    def children(self, parent: int | None) -> list[dict]:
        return [s for s in self.spans if s["parent"] == parent]


def program_total(instr, name: str) -> float:
    """Seconds in the program's own spans named ``name``, in this process
    and in every pool worker's lane."""
    forests = [list(instr.tracer.roots)]
    forests += list(instr.worker_lanes.values())
    return sum(
        span.seconds
        for forest in forests
        for root in forest
        for _, span in root.walk()
        if span.name == name
    )


def importtime_probe() -> dict[str, float]:
    """``python -X importtime -c "import repro.cli"`` in a fresh
    interpreter: total, numpy and scipy self time in seconds."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
        capture_output=True, text=True, check=True,
    )
    totals = {"all": 0.0, "numpy": 0.0, "scipy": 0.0}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, module = line[len("import time:"):].split("|")
        seconds = int(self_us) / 1e6
        totals["all"] += seconds
        top = module.strip().split(".")[0]
        if top in totals:
            totals[top] += seconds
    return totals


def _cells(groups, m: int) -> tuple[int, int]:
    """``(useful, swept)`` cells of ``groups`` for a query of length m."""
    return (m * sum(g.residues for g in groups),
            m * sum(g.sweep_cells for g in groups))


def _replay_query(rec: Recorder, request: str, query, db, matrix, gaps,
                  engine: str, kernels: dict) -> tuple:
    """Pack and sweep one query group by group; its scores and groups."""
    import numpy as np

    from repro.app.threshold import tune_split_threshold
    from repro.engine import (
        DEFAULT_GROUP_SIZE,
        pack_database,
        pack_database_hetero,
        score_packed_group,
        score_packed_group_striped,
        score_packed_group_strips,
    )
    from repro.sequence import QueryProfile, StripedProfile

    if engine == "hetero":
        with rec.span("tune_split_threshold", request):
            threshold = tune_split_threshold(
                db.lengths, group_size=DEFAULT_GROUP_SIZE
            )
        with rec.span("pack_database_hetero", request):
            groups = pack_database_hetero(db, DEFAULT_GROUP_SIZE, threshold)
    else:
        with rec.span("pack_database", request):
            groups = pack_database(db, DEFAULT_GROUP_SIZE)
    with rec.span("profile_build", request):
        plain = QueryProfile(query.codes, matrix)
        striped = (StripedProfile(query.codes, matrix)
                   if any(g.lane_engine == "striped" for g in groups)
                   else None)
    scores = np.zeros(len(db), dtype=np.int64)
    for g in groups:
        kernel = g.lane_engine or "gotoh"
        if kernel == "striped":
            call, name, profile = (score_packed_group_striped,
                                   "score_packed_group_striped", striped)
        elif kernel == "strips":
            call, name, profile = (score_packed_group_strips,
                                   "score_packed_group_strips", plain)
        else:
            call, name, profile = score_packed_group, "score_packed_group", plain
        with rec.span(name, request) as s:
            scores[g.indices] = call(profile, g, gaps)
        entry = kernels.setdefault(KERNELS[kernel], {
            "seconds": 0.0, "useful": 0, "swept": 0, "operand_bytes": 0})
        useful, swept = _cells([g], len(query))
        entry["seconds"] += s["end"] - s["start"]
        entry["useful"] += useful
        entry["swept"] += swept
        if kernel == "striped":
            entry["operand_bytes"] = max(
                entry["operand_bytes"],
                STRIPED_OPERANDS * g.size * striped.seg_len * striped.n_lanes,
            )
    return scores, groups


def run_trace(spec: dict, directory, spawned: float) -> dict:
    rec = Recorder(spawned)
    root = rec.add("run", "run", 0.0, float("nan"))
    rec._stack.append(root)
    import repro.cli  # noqa: F401  (the CLI's import chain)
    from repro import obs

    startup = rec.add("startup", "startup", 0.0, rec.now(), root)
    with rec.span("importtime_probe", "startup"):
        imports = importtime_probe()

    import child
    from oracle import TOP, cli_hit_lines, hit_line, hit_tuples
    from repro.alphabet import BLOSUM62, GapPenalty
    from repro.app import CudaSW, search_batch
    from repro.engine import build_store_from_fasta, open_database
    from repro.sequence import SWISSPROT_AA_FREQUENCIES, read_fasta_file
    from repro.sequence.database import Database
    from repro.stats import ScoreStatistics, annotate_hits
    from repro.stats.karlin import karlin_parameters

    from inputs import cache_bytes

    reference, expected = child.load_reference(directory)
    engine, workers = spec["engine"], spec["workers"]
    failures: dict[str, str] = {}  # operation -> first error

    with rec.span("setup", "setup"):
        with rec.span("read_fasta_file", "setup"):
            queries = read_fasta_file(directory / "query.fasta")
            if not spec["store"]:
                db = Database.from_sequences(
                    read_fasta_file(directory / "db.fasta"))
        if spec["store"]:
            store_path = directory / "trace.rdb"
            with rec.span("build_store", "setup"):
                build_store_from_fasta(directory / "db.fasta", store_path)
            with rec.span("open_database", "setup"):
                db = open_database(store_path)
        with rec.span("CudaSW", "setup"):
            gaps = GapPenalty.from_open_extend(10, 2)
            app = CudaSW(gaps=gaps)
        with rec.span("karlin_parameters", "setup"):
            karlin_parameters(BLOSUM62, SWISSPROT_AA_FREQUENCIES, gaps)
            stats = ScoreStatistics(BLOSUM62, gaps)
    state = (queries, db, app, stats)

    expected_lines = [hit_line(tuple(h)) for h in expected[0]]
    with rec.span("untraced", "untraced") as untraced:
        if spec["name"] == "cold_cli":
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "search",
                 str(directory / "query.fasta"), str(directory / "db.fasta")],
                capture_output=True, text=True,
            )
            if (proc.returncode != 0
                    or cli_hit_lines(proc.stdout) != expected_lines):
                failures["untraced"] = "repro search output differs"
        else:
            results, hits = child.campaign_op(spec, *state)
            failures["untraced"] = child.check_op(
                results, hits, reference, expected)

    with rec.span("traced", "traced") as traced:
        with obs.collect("full") as instr:
            if spec["name"] == "cold_cli":
                with rec.span("CudaSW.search", "traced"):
                    result, _ = app.search(queries[0], db, engine=engine,
                                           workers=workers)
                results = [result]
            else:
                with rec.span("search_batch", "traced"):
                    results, _ = search_batch(app, queries, db, engine=engine,
                                              workers=workers)
            hits = []
            for qi, (r, q) in enumerate(zip(results, queries)):
                with rec.span("annotate_hits", f"traced/q{qi:02d}"):
                    hits.append(annotate_hits(r, stats, len(q), k=TOP))
            with rec.span("output", "traced"):
                lines = [hit_line(h) for h in hit_tuples(hits[0])]
    failures["traced"] = child.check_op(results, hits, reference, expected)
    if lines != expected_lines:
        failures["traced"] = "formatted hit lines differ from the reference"

    kernels: dict[str, dict] = {}
    pack_groups = []
    with rec.span("replay", "replay"):
        matrix = app.matrix
        db_view = db.database if spec["store"] else db
        for qi, q in enumerate(queries):
            scores, groups = _replay_query(
                rec, f"replay/q{qi:02d}", q, db_view, matrix, gaps, engine,
                kernels)
            pack_groups.append((groups, len(q)))
            if not (scores == results[qi].scores).all():
                failures["replay"] = f"replay scores differ for query {qi}"
    rec._stack.pop()
    rec.spans[root]["end"] = rec.now()

    wall = rec.spans[root]["end"]
    attributed = sum(s["end"] - s["start"] for s in rec.children(root))
    n_queries = len(queries)
    counters = instr.counters.as_dict()
    fan_out = program_total(instr, "fan_out")
    worker_sweep = (program_total(instr, "sweep")
                    + program_total(instr, "serial_retry"))
    untraced_s = untraced["end"] - untraced["start"]
    traced_s = traced["end"] - traced["start"]
    if spec["name"] == "cold_cli":
        # The CLI process also pays start-up and set-up in-process.
        traced_s += rec.spans[startup]["end"] + rec.total("setup")
    useful, swept = (sum(v) for v in zip(*(
        _cells(groups, m) for groups, m in pack_groups)))

    def kernel(name: str, key: str) -> float:
        k = kernels.get(name)
        if k is None or not k["useful"]:
            return 0.0
        if key == "sweep_s":
            return k["seconds"]
        if key == "ns_per_cell":
            return k["seconds"] * 1e9 / k["useful"]
        return k["useful"] / k["swept"]

    values = {
        "startup.import_s": imports["all"],
        "startup.numpy_import_s": imports["numpy"],
        "startup.scipy_import_s": imports["scipy"],
        "stats.calibrate_s": rec.total("karlin_parameters"),
        "stats.rank_s": rec.total("annotate_hits"),
        "sequence.fasta_parse_s": rec.total("read_fasta_file"),
        "dbstore.build_s": rec.total("build_store"),
        "dbstore.open_s": rec.total("open_database"),
        "pack.s_per_query": (rec.total("pack_database")
                             + rec.total("pack_database_hetero")) / n_queries,
        "pack.padding_efficiency": useful / swept,
        "threshold.tune_s": rec.total("tune_split_threshold"),
        "lanes.sweep_s": kernel("lanes", "sweep_s"),
        "lanes.ns_per_cell": kernel("lanes", "ns_per_cell"),
        "lanes.useful_fraction": kernel("lanes", "useful_fraction"),
        "striped.sweep_s": kernel("striped", "sweep_s"),
        "striped.ns_per_cell": kernel("striped", "ns_per_cell"),
        "striped.operand_bytes": float(
            kernels.get("striped", {}).get("operand_bytes", 0)),
        "strips.sweep_s": kernel("strips", "sweep_s"),
        "strips.ns_per_cell": kernel("strips", "ns_per_cell"),
        "strips.useful_fraction": kernel("strips", "useful_fraction"),
        "executor.fan_out_s": fan_out,
        "executor.overhead_s": fan_out - worker_sweep / workers,
        "executor.parallel_efficiency": (
            worker_sweep / (workers * fan_out) if fan_out else 0.0),
        "cudasw.model_s": program_total(instr, "model"),
        "cudasw.collect_results_s": program_total(instr, "collect_results"),
        "batch.overhead_s": (
            rec.total("search_batch") - program_total(instr, "search")
            if spec["name"] != "cold_cli" else 0.0),
        "trace.attributed_fraction": attributed / wall,
        "trace.unattributed_s": wall - attributed,
        "trace.overhead_fraction": traced_s / untraced_s - 1.0,
    }
    for name in WORK_COUNTERS:
        values[name] = float(counters.get(name, 0))
    l1d, l2 = cache_bytes("L1d"), cache_bytes("L2")
    operand = values["striped.operand_bytes"]
    failures = {op: why for op, why in failures.items() if why}
    return {
        "metrics": values,
        "attempted": 4,   # set-up, untraced op, traced op, replay
        "failed": len(failures),
        "errors": failures,
        "work_counters": {n: counters.get(n, 0) for n in WORK_COUNTERS},
        "detail": {
            "wall_s": wall,
            "striped_operand_vs_l1d": operand / l1d if l1d else None,
            "striped_operand_vs_l2": operand / l2 if l2 else None,
            "kernels": kernels,
            "workers": workers,
        },
        "spans": rec.spans,
        "program_spans": [s.as_dict() for s in instr.tracer.roots],
        "worker_lanes": {
            str(pid): [s.as_dict() for s in spans]
            for pid, spans in instr.worker_lanes.items()
        },
    }
