"""Workload definitions and seeded input generation.

Every workload's inputs are a function of ``(workload, seed)`` only: the
benchmark writes them as FASTA files and the program under test only
reads those files.  Length distributions are stratified (fixed shape for
every seed); the seed moves residues, the shuffle and the query text.
"""

from __future__ import annotations

import hashlib
import os
import platform
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.sequence import Sequence, write_fasta
from repro.sequence.database import Database
from repro.sequence.synthetic import (
    PAPER_DATABASES,
    SWISSPROT_PROFILE,
    random_protein,
)

#: Swiss-Prot-shaped bench database: 1,000 log-normal sequences plus
#: three guaranteed long-tail entries, as in the engine throughput bench.
SWISSPROT_SEQUENCES = 1_000
SWISSPROT_TAIL = 3
TAIL_LENGTH = 3_600
#: Ensembl-Dog-shaped database: its heavier tail (11 entries over 3,072
#: aa, one past 28,000) is what the strip engine and pool exist for.
DOG_SEQUENCES = 2_000


#: campaign_short's 32 query lengths, evenly spread over 20-60 aa: a
#: fixed multiset, so every seed does the same number of cells.
SHORT_QUERY_LENGTHS = tuple(int(n) for n in np.linspace(20, 60, 32).round())


@dataclass(frozen=True)
class Workload:
    name: str
    database: str          # "swissprot" | "dog"
    query_lengths: tuple[int, ...]  # shuffled per seed
    engine: str            # functional engine of the timed path
    workers: int
    store: bool            # search an .rdb store instead of the FASTA db
    reference_engine: str  # full-vector oracle: an engine that shares no
                           # sweep kernel with ``engine``


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cold_cli", "swissprot", (200,), "batched", 1, False,
                 "hetero"),
        Workload("campaign_long", "dog", (100, 200, 400, 800), "hetero", 2,
                 True, "batched"),
        Workload("campaign_short", "swissprot", SHORT_QUERY_LENGTHS,
                 "batched", 1, False, "hetero"),
    )
}


@dataclass(frozen=True)
class Inputs:
    workload: Workload
    seed: int
    directory: Path
    queries: list[Sequence]
    database: Database

    @property
    def query_fasta(self) -> Path:
        return self.directory / "query.fasta"

    @property
    def db_fasta(self) -> Path:
        return self.directory / "db.fasta"

    @property
    def cells(self) -> int:
        """DP cells of one operation: sum of query lengths x residues."""
        return sum(len(q) for q in self.queries) * self.database.total_residues

    def digest(self) -> str:
        """Content hash of the generated files (keys the oracle cache)."""
        h = hashlib.sha256(self.workload.name.encode())
        for path in (self.query_fasta, self.db_fasta):
            h.update(path.read_bytes())
        return h.hexdigest()[:16]


def _swissprot(rng: np.random.Generator) -> Database:
    scale = SWISSPROT_SEQUENCES / SWISSPROT_PROFILE.n_sequences
    db = SWISSPROT_PROFILE.build(rng, scale=scale, materialize=True)
    tail = [
        Sequence.random(
            f"tail{i}",
            int(rng.integers(TAIL_LENGTH, int(TAIL_LENGTH * 1.15))),
            rng,
        )
        for i in range(SWISSPROT_TAIL)
    ]
    return Database.from_sequences(list(db) + tail)


def _dog(rng: np.random.Generator) -> Database:
    profile = PAPER_DATABASES[0]
    return profile.build(
        rng, scale=DOG_SEQUENCES / profile.n_sequences, materialize=True
    )


def generate(name: str, seed: int, directory: Path) -> Inputs:
    """Write the workload's ``query.fasta`` and ``db.fasta`` into
    ``directory`` and return them with their in-memory forms."""
    workload = WORKLOADS[name]
    index = list(WORKLOADS).index(name)
    rng = np.random.default_rng([seed, index])
    database = _swissprot(rng) if workload.database == "swissprot" else _dog(rng)
    # Generated names carry spaces; FASTA ids stop at the first one.
    database = Database.from_sequences([
        Sequence(f"{workload.database}{i:05d}", s.codes, s.alphabet)
        for i, s in enumerate(database)
    ])
    lengths = [int(n) for n in rng.permutation(workload.query_lengths)]
    queries = [
        random_protein(n, rng, id=f"Q{i:02d}_{n}aa")
        for i, n in enumerate(lengths)
    ]
    directory.mkdir(parents=True, exist_ok=True)
    write_fasta(queries, directory / "query.fasta")
    write_fasta(database, directory / "db.fasta")
    return Inputs(workload, seed, directory, queries, database)


def _cache_sizes() -> dict[str, str]:
    sizes: dict[str, str] = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        label = {"Data": "L{}d", "Instruction": "L{}i"}.get(kind, "L{}")
        sizes[label.format(level)] = size
    return sizes


def cache_bytes(label: str) -> int:
    """A cache size from :func:`host_metadata` in bytes (0 if unknown)."""
    text = _cache_sizes().get(label, "")
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    if not text:
        return 0
    if text[-1] in units:
        return int(text[:-1]) * units[text[-1]]
    return int(text)


def host_metadata(seed: int) -> dict:
    import scipy

    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
    }
