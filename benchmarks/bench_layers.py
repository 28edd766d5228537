"""Which packed geometry is fastest at which query length.

``engine="auto"`` picks one of two geometries per query by its length
alone: gotoh lanes at a small group size for short queries, ``hetero``
(striped bulk groups plus a strips tail at the tuned split threshold) at
128 lanes for long ones.  This benchmark measures that choice instead of
guessing it.  It sweeps engine x group size x query length (20-800 aa)
on the bench-shaped database — 1,000 Swiss-Prot-shaped sequences plus
three long-tail sequences of at least 3,600 aa, ~379k residues — and
reports the median and interquartile range of the in-process sweep MCUPs
of every cell.  ``striped`` at 128 lanes is measured alongside, for
reference: auto never picks it.

Every configuration is planned once, outside the timed region (a
campaign plans once too), and each timed call is one
``BatchedEngine.search`` — query profile, fan-out check, sweep and
scatter.  The (configuration, query length) cells run in a freshly
shuffled order in every repeat, so host drift spreads over all of them
instead of biasing the ones measured last.

From the medians it derives the two values ``repro.engine.plan`` commits
as ``AUTO_CROSSOVER_LENGTH`` and ``AUTO_SHORT_GROUP_SIZE``:

* the crossover is the shortest measured query length from which on
  ``hetero`` at 128 lanes beats every gotoh group size at every longer
  measured length;
* the short group size is the gotoh group size with the best geometric
  mean MCUPs over the lengths below the crossover.

The ``auto`` row is measured too, with the constants committed when the
run started (the header names them), as a check that it tracks the
better geometry at every length.  Run directly (about twenty
minutes on a 2-vCPU Xeon; writes ``benchmarks/results/layers.txt``):

    PYTHONPATH=src python benchmarks/bench_layers.py

``--repeats``, ``--lengths``, ``--sequences`` and ``--seed`` resize the
run; ``--out`` redirects the table.  Through pytest a tiny smoke shape
runs instead:

    pytest benchmarks/bench_layers.py
"""

from __future__ import annotations

import argparse
import math
import os
import pathlib
import platform
import time

import numpy as np

from repro.alphabet import BLOSUM62, GapPenalty
from repro.engine import (
    AUTO_CROSSOVER_LENGTH,
    AUTO_SHORT_GROUP_SIZE,
    BatchedEngine,
    SearchConfig,
    plan_search,
)
from repro.sequence import (
    SWISSPROT_PROFILE,
    Database,
    Sequence,
    random_protein,
)

RESULTS_PATH = pathlib.Path(__file__).parent / "results" / "layers.txt"

QUERY_LENGTHS = (20, 40, 60, 80, 100, 120, 150, 200, 400, 800)
SHORT_GROUP_SIZES = (16, 32, 64, 128)
LONG_CONFIG = "hetero/128"
SEED = 3


def configs(group_sizes=SHORT_GROUP_SIZES) -> dict[str, SearchConfig]:
    """The geometries compared: gotoh lanes at each group size, striped
    and hetero at 128 lanes, and ``auto``."""
    out = {
        f"batched/{g}": SearchConfig(engine="batched", group_size=g)
        for g in group_sizes
    }
    out["striped/128"] = SearchConfig(engine="striped", group_size=128)
    out[LONG_CONFIG] = SearchConfig(engine="hetero", group_size=128)
    out["auto"] = SearchConfig(engine="auto")
    return out


def bench_database(n_sequences: int, rng: np.random.Generator) -> Database:
    """Swiss-Prot-shaped sequences plus three long-tail entries."""
    scale = n_sequences / SWISSPROT_PROFILE.n_sequences
    db = SWISSPROT_PROFILE.build(rng, scale=scale, materialize=True)
    tail = [
        Sequence.random(f"tail{i}", int(rng.integers(3_600, 4_140)), rng)
        for i in range(3)
    ]
    return Database.from_sequences(list(db) + tail)


def measure(
    db: Database,
    lengths: tuple[int, ...],
    configs: dict[str, SearchConfig],
    *,
    repeats: int,
    rng: np.random.Generator,
) -> dict[tuple[str, int], list[float]]:
    """MCUPs samples per (configuration, query length), interleaved.

    Scores are checked equal across configurations as they come in.
    """
    gaps = GapPenalty.cudasw_default()
    queries = {m: random_protein(m, rng, id=f"q{m}") for m in lengths}
    plans = {name: plan_search(db, cfg) for name, cfg in configs.items()}
    engines = {
        name: BatchedEngine(BLOSUM62, gaps, cfg)
        for name, cfg in configs.items()
    }
    cells = [(name, m) for name in configs for m in lengths]
    samples: dict[tuple[str, int], list[float]] = {c: [] for c in cells}
    reference: dict[int, np.ndarray] = {}
    # One untimed pass packs every plan's groups and warms the kernels.
    for name, m in cells:
        scores, _ = engines[name].search(queries[m], plans[name])
        if m in reference and not np.array_equal(scores, reference[m]):
            raise AssertionError(f"{name} at {m} aa: scores differ")
        reference.setdefault(m, scores)
    for _ in range(repeats):
        for i in rng.permutation(len(cells)):
            name, m = cells[int(i)]
            start = time.perf_counter()
            engines[name].search(queries[m], plans[name])
            seconds = time.perf_counter() - start
            samples[(name, m)].append(m * db.total_residues / seconds / 1e6)
    return samples


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = np.percentile(values, [25, 50, 75])
    return float(q1), float(q2), float(q3)


def choose(
    samples: dict[tuple[str, int], list[float]],
    lengths: tuple[int, ...],
) -> tuple[int | None, int]:
    """``(crossover, short_group_size)`` from the median MCUPs.

    ``crossover`` is ``None`` when hetero wins at no suffix of the
    measured lengths.
    """
    median = {cell: quartiles(v)[1] for cell, v in samples.items()}
    short = sorted(
        {int(n.split("/")[1]) for n, _ in samples if n.startswith("batched/")}
    )
    crossover: int | None = None
    for m in sorted(lengths, reverse=True):
        best_short = max(median[(f"batched/{g}", m)] for g in short)
        if median[(LONG_CONFIG, m)] <= best_short:
            break
        crossover = m
    below = [m for m in lengths if crossover is None or m < crossover]

    def geomean(g: int) -> float:
        return math.exp(
            sum(math.log(median[(f"batched/{g}", m)]) for m in below)
            / max(len(below), 1)
        )

    return crossover, max(short, key=geomean)


def render(
    samples: dict[tuple[str, int], list[float]],
    lengths: tuple[int, ...],
    *,
    header: list[str],
) -> str:
    names = list(dict.fromkeys(n for n, _ in samples))
    lines = [*header, ""]
    lines.append(
        "MCUPs per query length, median [q1, q3] over the repeats"
    )
    lines.append(
        f"{'config':<12}" + "".join(f"{f'{m} aa':>20}" for m in lengths)
    )
    for name in names:
        row = f"{name:<12}"
        for m in lengths:
            q1, q2, q3 = quartiles(samples[(name, m)])
            row += f"{f'{q2:.1f} [{q1:.1f}, {q3:.1f}]':>20}"
        lines.append(row)
    crossover, group = choose(samples, lengths)
    lines.append("")
    lines.append(f"crossover length (hetero/128 from here on): {crossover}")
    lines.append(f"short-query gotoh group size: {group}")
    return "\n".join(lines)


def run(
    *,
    n_sequences: int,
    lengths: tuple[int, ...],
    repeats: int,
    seed: int,
    group_sizes: tuple[int, ...] = SHORT_GROUP_SIZES,
) -> tuple[dict[tuple[str, int], list[float]], list[str]]:
    rng = np.random.default_rng(seed)
    db = bench_database(n_sequences, rng)
    samples = measure(
        db, lengths, configs(group_sizes), repeats=repeats, rng=rng
    )
    header = [
        "# bench_layers: in-process sweep MCUPs by geometry and query length",
        f"# database: {len(db)} sequences, {db.total_residues} residues, "
        f"max length {int(db.lengths.max())} (seed {seed})",
        f"# repeats: {repeats}, cells interleaved in a shuffled order",
        f"# auto ran with AUTO_CROSSOVER_LENGTH = {AUTO_CROSSOVER_LENGTH}, "
        f"AUTO_SHORT_GROUP_SIZE = {AUTO_SHORT_GROUP_SIZE}",
        f"# host: {platform.machine()}, {os.cpu_count()} CPUs, Python "
        f"{platform.python_version()}, NumPy {np.__version__}",
    ]
    return samples, header


def test_layers_smoke():
    lengths = (20, 60)
    samples, header = run(
        n_sequences=40, lengths=lengths, repeats=1, seed=0,
        group_sizes=(8, 32),
    )
    assert all(len(v) == 1 and v[0] > 0 for v in samples.values())
    crossover, group = choose(samples, lengths)
    assert crossover in (None, *lengths)
    assert group in (8, 32)
    assert "short-query gotoh group size" in render(
        samples, lengths, header=header
    )


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=12, metavar="N")
    parser.add_argument("--sequences", type=int, default=1_000, metavar="N")
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument(
        "--lengths", type=int, nargs="+", default=list(QUERY_LENGTHS),
        metavar="AA",
    )
    parser.add_argument(
        "--out", type=pathlib.Path, default=RESULTS_PATH, metavar="PATH"
    )
    args = parser.parse_args(argv)
    lengths = tuple(sorted(args.lengths))
    samples, header = run(
        n_sequences=args.sequences, lengths=lengths,
        repeats=args.repeats, seed=args.seed,
    )
    text = render(samples, lengths, header=header)
    print(text)
    args.out.parent.mkdir(exist_ok=True)
    args.out.write_text(text + "\n")


if __name__ == "__main__":
    main()
