"""Search options are validated once, by ``SearchConfig``.

Every invalid option must raise the same ``ValueError`` whichever layer
it enters through: ``SearchConfig`` itself, ``CudaSW.search``,
``search_batch`` or the ``repro search`` CLI (exit code 2, the message
on one ``error:`` line).
"""

import io

import numpy as np
import pytest

from repro.app import CudaSW, search_batch
from repro.cli import main
from repro.engine import (
    DEFAULT_GROUP_SIZE,
    SEARCH_ENGINES,
    FaultPolicy,
    MemoryBudget,
    SearchConfig,
)
from repro.sequence import Database, Sequence, random_protein, write_fasta

#: id -> (SearchConfig kwargs, message regex, equivalent CLI flags or
#: None when argparse already rejects the value or has no such flag).
INVALID = {
    "unknown-engine": ({"engine": "gpu"}, "engine must be one of", None),
    "zero-workers": (
        {"workers": 0}, "workers must be >= 1", ["--workers", "0"],
    ),
    "zero-group-size": (
        {"group_size": 0}, "group size must be positive",
        ["--group-size", "0"],
    ),
    "negative-split": (
        {"engine": "hetero", "split_threshold": -5},
        "split_threshold must be 'auto' or an integer >= 0",
        ["--engine", "hetero", "--split-threshold", "-5"],
    ),
    "word-split": (
        {"engine": "hetero", "split_threshold": "fast"},
        "split_threshold must be 'auto' or an integer >= 0",
        None,
    ),
    "split-without-hetero": (
        {"engine": "striped", "split_threshold": 100},
        "split_threshold applies to engine='hetero' only",
        ["--engine", "striped", "--split-threshold", "100"],
    ),
    "pool-on-per-pair": (
        {"engine": "scalar", "workers": 2},
        "workers applies to the batched/striped/hetero engines only",
        ["--engine", "scalar", "--workers", "2"],
    ),
    "plan-on-per-pair": (
        {"engine": "antidiagonal", "group_size": 64},
        "group_size applies to the batched/striped/hetero engines only",
        ["--engine", "antidiagonal", "--group-size", "64"],
    ),
    "policy-on-per-pair": (
        {"engine": "scalar", "fault_policy": FaultPolicy(timeout=5.0)},
        "fault_policy applies to the batched/striped/hetero engines only",
        ["--engine", "scalar", "--timeout", "5"],
    ),
    "budget-on-simulate": (
        {"engine": "simulate", "memory_budget": MemoryBudget(1 << 20)},
        "memory_budget applies to the batched/striped/hetero engines only",
        None,
    ),
    "split-on-per-pair": (
        {"engine": "antidiagonal", "split_threshold": 10},
        "split_threshold applies to engine='hetero' only",
        ["--engine", "antidiagonal", "--split-threshold", "10"],
    ),
    "split-with-auto": (
        {"split_threshold": 100},
        "engine='auto' picks split_threshold per query",
        ["--split-threshold", "100"],
    ),
    "auto-split-with-auto": (
        {"engine": "auto", "split_threshold": "auto"},
        "engine='auto' picks split_threshold per query",
        ["--engine", "auto", "--split-threshold", "auto"],
    ),
    "group-size-with-auto": (
        {"group_size": 64},
        "engine='auto' picks group_size per query",
        ["--group-size", "64"],
    ),
    "default-group-size-with-auto": (
        {"engine": "auto", "group_size": 128},
        "engine='auto' picks group_size per query",
        ["--engine", "auto", "--group-size", "128"],
    ),
}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    rng = np.random.default_rng(91)
    query = random_protein(20, rng, id="Q")
    db = Database.from_sequences(
        [Sequence.random(f"s{i}", int(n), rng)
         for i, n in enumerate(rng.integers(10, 80, size=6))]
    )
    tmp = tmp_path_factory.mktemp("config")
    write_fasta([query], tmp / "q.fasta")
    write_fasta(list(db), tmp / "db.fasta")
    return {"query": query, "db": db, "q_path": str(tmp / "q.fasta"),
            "db_path": str(tmp / "db.fasta")}


@pytest.mark.parametrize("case", sorted(INVALID))
def test_invalid_option_same_error_at_every_layer(corpus, case):
    options, message, flags = INVALID[case]
    with pytest.raises(ValueError, match=message):
        SearchConfig(**options)
    with pytest.raises(ValueError, match=message):
        CudaSW().search(corpus["query"], corpus["db"], **options)
    with pytest.raises(ValueError, match=message):
        search_batch(CudaSW(), [corpus["query"]], corpus["db"], **options)
    if flags is not None:
        out = io.StringIO()
        code = main(
            ["search", corpus["q_path"], corpus["db_path"], *flags], out=out
        )
        assert code == 2
        (line,) = out.getvalue().splitlines()
        assert line.startswith("error: ")
        assert message in line


def test_hetero_defaults_to_auto_threshold():
    assert SearchConfig(engine="hetero").split_threshold == "auto"
    assert SearchConfig(engine="hetero", split_threshold=0).split_threshold == 0
    assert SearchConfig().split_threshold is None


def test_group_size_none_means_the_engine_default():
    assert SearchConfig().engine == "auto"
    assert SearchConfig().group_size is None
    for engine in ("batched", "striped", "hetero"):
        assert SearchConfig(engine=engine).group_size == DEFAULT_GROUP_SIZE
        assert SearchConfig(engine=engine) == SearchConfig(
            engine=engine, group_size=DEFAULT_GROUP_SIZE
        )
    assert SearchConfig(engine="scalar").group_size is None


def test_defaults_are_valid_for_every_engine():
    for engine in SEARCH_ENGINES:
        assert SearchConfig(engine=engine).engine == engine
