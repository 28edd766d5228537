"""The repository benchmark: one cold CLI search and two campaigns.

    python3 perfbench/run.py --workload cold_cli --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root.  Inputs are generated from ``--seed``;
the program under ``src/`` only reads the generated files.  One
process runs a closed loop with one client for ``--seconds`` and checks
every timed operation against a reference (see ``oracle.py``).  With
``--trace 0`` the last stdout line is the result object with the
end-to-end metrics; with ``--trace 1`` a separate traced replay reports
the per-layer metrics (see ``replay.py``).  ``#`` lines before it name
every metric with its unit, the failed fraction and the host.  Full
records, samples and spans go to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("cold_cli", "campaign_long", "campaign_short")
SETUP_SAMPLES = 3
#: Hard cap per spawned process; the whole run must end within 180 s.
PROCESS_TIMEOUT_S = 120.0



def metric_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, for one mode, from ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def tail_percentile(samples: list[float]) -> tuple[float, float, int]:
    """``(value, percentile, samples_beyond)`` at the highest
    nearest-rank percentile with at least ten samples beyond it.

    With ten samples or fewer no percentile qualifies; the maximum is
    reported, with zero samples beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    i = n - 11 if n > 10 else n - 1
    return ordered[i], 100.0 * (i + 1) / n, n - 1 - i


def fits(started: float, last_op: float, seconds: float) -> bool:
    """Whether another operation, as long as the last one, still ends
    inside the measuring window (the first one always runs)."""
    return time.perf_counter() - started + last_op <= seconds


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], stdout, cwd: Path) -> tuple[int, float, float]:
    """Run ``argv`` to completion; ``(status, wall_s, peak_rss_mb)``.

    Wall time runs from just before the spawn to the reaped exit; the
    peak RSS is the child's own ``ru_maxrss``.  A process past
    ``PROCESS_TIMEOUT_S`` is killed and reported with status -9.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=stdout, stderr=subprocess.DEVNULL,
                            cwd=cwd, env=child_env())
    timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def child(mode: str, spec: dict, work: Path, *extra: str) -> list[dict]:
    """Run ``child.py`` in a fresh interpreter; its JSON-line records.

    The spawn timestamp is taken as late as possible so set-up time
    covers interpreter start-up.
    """
    out_path = work / f"child-{mode}-{time.monotonic_ns()}.jsonl"
    with open(out_path, "w") as out:
        spawned = time.perf_counter()
        argv = [sys.executable, str(HERE / "child.py"), mode,
                json.dumps(spec), str(work), repr(spawned), *extra]
        status, _, _ = spawn(argv, out, ROOT)
    records = [json.loads(line) for line in out_path.read_text().splitlines()
               if line.startswith("{")]
    if status != 0:
        records.append({"error": f"{mode} process exited with {status}"})
    return records


def setup_samples(spec: dict, work: Path, n: int) -> tuple[list[float], int]:
    samples, failed = [], 0
    for _ in range(n):
        records = child("setup", spec, work)
        got = [r["setup_s"] for r in records if "setup_s" in r]
        if got and not any("error" in r for r in records):
            samples.append(got[0])
        else:
            failed += 1
    return samples, failed


def measure_cold_cli(inputs, spec: dict, work: Path, seconds: float,
                     expected_lines: list[str]) -> dict:
    import oracle

    setups, failed = setup_samples(spec, work, SETUP_SAMPLES)
    attempted = SETUP_SAMPLES
    walls, rss = [], []
    argv = [sys.executable, "-m", "repro", "search",
            str(inputs.query_fasta), str(inputs.db_fasta)]
    out_path = work / "cli.out"
    started = time.perf_counter()
    while not walls or fits(started, walls[-1], seconds):
        with open(out_path, "w") as out:
            status, wall, peak = spawn(argv, out, work)
        attempted += 1
        walls.append(wall)
        rss.append(peak)
        lines = oracle.cli_hit_lines(out_path.read_text())
        if status != 0 or lines != expected_lines:
            failed += 1
    return {"walls": walls, "setups": setups, "rss": statistics.median(rss),
            "attempted": attempted, "failed": failed}


def measure_campaign(spec: dict, work: Path, seconds: float) -> dict:
    setups, failed = setup_samples(spec, work, SETUP_SAMPLES - 1)
    attempted = SETUP_SAMPLES - 1
    records = child("campaign", spec, work, str(seconds))
    walls, rss = [], None
    for record in records:
        if "setup_s" in record:
            setups.append(record["setup_s"])
            attempted += 1
        elif "wall" in record:
            attempted += 1
            walls.append(record["wall"])
            failed += bool(record["error"])
        elif "peak_rss_mb" in record:
            rss = record["peak_rss_mb"]
        elif "error" in record:
            attempted += 1
            failed += 1
    return {"walls": walls, "setups": setups, "rss": rss,
            "attempted": attempted, "failed": failed}


def end_to_end_metrics(measured: dict, cells: int) -> tuple[dict, dict]:
    walls = measured["walls"]
    p50 = statistics.median(walls)
    tail, pct, beyond = tail_percentile(walls)
    values = {
        "latency_p50_s": p50,
        "latency_tail_s": tail,
        "mcups": cells / p50 / 1e6,
        "setup_s": statistics.median(measured["setups"]),
        "peak_rss_mb": measured["rss"],
    }
    detail = {"samples": len(walls), "walls": walls,
              "setups": measured["setups"], "tail_percentile": pct,
              "tail_samples_beyond": beyond,
              "setup_samples": len(measured["setups"])}
    return values, detail


def prepare(name: str, seed: int, work: Path):
    """Generate inputs and write the reference for the child processes."""
    import numpy as np

    import oracle
    from inputs import WORKLOADS, generate

    inputs = generate(name, seed, work)
    digest = inputs.digest()
    reference, expected = oracle.reference(inputs, STATE / "cache")
    np.save(work / "reference.npy", reference)
    (work / "expected_hits.json").write_text(json.dumps(expected))
    w = WORKLOADS[name]
    spec = {"name": name, "engine": w.engine, "workers": w.workers,
            "store": w.store, "seed": seed, "cells": inputs.cells,
            "digest": digest}
    return inputs, spec, expected


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import oracle
    from inputs import host_metadata

    work = STATE / "work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs, spec, expected = prepare(name, seed, work)
        if trace:
            records = child("trace", spec, work)
            result = next((r for r in records if "metrics" in r), None)
            if result is None:
                errors = [r["error"] for r in records if "error" in r]
                raise RuntimeError(f"traced replay failed: {errors}")
            attempted, failed = result["attempted"], result["failed"]
            values, detail = result["metrics"], result["detail"]
            detail["errors"] = result["errors"]
            if not counters_repeat(spec, result["work_counters"]):
                failed += 1
                detail["errors"]["counters"] = "work counters differ " \
                    "from an earlier run with this seed"
            write_result(f"spans-{name}-seed{seed}", {
                k: result[k]
                for k in ("spans", "program_spans", "worker_lanes")})
        else:
            if name == "cold_cli":
                lines = [oracle.hit_line(tuple(h)) for h in expected[0]]
                measured = measure_cold_cli(inputs, spec, work, seconds, lines)
            else:
                measured = measure_campaign(spec, work, seconds)
            attempted, failed = measured["attempted"], measured["failed"]
            if not (measured["walls"] and measured["setups"]
                    and measured["rss"] is not None):
                raise RuntimeError(f"{name}: the measuring process died")
            values, detail = end_to_end_metrics(measured, spec["cells"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = metric_units(trace)
    if set(values) != set(units):
        raise RuntimeError(f"{name}: metrics {sorted(set(values) ^ set(units))}"
                           " do not match BENCHMARK.json")
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    record = {
        "workload": name, "trace": trace, "correct": failed == 0,
        "attempted": attempted, "failed": failed, "metrics": metrics,
        "detail": detail, "host": host_metadata(seed), "cells": spec["cells"],
    }
    write_result(f"{name}-seed{seed}-trace{int(trace)}", record)
    return record


def write_result(stem: str, record: dict) -> None:
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1))


def counters_repeat(spec: dict, counters: dict[str, int]) -> bool:
    """Record the traced run's work counters for this seed's inputs, or
    check them against the ones recorded by an earlier run."""
    path = STATE / "cache" / (
        f"counters-{spec['name']}-{spec['seed']}-{spec['digest']}.json"
    )
    if path.exists():
        return json.loads(path.read_text()) == counters
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counters))
    return True


def print_record(record: dict) -> None:
    name = record["workload"]
    for metric, m in record["metrics"].items():
        print(f"# {name} {metric} {m['value']:.6g} {m['unit']}")
    fraction = record["failed"] / record["attempted"]
    print(f"# {name} failed_fraction {fraction:.6g} ratio "
          f"({record['failed']}/{record['attempted']})")
    print(f"# {name} detail {json.dumps(record['detail'])}")


def import_program() -> None:
    """Put ``src/`` first on the path and prove ``repro`` comes from it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"error: repro imported from {repro.__file__}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    records = {}
    for name in names:
        records[name] = run_workload(name, args.seed, args.seconds,
                                     bool(args.trace))
        print_record(records[name])
    print(f"# host {json.dumps(records[names[0]]['host'])}")
    if args.workload == "all":
        combined = {
            "correct": all(r["correct"] for r in records.values()),
            "attempted": sum(r["attempted"] for r in records.values()),
            "failed": sum(r["failed"] for r in records.values()),
            "workloads": {n: r["metrics"] for n, r in records.items()},
        }
        write_result(f"all-seed{args.seed}-trace{args.trace}", combined)
        print(json.dumps(combined))
    else:
        r = records[args.workload]
        print(json.dumps({k: r[k] for k in
                          ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
