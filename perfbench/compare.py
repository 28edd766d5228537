"""Compare two result sets of the benchmark against its own bounds.

    python3 perfbench/compare.py BASE.json NEW.json

Each file holds the last stdout line of ``run.py --workload all``, or a
JSON list of such lines (several runs; their medians are compared).
Every (end-to-end metric, workload) pair named in ``BENCHMARK.json`` must
be present on both sides: a missing pair is a failure, never a skip.  A
pair fails when the new median is worse than the base median by more
than the metric's bound, and a side fails when any of its runs reported
a wrong output.  Exit status 1 on any failure.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: Path) -> list[dict]:
    data = json.loads(path.read_text())
    return data if isinstance(data, list) else [data]


def values(runs: list[dict], workload: str, metric: str) -> list[float]:
    out = []
    for run in runs:
        m = run.get("workloads", {}).get(workload, {}).get(metric)
        if m is not None:
            out.append(float(m["value"]))
    return out


def compare(base: list[dict], new: list[dict],
            benchmark: dict) -> tuple[list[str], list[str]]:
    """``(rows, failures)`` for every pair the benchmark names."""
    rows, failures = [], []
    for label, runs in (("base", base), ("new", new)):
        if not all(r.get("correct") for r in runs):
            failures.append(f"{label}: a run reported wrong outputs")
    for workload in (w["name"] for w in benchmark["workloads"]):
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            b, n = values(base, workload, name), values(new, workload, name)
            if not b or not n:
                side = "base" if not b else "new"
                failures.append(f"{workload} {name}: missing from {side}")
                continue
            mb, mn = statistics.median(b), statistics.median(n)
            if metric["better"] == "lower":
                worse = (mn - mb) / mb
            else:
                worse = (mb - mn) / mb
            verdict = "REGRESSED" if worse > metric["bound"] else "ok"
            rows.append(
                f"{workload:<15} {name:<15} {mb:>12.5g} {mn:>12.5g} "
                f"{metric['unit']:<9} worse by {worse:+.1%} "
                f"(bound {metric['bound']:.0%}) {verdict}"
            )
            if verdict != "ok":
                failures.append(f"{workload} {name}: worse by {worse:.1%}")
    return rows, failures


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    benchmark = json.loads(BENCHMARK.read_text())
    rows, failures = compare(load(Path(argv[0])), load(Path(argv[1])),
                             benchmark)
    for row in rows:
        print(row)
    for failure in failures:
        print(f"FAIL {failure}")
    print("FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
