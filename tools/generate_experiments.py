#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md: paper-vs-measured for every exhibit.

Runs every experiment driver and the full claim checklist, then writes the
document.  Usage:

    python tools/generate_experiments.py [output-path]
"""

from __future__ import annotations

import sys
import time

from repro.analysis import (
    ablation_variants,
    figure2,
    figure3,
    figure5,
    figure6,
    figure7,
    future_work,
    param_exploration,
    scalability_comparison,
    sensitivity_analysis,
    table1,
    table2,
    threshold_tuning,
)
from repro.analysis.compare import (
    _ablation_checks,
    _fig2_checks,
    _fig3_checks,
    _fig5_checks,
    _fig6_checks,
    _fig7_checks,
    _param_checks,
    _table1_checks,
    _table2_checks,
    _threshold_checks,
)

PREAMBLE = """\
# EXPERIMENTS — paper vs. measured

Every figure and table of *Improving CUDASW++* (Hains et al., IPDPS 2011),
regenerated on this repository's device model.  Absolute GCUPs come from a
calibrated cost model (see DESIGN.md §2 and `repro/cuda/calibration.py`);
what is measured, not assumed, is everything structural: cell counts,
memory transactions, wavefront occupancy, strip passes, load imbalance,
cache hit regimes, lazy-F iteration counts.  The reproduction target is
therefore the *shape* of each exhibit — who wins, by roughly what factor,
where the crossovers fall — and each section below states the paper's
claim next to the measured value.

Regenerate this file with `python tools/generate_experiments.py`;
regenerate any single exhibit with its benchmark
(`pytest benchmarks/bench_<exhibit>*.py --benchmark-only -s`).

## Known, documented deviations

* **Absolute GCUPs** track the paper's anchors on the Tesla C1060
  (inter-task ~17, original intra-task ~1.5 GCUPs) because the model is
  calibrated to them; other absolute numbers follow from the model and
  land within ~±25% of the paper's, which is within the substitution's
  fidelity.
* **Table I absolute transaction counts** cannot be compared directly:
  the CUDA 3.2 profiler counted a subset of memory partitions with
  era-specific transaction semantics.  We report our own well-defined
  counters (32-byte segments under the documented coalescing rules); the
  reduction *ratio* is the reproduced quantity and lands far above the
  paper's ~50:1 floor.
* **Section VI shared-memory-only mode** *loses* ~5% in our model for the
  Swiss-Prot intra-task workload: the boundary buffer costs a full SM's
  shared memory and with it occupancy.  The paper proposed (but did not
  implement) this feature; the model suggests it only pays off for much
  shorter sequences than the intra-task kernel ever sees.
* **SWPS3's query-length sensitivity** is reproduced only weakly (the
  measured lazy-F share varies, but the modeled curve is flatter than the
  paper's).  SWPS3's adaptive 8-bit/16-bit precision scheme *is*
  implemented, as the `uint8`/`int16`/exact tiers of `repro.engine.striped`
  (exact, with overflow reruns), but synthetic workloads almost never
  overflow the byte pass, so the Figure 7 curve keeps the measured-era
  16-bit throughput calibration rather than crediting a 2x byte-lane
  speedup the paper's SWPS3 numbers clearly did not enjoy.
"""


def run() -> str:
    sections = []
    checks_all = []

    def add(result, checks, paper_note: str) -> None:
        checks_all.extend(checks)
        lines = [f"## {result.name}: {result.title}", "", paper_note, ""]
        lines.append("```")
        lines.append(result.render())
        lines.append("```")
        lines.append("")
        lines.append("| claim | paper | measured | verdict |")
        lines.append("|---|---|---|---|")
        for c in checks:
            verdict = "**PASS**" if c.holds else "**FAIL**"
            lines.append(
                f"| {c.claim} | {c.paper_value} | {c.measured_value} | {verdict} |"
            )
        sections.append("\n".join(lines))

    r = figure2()
    add(r, _fig2_checks(r),
        "Paper: Figure 2 — the two kernels over log-normal databases of "
        "growing length variance; a load-balancing story.")
    r = figure3()
    add(r, _fig3_checks(r),
        "Paper: Figure 3 — CUDASW++ (original kernel) on Swiss-Prot while "
        "the threshold decreases by 100 per run.")
    r = figure5()
    add(r, _fig5_checks(r),
        "Paper: Figure 5(a)/(b) — GCUPs and intra-task time share vs the "
        "percentage of sequences compared by the intra-task kernel; gains "
        "17.5%..67% (C1060) and 6.7%..39.3% (C2050).")
    r = figure6()
    add(r, _fig6_checks(r),
        "Paper: Figure 6 — the same sweep with the C2050's L1/L2 disabled.")
    r = figure7()
    add(r, _fig7_checks(r),
        "Paper: Figure 7 — GCUPs vs query length (144..5478) on "
        "Swiss-Prot, with SWPS3 on four Xeon cores as the reference.")
    r = table1()
    add(r, _table1_checks(r),
        "Paper: Table I — total global-memory transactions of the two "
        "intra-task kernels (queries 567 and 5478). Paper values: improved "
        "13,828 / 4,233,197; original 28,345,xxx / 468,179,739 (partial "
        "profiler counters; see deviations above).")
    r = table2()
    add(r, _table2_checks(r),
        "Paper: Table II — six databases x devices x kernels across the "
        "query ladder; the gain tracks the fraction of sequences over the "
        "threshold.")
    r = param_exploration()
    add(r, _param_checks(r),
        "Paper: Section IV-A — threads/block in {64..320} x tile height "
        "in {4, 8}; strip height governs; 512 optimal on C1060, 1024 on "
        "C2050.")
    r = ablation_variants()
    add(r, _ablation_checks(r),
        "Paper: Section III — the incremental development of the improved "
        "kernel (shallow swap, hand unrolling, query profile).")
    r = threshold_tuning()
    add(r, _threshold_checks(r),
        "Paper: Section IV-B — TAIR at threshold 1500: 'close to a 4 "
        "GCUPs increase'; Section VI proposes automatic detection.")

    fw = future_work()
    fw_lines = [
        "## future_work: Section VI proposals, modeled",
        "",
        "Paper: Section VI lists five future optimizations; all are "
        "implemented and modeled here (no claims to check — the paper "
        "only proposes them).",
        "",
        "```",
        fw.render(),
        "```",
    ]
    sections.append("\n".join(fw_lines))

    sc = scalability_comparison()
    sections.append("\n".join([
        "## scalability_comparison: Section IV-B's cores-vs-GPUs equivalence",
        "",
        'Paper: "Using eight x86 cores will give SWPS3 roughly a two times '
        'increase in speed; CUDASW++ will likewise see a twofold increase '
        'if two GPUs are used."',
        "",
        "```",
        sc.render(),
        "```",
    ]))

    sens = sensitivity_analysis()
    sections.append("\n".join([
        "## sensitivity_analysis: robustness of the reproduction",
        "",
        "Not a paper exhibit: every behavioural constant of the cost model "
        "is perturbed x0.5..x2 one at a time and the three headline claims "
        "are re-evaluated — a reproduction that held only at the tuned "
        "constants would be an artifact.",
        "",
        "```",
        f"{sens.notes}",
        "```",
    ]))

    osub = __import__(
        "repro.app.oversubscription", fromlist=["oversubscription_analysis"]
    ).oversubscription_analysis()
    sections.append("\n".join([
        "## extension_oversubscription: beyond the paper",
        "",
        "A design point the paper leaves unexplored: oversubscribed "
        "inter-task grids (k waves per launch with hardware block "
        "backfill) recover most of Figure 2's load-imbalance collapse "
        "without the dispatch threshold's help.",
        "",
        "```",
        osub.render(),
        "```",
    ]))

    passed = sum(c.holds for c in checks_all)
    summary = (
        f"\n## Summary\n\n**{passed}/{len(checks_all)} encoded paper claims "
        f"hold** (generated {time.strftime('%Y-%m-%d')}, seed 0, full-scale "
        "synthetic databases).\n"
    )
    return PREAMBLE + "\n" + summary + "\n" + "\n\n".join(sections) + "\n"


if __name__ == "__main__":
    out = sys.argv[1] if len(sys.argv) > 1 else "EXPERIMENTS.md"
    text = run()
    with open(out, "w") as fh:
        fh.write(text)
    print(f"wrote {out} ({len(text.splitlines())} lines)")
