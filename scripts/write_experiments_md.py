#!/usr/bin/env python3
"""Generate EXPERIMENTS.md from the cached figure results.

Run ``scripts/build_cache.py`` first; this script renders
``results/figures/*.json`` into the paper-vs-measured record.  Each
figure's heading, rows and note come from the figure registry
(:mod:`repro.analysis.figures`); this script adds the header and the
fidelity notes.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.figures import FIGURES as REGISTRY

ROOT = Path(__file__).resolve().parent.parent
FIGURES = ROOT / "results" / "figures"


def load(name: str) -> dict | None:
    path = FIGURES / f"{name}.json"
    return json.loads(path.read_text()) if path.exists() else None


def main() -> None:
    lines: list[str] = []
    add = lines.append

    add("# EXPERIMENTS — paper vs. measured")
    add("")
    add("Every table and figure of the paper, regenerated by this repository's")
    add("benchmark harness against the canonical simulated trace")
    add("(`generate_trace(seed=2018)`).  Absolute numbers are not expected to")
    add("match the authors' AWS testbed; the **shape** of each claim is the")
    add("reproduction target (see DESIGN.md).  Regenerate with:")
    add("")
    add("```bash")
    add("python scripts/build_cache.py && python scripts/write_experiments_md.py")
    add("pytest benchmarks/ --benchmark-only -s   # asserts every shape claim")
    add("```")
    add("")

    for figure in REGISTRY.values():
        payload = load(figure.name)
        if payload is None:
            continue
        add(f"## {figure.heading_for(payload)}")
        add("")
        add(f"Bench: `benchmarks/{figure.bench}`")
        add("")
        add("| quantity | paper | measured |")
        add("|---|---|---|")
        for quantity, paper, measured in figure.rows(payload):
            add(f"| {quantity} | {paper} | {measured} |")
        add("")
        if figure.note:
            add(figure.note)
            add("")

    add("---")
    add("")
    add("## Fidelity notes")
    add("")
    add("* Repeats per point: 5 (full 107-workload grids), 30 (single-workload")
    add("  figures), 4 (stopping sweeps); the paper uses 100 throughout — this")
    add("  study runs on a single CPU core, and the runner's incremental cache")
    add("  makes rerunning any experiment with more repeats a pure top-up.  All")
    add("  runs replay the same recorded trace with per-(workload, repeat) seeds,")
    add("  so this file is bit-reproducible.")
    add("* Our simulated instance space is *easier* for Naive BO than EC2 was:")
    add("  the paper reports ~50% of workloads solved within 6 measurements where")
    add("  we see a higher fraction, and our Region III is small.  The qualitative")
    add("  fragility story — a material share of workloads needs far more than the")
    add("  initial design, kernel rankings flip between workloads, initial points")
    add("  matter, and the cost objective is harder than time — reproduces; the")
    add("  magnitudes are milder because a 6-parameter bottleneck model cannot")
    add("  carry all the pathologies of real Hadoop/Spark-on-EC2 measurements.")
    add("* The paper's per-workload showcases (als, pagerank, lr) are mapped to")
    add("  the input scales that exhibit the corresponding fragility in our")
    add("  dataset (see `repro.analysis.experiments` constants).")
    add("* Attribution: the blanked-metrics ablation")
    add("  (`benchmarks/test_ablation_surrogate.py`) indicates that most of")
    add("  Augmented BO's gain here comes from the Extra-Trees +")
    add("  Prediction-Delta machinery rather than from the low-level metrics")
    add("  themselves — see DESIGN.md section 7.")
    add("")

    (ROOT / "EXPERIMENTS.md").write_text("\n".join(lines))
    print(f"wrote EXPERIMENTS.md ({len(lines)} lines)")


if __name__ == "__main__":
    main()
