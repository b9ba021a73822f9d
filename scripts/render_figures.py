#!/usr/bin/env python3
"""Render every cached figure JSON under results/figures/ as SVG.

Each figure with a chart in the registry (:mod:`repro.analysis.figures`)
is drawn from its spec; the others have no SVG.

Run ``scripts/build_cache.py`` first.  Outputs land next to the JSONs:
``results/figures/<name>.svg``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.figures import FIGURES as REGISTRY
from repro.analysis.svg_plots import render_chart_svg

ROOT = Path(__file__).resolve().parent.parent
FIGURES = ROOT / "results" / "figures"


def main() -> None:
    rendered = 0
    for figure in REGISTRY.values():
        json_path = FIGURES / f"{figure.name}.json"
        if figure.chart is None or not json_path.exists():
            continue
        payload = json.loads(json_path.read_text())
        json_path.with_suffix(".svg").write_text(render_chart_svg(figure.chart, payload))
        rendered += 1
        print(f"rendered {figure.name}.svg")
    print(f"{rendered} figures rendered")


if __name__ == "__main__":
    main()
