"""The figure registry: one entry per paper table/figure, each stated once."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.analysis.figures import FIGURES
from repro.analysis.svg_plots import render_chart_svg

ROOT = Path(__file__).resolve().parent.parent
FIGURE_DIR = ROOT / "results" / "figures"


def test_registry_is_the_experiment_index_in_order():
    assert list(FIGURES) == [
        "table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
        "sec3c", "fig8", "fig9a", "fig9b", "fig10", "fig11", "fig12", "fig13",
    ]
    for name, figure in FIGURES.items():
        assert figure.name == name
        assert (ROOT / "benchmarks" / figure.bench).is_file()


def test_build_passes_the_repeat_profile():
    seen = []
    figure = dataclasses.replace(
        FIGURES["fig1"], compute=lambda runner, repeats: seen.append(repeats) or {}
    )
    figure.build()
    figure.build(fast=True)
    assert seen == [FIGURES["fig1"].repeats.default, 3]
    for entry in FIGURES.values():
        if entry.repeats is not None:
            assert entry.repeats.fast < entry.repeats.default


@pytest.mark.parametrize("fast", [False, True])
def test_fig11_classifies_regions_at_the_full_grid_profile(monkeypatch, fast):
    """Fig. 11's regions come from the full Naive BO grid, so a fast
    build classifies them at the fast full-grid count (what Fig. 12's
    fast build runs), not at the default five repeats."""
    from repro.analysis import experiments as exp
    from repro.analysis.figures import FULL

    region_repeats, sweep_repeats = [], set()

    def regions(runner, repeats, workload_ids=None):
        region_repeats.append(repeats)
        return {}

    def full_grid(runner, key, factory, objective, repeats, workload_ids=None):
        sweep_repeats.add(repeats)
        return {}

    monkeypatch.setattr(exp, "workload_regions", regions)
    monkeypatch.setattr(exp, "_full_grid", full_grid)
    figure = FIGURES["fig11"]
    figure.build(None, fast=fast)
    assert region_repeats == [FULL.fast if fast else FULL.default]
    assert sweep_repeats == {figure.repeats.fast if fast else figure.repeats.default}


@pytest.mark.parametrize(
    "name", [name for name, figure in FIGURES.items() if figure.chart is not None]
)
def test_committed_svg_is_the_chart_spec_rendered(name):
    payload = json.loads((FIGURE_DIR / f"{name}.json").read_text())
    svg = render_chart_svg(FIGURES[name].chart, payload)
    assert svg == (FIGURE_DIR / f"{name}.svg").read_text()

