"""The paper-vs-measured record regenerates byte for byte.

EXPERIMENTS.md, the ``arrow experiments`` index and the terminal charts
of ``arrow figure`` are all rendered from the committed figure JSONs
under ``results/figures``.  These pins catch any drift in how a
figure's rows, headings, index title or chart are stated, without
rerunning a single search.
"""

from __future__ import annotations

import hashlib
import importlib.util
import shutil
from pathlib import Path

import pytest

from repro.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIGURE_DIR = ROOT / "results" / "figures"

#: sha256 of the stdout of ``arrow figure <name> --dir results/figures``.
FIGURE_DIGESTS = {
    "fig1": "6b8e5b500b548952446e6384363e538cb3cfc3a8d5aa0f19d862214325611c14",
    "fig2": "b60bbcc205f10c207feec8fac0b731006861926de8a2ca899f28342a03dbe676",
    "fig8": "c782227a4ea555365a2ff83a6577bfb6f5cef13226804704565fe6f0427927d8",
    "fig9a": "90d2902e3d26feeb9ea82aff03bf30cbe33f9d16074dd431fc39176012cd1a38",
    "fig9b": "57621c01c573af348dfffb331109c898fbc22cf5e279649a3d4661fa0e2e47b6",
}

#: sha256 of the stdout of ``arrow experiments``.
EXPERIMENTS_DIGEST = "3dfe5ff1641fb7bf2d6c903c950aed2bee930a10f92517171a0bd8161cb03d2f"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_experiments_md_regenerates_byte_identically(tmp_path, capsys):
    # The script writes next to its own repository root, so run a copy
    # of it over a copy of the figure JSONs.
    (tmp_path / "scripts").mkdir()
    script = tmp_path / "scripts" / "write_experiments_md.py"
    shutil.copy(ROOT / "scripts" / "write_experiments_md.py", script)
    shutil.copytree(
        FIGURE_DIR,
        tmp_path / "results" / "figures",
        ignore=shutil.ignore_patterns("*.svg"),
    )
    spec = importlib.util.spec_from_file_location("write_experiments_md", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    capsys.readouterr()

    regenerated = (tmp_path / "EXPERIMENTS.md").read_bytes()
    assert regenerated == (ROOT / "EXPERIMENTS.md").read_bytes()


@pytest.mark.parametrize("name", sorted(FIGURE_DIGESTS))
def test_figure_terminal_output_is_pinned(name, capsys):
    assert main(["figure", name, "--dir", str(FIGURE_DIR)]) == 0
    assert _sha256(capsys.readouterr().out) == FIGURE_DIGESTS[name]


def test_experiment_index_is_pinned(capsys):
    assert main(["experiments"]) == 0
    assert _sha256(capsys.readouterr().out) == EXPERIMENTS_DIGEST
