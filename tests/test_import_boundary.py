"""Where scipy is loaded: only where a GP is built.

Arrow's own method (Extra-Trees + prediction delta) never fits a GP, so
importing the package and running AugmentedBO searches and grids must
leave scipy unloaded; building a GP method loads it.  Each case runs in
a fresh interpreter, because this test process has long since imported
scipy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.parallel.engine import _fork_available

SRC = Path(__file__).resolve().parents[1] / "src"

PRELUDE = """
import json, sys
from repro.trace.generate import default_trace
trace = default_trace()
ids = [w.workload_id for w in trace.registry][:4]
"""


def _fresh_stdout(code: str, tmp_path: Path | None = None) -> list[str]:
    """Run ``code`` in a new interpreter; the lines it prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout.strip().splitlines()


def _fresh(code: str, tmp_path: Path | None = None):
    """Run ``code`` in a new interpreter; the JSON its last line prints."""
    return json.loads(_fresh_stdout(code, tmp_path)[-1])


SCIPY_LOADED = "any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)"


@pytest.mark.parametrize("module", ["repro", "repro.cli"])
def test_importing_the_package_leaves_scipy_unloaded(module):
    out = _fresh(f"import json, sys\nimport {module}\nprint(json.dumps({SCIPY_LOADED}))")
    assert out is False


def test_spot_faulty_augmented_search_leaves_scipy_unloaded():
    out = _fresh(PRELUDE + f"""
from repro.cloud.spot import SpotMarket, SpotPolicy
from repro.core.augmented_bo import AugmentedBO
from repro.faults.models import (
    FaultInjector, FaultPlan, SpotInterruptions, TransientTimeouts,
)
from repro.faults.retry import RetryPolicy
market = SpotMarket(seed=3)
plan = FaultPlan((TransientTimeouts(rate=0.3), SpotInterruptions(market=market)), seed=5)
result = AugmentedBO(
    FaultInjector(trace.environment(ids[0]), plan), seed=7,
    retry_policy=RetryPolicy(max_attempts=4), batch_size=2,
    spot=SpotPolicy(market=market),
).run()
print(json.dumps([result.search_cost > 0, {SCIPY_LOADED}]))
""")
    assert out == [True, False]


@pytest.mark.parametrize(
    "executor",
    ["serial", pytest.param("queue", marks=pytest.mark.skipif(
        not _fork_available(), reason="requires fork start method"))],
)
def test_augmented_grid_leaves_scipy_unloaded(executor, tmp_path):
    out = _fresh(PRELUDE + f"""
from repro.analysis.runner import ExperimentRunner, RunGrid
from repro.core.augmented_bo import AugmentedBO
from repro.core.objectives import Objective
def factory(environment, objective, seed):
    return AugmentedBO(environment, objective=objective, seed=seed)
grid = RunGrid("boundary", factory, Objective.TIME, ids, 1)
results = ExperimentRunner(trace, cache_dir="cache").run(
    grid, executor={executor!r}, workers=2
)
print(json.dumps([sum(len(runs) for runs in results.values()), {SCIPY_LOADED}]))
""", tmp_path)
    assert out == [4, False]


@pytest.mark.parametrize(
    "build",
    [
        "from repro.core.naive_bo import NaiveBO\nNaiveBO(trace.environment(ids[0]), seed=1)",
        "from repro.core.hybrid_bo import HybridBO\nHybridBO(trace.environment(ids[0]), seed=1)",
        "from repro.ml.gp import GaussianProcessRegressor\nGaussianProcessRegressor()",
    ],
    ids=["naive-bo", "hybrid-bo", "gp"],
)
def test_building_a_gp_loads_scipy(build):
    out = _fresh(PRELUDE + f"""
before = {SCIPY_LOADED}
{build}
print(json.dumps([before, all(m in sys.modules for m in (
    "scipy.linalg", "scipy.optimize", "scipy.special"))]))
""")
    assert out == [False, True]


def test_expected_improvement_works_without_a_gp():
    out = _fresh(f"""
import json, math, sys
from repro.core.acquisition import expected_improvement
before = {SCIPY_LOADED}
mean, std, best = [1.0, 2.0, 3.0], [0.5, 0.0, 1.0], 2.0
ei = [float(v) for v in expected_improvement(mean, std, best)]
def reference(m, s):
    if s == 0.0:
        return max(best - m, 0.0)
    z = (best - m) / s
    cdf = 0.5 * math.erfc(-z / math.sqrt(2))
    pdf = math.exp(-z * z / 2) / math.sqrt(2 * math.pi)
    return (best - m) * cdf + s * pdf
print(json.dumps([before, ei, [reference(m, s) for m, s in zip(mean, std)]]))
""")
    before, ei, expected = out
    assert before is False
    assert ei == pytest.approx(expected, rel=1e-12)


@pytest.mark.skipif(not _fork_available(), reason="requires fork start method")
def test_pool_workers_inherit_scipy_from_the_parent():
    """The parent builds the grid's first optimiser before ``auto``
    forks its local queue workers, so a NaiveBO worker finds scipy
    loaded before its first build."""
    lines = _fresh_stdout(PRELUDE + f"""
import os
from repro.core.naive_bo import NaiveBO
from repro.core.objectives import Objective
from repro.parallel import engine
# Take the worker request literally, so a one-CPU host still forks.
engine.plan_workers = lambda workers, n_cells: workers
parent = os.getpid()
def factory(environment, objective, seed):
    if os.getpid() != parent:
        # One write per line: two workers share the pipe, and print()
        # writes each piece separately when stdout is unbuffered.
        os.write(1, ("worker " + json.dumps({SCIPY_LOADED}) + "\\n").encode())
    return NaiveBO(environment, objective=objective, seed=seed, max_measurements=6)
cells = [(w, 0) for w in ids]
before = {SCIPY_LOADED}
done = [item for finished in engine.run_cells(trace, factory, Objective.TIME,
                                              cells, workers=2, executor="auto")
        for item in finished]
print(json.dumps([before, len(done)]))
""")
    assert json.loads(lines[-1]) == [False, 4]
    workers = [line.split(" ", 1)[1] for line in lines if line.startswith("worker ")]
    assert len(workers) == 4 and set(workers) == {"true"}
