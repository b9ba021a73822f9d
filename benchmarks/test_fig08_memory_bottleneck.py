"""Figure 8: low-level metrics expose a memory bottleneck.

Paper: running logistic regression, c3.large is 14.8x slower than the
best VM and its memory pressure / CPU utilisation profile reveals why —
the kind of signal the published instance features cannot carry.
"""

from conftest import show

from repro.analysis.figures import FIGURES

FIGURE = FIGURES["fig8"]


def test_fig8_memory_bottleneck(benchmark, runner):
    result = benchmark.pedantic(FIGURE.build, args=(runner,), rounds=1, iterations=1)
    rows = result["rows"]
    slowest = rows[0]
    fastest = rows[-1]

    show(FIGURE.heading_for(result), FIGURE.rows(result))
    print(f"{'VM':<12} {'norm time':>9} {'mem%':>6} {'iowait%':>8} {'cpu%':>6}")
    for row in rows:
        print(
            f"{row['vm']:<12} {row['normalised_time']:>9.1f} {row['mem_commit_pct']:>6.0f}"
            f" {row['cpu_iowait_pct']:>8.1f} {row['cpu_user_pct']:>6.1f}"
        )

    # Shape: small compute VMs thrash (order-of-magnitude slowdown with
    # saturated memory commit); large-memory VMs do not.
    assert slowest["vm"] in {"c3.large", "c4.large"}
    assert slowest["normalised_time"] > 5
    assert slowest["mem_commit_pct"] > 110
    assert fastest["mem_commit_pct"] < 100

    # The metrics separate paging VMs from healthy ones.
    paging = [r for r in rows if r["mem_commit_pct"] > 110]
    healthy = [r for r in rows if r["mem_commit_pct"] < 90]
    assert paging and healthy
    assert min(r["normalised_time"] for r in paging) > max(
        r["normalised_time"] for r in healthy
    ) * 0.9
