"""Unit tests for the ``arrow`` command-line interface."""

import json

import pytest

from repro.cli import main
from repro.parallel.engine import _fork_available


class TestCatalog:
    def test_lists_all_18_vms(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 19  # header + 18 rows
        assert "c4.2xlarge" in out
        assert "$/hour" in out


class TestWorkloads:
    def test_lists_all_by_default(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 107

    def test_framework_filter(self, capsys):
        assert main(["workloads", "--framework", "Hadoop 2.7"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 21  # 7 apps x 3 sizes
        assert "Spark" not in out

    def test_combined_filters(self, capsys):
        assert main(
            ["workloads", "--application", "als", "--size", "medium"]
        ) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 2  # Spark 2.1 and Spark 1.5

    def test_invalid_framework_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["workloads", "--framework", "Flink"])
        assert excinfo.value.code == 2


class TestTrace:
    def test_generate_and_stats_roundtrip(self, tmp_path, capsys):
        out_path = tmp_path / "trace.json"
        assert main(["trace", "generate", "--seed", "7", "--out", str(out_path)]) == 0
        assert out_path.exists()
        capsys.readouterr()
        assert main(["trace", "stats", "--path", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "worst/best spread" in out
        assert "optimal-VM histogram" in out


class TestSearch:
    def test_single_run_prints_steps(self, capsys):
        assert main(["search", "kmeans/Spark 2.1/small", "--method", "random"]) == 0
        out = capsys.readouterr().out
        assert "stopped by exhausted after 18 measurements" in out
        assert "best" in out

    def test_unknown_workload_fails_cleanly(self, capsys):
        assert main(["search", "nope/Spark 2.1/small"]) == 1
        assert "unknown workload" in capsys.readouterr().err

    def test_repeats_prints_summary(self, capsys):
        assert main(
            [
                "search", "kmeans/Spark 2.1/small",
                "--method", "random", "--repeats", "3",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "3 repeats" in out
        assert "median" in out
        repeat_lines = [line for line in out.splitlines() if "  repeat " in line]
        assert [line.split(":")[0] for line in repeat_lines] == [
            "  repeat 0", "  repeat 1", "  repeat 2",
        ]
        assert repeat_lines[2].startswith(
            "  repeat 2: seed 2, search cost 18, charged 18, best "
        )
        assert repeat_lines[2].endswith("x optimum)")

    def test_stopping_rule_applies(self, capsys):
        assert main(
            [
                "search", "kmeans/Spark 2.1/small",
                "--method", "augmented", "--stop", "delta",
                "--stop-value", "1.1",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "stopped by criterion" in out

    def test_workers_flag_matches_serial_summary(self, capsys):
        argv = [
            "search", "kmeans/Spark 2.1/small",
            "--method", "random", "--repeats", "4",
        ]
        assert main(argv + ["--workers", "1"]) == 0
        serial_out = capsys.readouterr().out
        assert main(argv + ["--workers", "3"]) == 0
        parallel_out = capsys.readouterr().out
        assert serial_out == parallel_out
        assert "4 repeats" in serial_out

    def test_bad_cell_timeout_fails_cleanly_under_vector(self, capsys):
        assert main(
            [
                "search", "kmeans/Spark 2.1/small", "--method", "random",
                "--repeats", "2", "--executor", "vector", "--cell-timeout", "-5",
            ]
        ) == 1
        assert "cell_timeout must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("flags", "error"),
        [
            (["--cell-timeout", "-5"], "cell_timeout must be positive, got -5.0"),
            (["--workers", "0"], "workers must be >= 1, got 0"),
        ],
        ids=["cell-timeout", "workers"],
    )
    def test_bad_cell_timeout_fails_cleanly_on_a_cached_grid(
        self, tmp_path, capsys, flags, error
    ):
        argv = [
            "search", "kmeans/Spark 2.1/small", "--method", "random",
            "--repeats", "2", "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        # Every cell is served from the cache, so nothing reaches the
        # engine: the runner itself must reject the option.
        assert main(argv + flags) == 1
        assert capsys.readouterr().err.strip() == f"error: {error}"

    def test_refit_fraction_flag(self, capsys):
        assert main(
            [
                "search", "kmeans/Spark 2.1/small",
                "--method", "augmented", "--refit-fraction", "0.25",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "stopped by" in out

    def test_bad_refit_fraction_fails_cleanly(self, capsys):
        assert main(
            [
                "search", "kmeans/Spark 2.1/small",
                "--method", "augmented", "--refit-fraction", "0",
            ]
        ) == 1
        assert "refit_fraction" in capsys.readouterr().err


class TestSearchFaults:
    def test_fault_plan_with_outage_reports_quarantine(self, capsys):
        assert main(
            [
                "search", "kmeans/Spark 2.1/small",
                "--method", "exhaustive",
                "--fault-plan", "outage:vm=c3.large",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "stopped by exhausted after 17 measurements" in out
        assert "quarantined: c3.large" in out
        assert "failed attempts: 3" in out

    def test_transient_faults_with_retries_complete(self, capsys):
        assert main(
            [
                "search", "kmeans/Spark 2.1/small",
                "--method", "random",
                "--fault-plan", "transient:every=3",
                "--measure-retries", "2",
                "--retry-backoff", "1.0",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "stopped by exhausted after 18 measurements" in out
        assert "retry wait" in out

    def test_fault_runs_are_reproducible(self, capsys):
        argv = [
            "search", "kmeans/Spark 2.1/small",
            "--method", "random",
            "--fault-plan", "transient:rate=0.3+straggler:rate=0.1,slowdown=3",
            "--fault-seed", "9",
            "--measure-retries", "3",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_repeats_report_charged_cost_under_faults(self, capsys):
        assert main(
            [
                "search", "kmeans/Spark 2.1/small",
                "--method", "random", "--repeats", "3",
                "--fault-plan", "transient:every=4",
                "--measure-retries", "2",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "charged cost (failures included)" in out

    def test_bad_fault_plan_fails_cleanly(self, capsys):
        assert main(
            [
                "search", "kmeans/Spark 2.1/small",
                "--fault-plan", "meteor:rate=1.0",
            ]
        ) == 1
        assert "unknown fault rule" in capsys.readouterr().err

    def test_negative_retries_fail_cleanly(self, capsys):
        assert main(
            [
                "search", "kmeans/Spark 2.1/small",
                "--measure-retries", "-2",
            ]
        ) == 1
        assert "error" in capsys.readouterr().err


class TestProfile:
    def test_profile_prints_chart_and_summary(self, capsys):
        assert main(["profile", "scan/Hadoop 2.7/small", "c4.large"]) == 0
        out = capsys.readouterr().out
        assert "simulated" in out
        assert "iowait" in out
        assert "summary:" in out

    def test_paging_flagged(self, capsys):
        assert main(["profile", "lr/Spark 1.5/medium", "c4.large"]) == 0
        assert "paging yes" in capsys.readouterr().out

    def test_unknown_vm_fails_cleanly(self, capsys):
        assert main(["profile", "scan/Hadoop 2.7/small", "c9.nano"]) == 1
        assert "error" in capsys.readouterr().err


class TestFigure:
    def test_missing_figure_fails_cleanly(self, tmp_path, capsys):
        assert main(["figure", "fig1", "--dir", str(tmp_path)]) == 1
        assert "build_cache" in capsys.readouterr().err

    def test_renders_fig1_curve(self, tmp_path, capsys):
        payload = {
            "curve": [i / 18 for i in range(1, 19)],
            "solved_at_6": 0.33,
            "solved_at_12": 0.66,
            "regions": {"Region I": 50, "Region II": 40, "Region III": 17},
        }
        (tmp_path / "fig1.json").write_text(json.dumps(payload))
        assert main(["figure", "fig1", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "fraction of workloads solved" in out
        assert "regions" in out

    def test_renders_fig9_multiseries(self, tmp_path, capsys):
        payload = {
            "curves": {"naive": [0.1, 0.5, 1.0], "augmented": [0.2, 0.7, 1.0]},
            "solved_at": {},
        }
        (tmp_path / "fig9a.json").write_text(json.dumps(payload))
        assert main(["figure", "fig9a", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "* naive" in out
        assert "o augmented" in out

    def test_renders_fig6_bar_chart(self, tmp_path, capsys):
        payload = {
            "workload": "regression/Spark 1.5/medium",
            "rows": [{"vm": "c4.large", "time": 2.5, "cost": 1.0},
                     {"vm": "r4.xlarge", "time": 1.0, "cost": 1.4}],
        }
        (tmp_path / "fig6.json").write_text(json.dumps(payload))
        assert main(["figure", "fig6", "--dir", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("c4.large  |") and lines[0].endswith("| 2.50x")
        assert lines[1].endswith("| 1.00x")

    @pytest.mark.parametrize(
        "text, cause",
        [('{"curve": [0.1', "JSONDecodeError"), ('{"counts": {}}', "KeyError")],
        ids=["truncated", "misshaped"],
    )
    def test_bad_figure_json_fails_cleanly(self, tmp_path, capsys, text, cause):
        (tmp_path / "fig1.json").write_text(text)
        assert main(["figure", "fig1", "--dir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "fig1.json" in captured.err and cause in captured.err

    def test_unknown_figure_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["figure", "fig99"])
        assert excinfo.value.code == 2

    def test_generic_figure_dumps_json(self, tmp_path, capsys):
        (tmp_path / "fig12.json").write_text(json.dumps({"counts": {"win": 40}}))
        assert main(["figure", "fig12", "--dir", str(tmp_path)]) == 0
        assert '"win": 40' in capsys.readouterr().out


class TestExperiments:
    def test_lists_all_16_experiments(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 16
        assert "fig13" in out


class TestQueueCommands:
    WORKLOAD = "kmeans/Spark 2.1/small"

    def test_search_queue_requires_cache_dir(self, capsys):
        assert main(
            ["search", self.WORKLOAD, "--method", "random", "--executor", "queue"]
        ) == 1
        assert "--cache-dir" in capsys.readouterr().err

    def test_queue_status_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main(
            ["queue-status", "--queue-db", str(tmp_path / "absent.queue")]
        ) == 1
        assert "no queue database" in capsys.readouterr().err

    def test_queue_worker_missing_db_fails_cleanly(self, tmp_path, capsys):
        assert main(
            ["queue-worker", "--queue-db", str(tmp_path / "absent.queue")]
        ) == 1
        assert "no queue database" in capsys.readouterr().err

    @pytest.mark.skipif(
        not _fork_available(), reason="requires fork start method"
    )
    def test_queue_campaign_matches_serial_and_serves_tools(self, tmp_path, capsys):
        argv = [
            "search", self.WORKLOAD, "--method", "random", "--repeats", "4",
        ]
        assert main(argv + ["--cache-dir", str(tmp_path / "serial")]) == 0
        serial_out = capsys.readouterr().out
        assert main(
            argv + [
                "--cache-dir", str(tmp_path / "queued"),
                "--executor", "queue", "--queue-workers", "1",
            ]
        ) == 0
        queued_out = capsys.readouterr().out
        assert serial_out == queued_out

        [serial_cache] = list((tmp_path / "serial").glob("*.json"))
        [queued_cache] = list((tmp_path / "queued").glob("*.json"))
        assert serial_cache.read_bytes() == queued_cache.read_bytes()

        [queue_db] = list((tmp_path / "queued").glob("*.queue"))
        assert main(["queue-status", "--queue-db", str(queue_db)]) == 0
        status_out = capsys.readouterr().out
        assert "done      4" in status_out
        assert "attempts histogram" in status_out

        # A worker with matching flags joins a drained queue and exits.
        assert main(
            ["queue-worker", "--queue-db", str(queue_db), "--method", "random"]
        ) == 0
        assert "processed 0 cell(s)" in capsys.readouterr().out

    @pytest.mark.skipif(
        not _fork_available(), reason="requires fork start method"
    )
    def test_queue_status_reports_pricing_and_partial_credit(
        self, tmp_path, capsys
    ):
        assert main([
            "search", self.WORKLOAD, "--method", "random", "--repeats", "2",
            "--pricing", "spot", "--spot-seed", "5",
            "--fault-plan", "spot:market=5,base=0.25,slope=0.5",
            "--measure-retries", "5",
            "--cache-dir", str(tmp_path / "spot"),
            "--executor", "queue", "--queue-workers", "1",
        ]) == 0
        capsys.readouterr()
        [queue_db] = list((tmp_path / "spot").glob("*.queue"))
        assert main(["queue-status", "--queue-db", str(queue_db)]) == 0
        out = capsys.readouterr().out
        assert "pricing spot" in out
        assert "cumulative partial credit" in out

    def test_queue_status_on_demand_shows_no_credit_line(self, tmp_path, capsys):
        from repro.parallel.queue import WorkQueue

        queue_db = tmp_path / "plain.queue"
        with WorkQueue(queue_db, "campaign__time") as queue:
            queue.enqueue([((self.WORKLOAD, 0), 5)])
        assert main(["queue-status", "--queue-db", str(queue_db)]) == 0
        out = capsys.readouterr().out
        assert "pricing on-demand" in out
        assert "cumulative partial credit" not in out

    def test_queue_worker_refuses_foreign_grid_key(self, tmp_path, capsys):
        from repro.parallel.queue import WorkQueue

        queue_db = tmp_path / "foreign.queue"
        with WorkQueue(queue_db, "some-other-campaign__time") as queue:
            queue.enqueue([((self.WORKLOAD, 0), 5)])
        assert main(
            ["queue-worker", "--queue-db", str(queue_db), "--method", "random"]
        ) == 1
        assert "belongs to grid" in capsys.readouterr().err
        # The explicit override serves the queue anyway.
        assert main(
            [
                "queue-worker", "--queue-db", str(queue_db),
                "--method", "random", "--allow-key-mismatch",
            ]
        ) == 0
        assert "processed 1 cell(s)" in capsys.readouterr().out


class TestSpotGridKey:
    """Spot flags join the search cache key only when pricing is spot."""

    WORKLOAD = "kmeans/Spark 2.1/small"

    def _key(self, *extra):
        from repro.cli import _search_grid_key, build_parser

        args = build_parser().parse_args(
            ["search", self.WORKLOAD, "--method", "random", *extra]
        )
        return _search_grid_key(args)

    def test_on_demand_key_ignores_spot_flags(self):
        # The spot knobs are inert while pricing stays on-demand, so
        # they must not perturb (and so invalidate) existing caches.
        assert self._key() == self._key(
            "--spot-seed", "99", "--spot-fallback-after", "7",
            "--spot-resume-credit", "0.5",
        )

    def test_spot_pricing_changes_the_key(self):
        assert self._key("--pricing", "spot") != self._key()

    def test_spot_knobs_change_the_spot_key(self):
        base = self._key("--pricing", "spot")
        assert self._key("--pricing", "spot", "--spot-seed", "9") != base
        assert self._key("--pricing", "spot", "--spot-fallback-after", "7") != base
        assert self._key("--pricing", "spot", "--spot-resume-credit", "0.5") != base


class TestSearchGridKeyStability:
    """Existing `arrow search` caches are named by these keys; a change
    to any of them orphans every cache built under the old one."""

    @pytest.mark.parametrize(
        "method, expected",
        [
            ("random", "search-random-kmeans~Spark_2.1~small-3e8042e2"),
            ("naive", "search-naive-kmeans~Spark_2.1~small-f561b50f"),
            ("hybrid", "search-hybrid-kmeans~Spark_2.1~small-1dae1a4f"),
            ("augmented", "search-augmented-kmeans~Spark_2.1~small-3f4d4edc"),
        ],
    )
    def test_default_keys_are_byte_stable(self, method, expected):
        from repro.cli import _search_grid_key, build_parser

        args = build_parser().parse_args(
            ["search", "kmeans/Spark 2.1/small", "--method", method]
        )
        assert _search_grid_key(args) == expected
