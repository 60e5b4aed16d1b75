"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.n == 256
        assert args.backend == "host"

    def test_bad_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--backend", "warp"])


class TestInfo:
    def test_info_prints_paper_numbers(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "1,799,998" in out
        assert "29.5" in out
        assert "63.4" in out
        assert "2048 chips" in out


class TestPerf:
    def test_perf_full_system(self, capsys):
        assert main(["perf", "--block", "3000"]) == 0
        out = capsys.readouterr().out
        assert "2048 chips" in out
        assert "sustained:" in out
        assert "pipe" in out

    def test_perf_single_board(self, capsys):
        assert main(["perf", "--config", "board", "--n", "10000", "--block", "100"]) == 0
        out = capsys.readouterr().out
        assert "32 chips" in out


class TestSelfTest:
    def test_selftest_board(self, capsys):
        assert main(["selftest", "--config", "board"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "32/32" in out

    def test_selftest_precision(self, capsys):
        assert main(["selftest", "--config", "board", "--precision"]) == 0
        assert "PASS" in capsys.readouterr().out


class TestReport:
    def test_report_missing_dir(self, capsys, tmp_path):
        assert main(["report", "--results-dir", str(tmp_path / "none")]) == 1

    def test_report_prints_tables(self, capsys, tmp_path):
        d = tmp_path / "results"
        d.mkdir()
        (d / "a.txt").write_text("== T ==\nrow\n")
        assert main(["report", "--results-dir", str(d)]) == 0
        assert "== T ==" in capsys.readouterr().out


class TestRun:
    def test_run_host(self, capsys):
        assert main(["run", "--n", "32", "--t-end", "2"]) == 0
        out = capsys.readouterr().out
        assert "particles:        34" in out
        assert "energy error:" in out

    def test_run_grape(self, capsys):
        assert main(["run", "--n", "32", "--t-end", "2", "--backend", "grape"]) == 0
        out = capsys.readouterr().out
        assert "GRAPE model:" in out
        assert "Tflops" in out

    def test_run_tree(self, capsys):
        assert main(["run", "--n", "32", "--t-end", "1", "--backend", "tree"]) == 0
        out = capsys.readouterr().out
        assert "block steps:" in out

    def test_run_hybrid(self, capsys):
        assert main([
            "run", "--n", "32", "--t-end", "1",
            "--backend", "hybrid", "--theta", "0.4",
        ]) == 0
        out = capsys.readouterr().out
        assert "block steps:" in out

    @staticmethod
    def _spy_on_specs(monkeypatch):
        """Record every spec ``RunSpec.build_backend`` builds from."""
        from repro.runio import RunSpec

        specs, factory = [], RunSpec.build_backend

        def spy(spec):
            specs.append(spec)
            return factory(spec)

        monkeypatch.setattr(RunSpec, "build_backend", spy)
        return specs

    @pytest.mark.parametrize("name", ["host", "tree", "hybrid", "grape"])
    def test_cli_and_scenario_build_the_same_backend(self, name, monkeypatch,
                                                     capsys):
        """One factory: ``repro run`` at its flag defaults builds from
        the spec at its field defaults, and gets the same backend."""
        from repro.runio import RunSpec

        specs = self._spy_on_specs(monkeypatch)
        assert main(["run", "--n", "8", "--t-end", "0.25", "--backend", name]) == 0
        (from_cli,) = specs
        assert from_cli == RunSpec(n=8, backend=name)
        built = from_cli.build_backend()
        reference = RunSpec(backend=name).build_backend()
        assert type(built) is type(reference)
        for option in ("eps", "theta", "r_neighbour", "n_crit"):
            assert (getattr(built, option, None)
                    == getattr(reference, option, None)), option

    def test_plain_managed_and_resume_build_the_same_backend(
            self, monkeypatch, capsys, tmp_path):
        """One factory: a plain run, a managed run and the resume of that
        managed run all build from equal specs (the resume reading its
        spec back from the checkpoint)."""
        from repro.runio import RunSpec

        specs = self._spy_on_specs(monkeypatch)
        run = ["run", "--n", "8", "--t-end", "0.5", "--dt-max", "0.125",
               "--backend", "hybrid", "--eps", "0.01", "--theta", "0.4",
               "--r-neighbour", "0.07", "--n-crit", "16"]
        run_dir = tmp_path / "managed"
        assert main(run) == 0
        assert main(run + ["--run-dir", str(run_dir),
                           "--checkpoint-interval", "2"]) == 0
        assert main(["run", "--resume", str(run_dir)]) == 0
        plain, managed, resumed = specs
        assert plain == managed == resumed
        assert plain == RunSpec(n=8, dt_max=0.125, backend="hybrid", eps=0.01,
                                theta=0.4, r_neighbour=0.07, n_crit=16)

    def test_bad_theta_one_line_error(self, capsys):
        assert main([
            "run", "--n", "8", "--t-end", "1",
            "--backend", "hybrid", "--theta", "-2",
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "theta" in err
        assert "Traceback" not in err


class TestRunInputContract:
    """``repro run`` uses every flag it is given or exits 2 naming it."""

    MANAGED = ["run", "--n", "16", "--t-end", "2", "--dt-max", "0.25",
               "--backend", "tree", "--checkpoint-interval", "3"]

    def test_resume_of_a_checkpoint_without_recipe_exits_2(self, capsys,
                                                           tmp_path):
        """A run checkpointed through the API with no recipe can not be
        rebuilt from the flag defaults (that was a host run at dt_max 1
        instead of this tree run at 0.25)."""
        from repro.errors import SimulationKilled
        from repro.runio import ProductionRun, RunSpec

        spec = RunSpec(n=16, seed=5, dt_max=0.25, backend="tree")
        blocks = [0]

        def killer(sim):
            blocks[0] += 1
            if blocks[0] == 6:
                raise SimulationKilled("power cut")

        d = tmp_path / "rundir"
        run = ProductionRun(spec.simulation(spec.build_backend()), d,
                            checkpoint_interval=4, on_block=killer)
        with pytest.raises(SimulationKilled):
            run.execute(t_end=3.0)
        assert main(["run", "--resume", str(d)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ckpt_")
        assert "no run recipe" in err
        assert "ProductionRun.resume(dir, backend, ...)" in err
        assert len(err.strip().splitlines()) == 1

    def test_resume_honours_observability_flags(self, capsys, tmp_path):
        import json

        from repro.obs import parse_prometheus

        d = tmp_path / "rundir"
        assert main(self.MANAGED + ["--run-dir", str(d)]) == 0
        trace, prom = tmp_path / "trace.json", tmp_path / "metrics.prom"
        capsys.readouterr()
        assert main(["run", "--resume", str(d), "--trace-out", str(trace),
                     "--metrics-out", str(prom), "--profile"]) == 0
        out = capsys.readouterr().out
        assert "trace written:" in out and "metrics written:" in out
        assert "Phase profile (wall clock)" in out
        doc = json.loads(trace.read_text())
        assert any(e["ph"] == "X" and e["name"] == "block_step"
                   for e in doc["traceEvents"])
        assert parse_prometheus(prom)["blockstep_total"] > 0

    @pytest.mark.parametrize("flag, value", [
        ("--checkpoint-interval", "2"),
        ("--snapshot-interval", "0.5"),
        ("--diagnostics-interval", "0.5"),
    ])
    def test_cadence_without_run_dir_exits_2(self, capsys, flag, value):
        assert main(["run", "--n", "8", "--t-end", "0.25", flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--run-dir" in err
        assert flag in err

    def test_recipe_flags_beside_resume_exit_2(self, capsys, tmp_path):
        d = tmp_path / "rundir"
        assert main(self.MANAGED + ["--run-dir", str(d)]) == 0
        capsys.readouterr()
        assert main(["run", "--resume", str(d), "--backend", "grape",
                     "--dt-max", "0.5", "--t-end", "9"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "recipe" in err
        for flag in ("--backend", "--dt-max", "--t-end"):
            assert flag in err
        # a flag left at its default is not a request to change the run
        assert main(["run", "--resume", str(d), "--backend", "host"]) == 0


class TestRunObservability:
    def test_run_writes_trace_and_metrics(self, capsys, tmp_path):
        import json

        from repro.obs import parse_prometheus

        trace = tmp_path / "trace.json"
        prom = tmp_path / "metrics.prom"
        assert main([
            "run", "--n", "32", "--t-end", "2", "--backend", "grape",
            "--trace-out", str(trace), "--metrics-out", str(prom),
        ]) == 0
        out = capsys.readouterr().out
        assert "trace written:" in out
        assert "metrics written:" in out
        assert "t_pipe" in out  # breakdown rendered inline

        doc = json.loads(trace.read_text())
        assert any(e["ph"] == "X" and e["name"] == "block_step"
                   for e in doc["traceEvents"])
        series = parse_prometheus(prom)
        assert series["grape_pipeline_seconds"] > 0
        assert series["blockstep_total"] > 0

    def test_report_renders_metrics_breakdown(self, capsys, tmp_path):
        prom = tmp_path / "metrics.prom"
        main([
            "run", "--n", "32", "--t-end", "2", "--backend", "grape",
            "--metrics-out", str(prom),
        ])
        capsys.readouterr()
        assert main([
            "report", "--metrics", str(prom),
            "--results-dir", str(tmp_path / "none"),
        ]) == 0
        out = capsys.readouterr().out
        assert "GRAPE-6 time breakdown" in out
        assert "t_comm" in out


class TestReportErrorContract:
    def test_missing_metrics_exits_2(self, capsys, tmp_path):
        code = main(["report", "--metrics", str(tmp_path / "missing.prom")])
        assert code == 2
        assert "metrics file not found" in capsys.readouterr().err

    def test_truncated_metrics_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "torn.prom"
        bad.write_text("grape_pipeline_seconds 1.5\nthis is } not a sample\n")
        code = main(["report", "--metrics", str(bad)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_trace_exits_2(self, capsys, tmp_path):
        code = main(["report", "--trace", str(tmp_path / "missing.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_run_log_exits_2(self, capsys, tmp_path):
        code = main(["report", "--run-log", str(tmp_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestProfileAndTrace:
    def test_run_profile_prints_top_table(self, capsys):
        assert main(["run", "--n", "32", "--t-end", "2", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "Phase profile (wall clock)" in out
        assert "block_step" in out
        assert "self_share" in out

    def test_report_trace_renders_profile(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        main(["run", "--n", "32", "--t-end", "2", "--trace-out", str(trace)])
        capsys.readouterr()
        assert main([
            "report", "--trace", str(trace),
            "--results-dir", str(tmp_path / "none"),
        ]) == 0
        out = capsys.readouterr().out
        assert "Phase profile (wall clock)" in out

    def test_report_run_log_health(self, capsys, tmp_path):
        run_dir = tmp_path / "mrun"
        main([
            "run", "--n", "32", "--t-end", "2", "--run-dir", str(run_dir),
            "--diagnostics-interval", "0.5",
        ])
        capsys.readouterr()
        assert main([
            "report", "--run-log", str(run_dir),
            "--results-dir", str(tmp_path / "none"),
        ]) == 0
        out = capsys.readouterr().out
        assert "health" in out  # clean-run note or events table


class TestTop:
    def test_top_once_on_finished_run(self, capsys, tmp_path):
        run_dir = tmp_path / "mrun"
        main([
            "run", "--n", "32", "--t-end", "2", "--run-dir", str(run_dir),
            "--diagnostics-interval", "0.5", "--checkpoint-interval", "2",
        ])
        capsys.readouterr()
        assert main(["top", str(run_dir), "--once"]) == 0
        out = capsys.readouterr().out
        assert "run disk-n32" in out
        assert "[run complete]" in out
        assert "checkpoint=" in out

    def test_top_missing_log_exits_2(self, capsys, tmp_path):
        assert main(["top", str(tmp_path), "--once"]) == 2
        assert "error:" in capsys.readouterr().err


class TestPerfHistoryCommands:
    def _seed_history(self, root, slow_factor=1.0):
        import copy

        from repro.obs import BenchHistory

        base = {
            "benchmark": "kernels",
            "entries": [
                {
                    "op": "acc_jerk", "kernel": "tiled",
                    "n_active": 64, "n_source": 4096,
                    "best_seconds": 0.5,
                    "samples_seconds": [0.5, 0.505, 0.51],
                    "repeats": 3,
                }
            ],
        }
        current = copy.deepcopy(base)
        for e in current["entries"]:
            e["best_seconds"] *= slow_factor
            e["samples_seconds"] = [s * slow_factor
                                    for s in e["samples_seconds"]]
        hist = BenchHistory(root)
        hist.append(base)
        hist.append(current)
        return base

    def test_diff_detects_injected_slowdown(self, capsys, tmp_path):
        self._seed_history(tmp_path / "h", slow_factor=1.20)
        code = main(["perf", "diff", "--history", str(tmp_path / "h")])
        out = capsys.readouterr().out
        assert code == 1
        assert "REGRESSION" in out

    def test_diff_identical_passes(self, capsys, tmp_path):
        self._seed_history(tmp_path / "h", slow_factor=1.0)
        assert main(["perf", "diff", "--history", str(tmp_path / "h")]) == 0
        assert "REGRESSION" not in capsys.readouterr().out

    def test_diff_empty_history_is_friendly(self, capsys, tmp_path):
        assert main(["perf", "diff", "--history", str(tmp_path / "h")]) == 0
        assert "no benchmark history" in capsys.readouterr().out

    def test_diff_explicit_documents(self, capsys, tmp_path):
        import json as _json

        base = self._seed_history(tmp_path / "h")
        slow = {**base, "entries": [
            {**base["entries"][0],
             "best_seconds": 0.7, "samples_seconds": [0.7, 0.71, 0.72]}]}
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(_json.dumps(base))
        b.write_text(_json.dumps(slow))
        code = main(["perf", "diff", "--baseline", str(a),
                     "--current", str(b)])
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_diff_baseline_without_current_rejected(self, capsys, tmp_path):
        code = main(["perf", "diff", "--baseline", "x.json"])
        assert code == 2
        assert "together" in capsys.readouterr().err

    def test_trend_renders_trajectory(self, capsys, tmp_path):
        self._seed_history(tmp_path / "h", slow_factor=1.5)
        assert main(["perf", "trend", "--history", str(tmp_path / "h")]) == 0
        out = capsys.readouterr().out
        assert "Benchmark trend: kernels" in out
        assert "1.500" in out

    def test_gate_fails_on_regression(self, capsys, tmp_path):
        import json as _json

        base = self._seed_history(tmp_path / "h", slow_factor=1.25)
        baseline = tmp_path / "BENCH_kernels.json"
        baseline.write_text(_json.dumps(base))
        code = main([
            "perf", "gate", "--history", str(tmp_path / "h"),
            "--baseline", str(baseline),
        ])
        assert code == 1
        assert "gate FAILED" in capsys.readouterr().out

    def test_gate_passes_identical(self, capsys, tmp_path):
        import json as _json

        base = self._seed_history(tmp_path / "h", slow_factor=1.0)
        baseline = tmp_path / "BENCH_kernels.json"
        baseline.write_text(_json.dumps(base))
        code = main([
            "perf", "gate", "--history", str(tmp_path / "h"),
            "--baseline", str(baseline),
        ])
        assert code == 0
        assert "gate passed" in capsys.readouterr().out

    def test_gate_skips_without_history(self, capsys, tmp_path):
        import json as _json

        baseline = tmp_path / "BENCH_kernels.json"
        baseline.write_text(_json.dumps({"benchmark": "kernels",
                                         "entries": []}))
        code = main([
            "perf", "gate", "--history", str(tmp_path / "empty"),
            "--baseline", str(baseline),
        ])
        assert code == 0
        assert "advisory" in capsys.readouterr().out

    def test_gate_corrupt_baseline_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text("{ torn")
        code = main(["perf", "gate", "--baseline", str(bad),
                     "--history", str(tmp_path / "h")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_gate_over_the_repo_baselines_gives_a_verdict(self, capsys,
                                                          monkeypatch):
        """The repo's own ``BENCH_*.json`` against its own history: a
        slower machine may regress (1), but the gate never crashes."""
        from pathlib import Path

        monkeypatch.chdir(Path(__file__).parents[1])
        assert main(["perf", "gate"]) in (0, 1)

    def test_plain_perf_still_works(self, capsys):
        assert main(["perf", "--block", "3000"]) == 0
        assert "sustained:" in capsys.readouterr().out
