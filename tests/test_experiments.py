"""Tests for the experiments layer (registry, result container, CLI)."""

import pytest

from repro.experiments import EXPERIMENTS, ExperimentResult, run_experiment
from repro.experiments.base import suite_order
from repro.experiments.cli import main
from repro.sim.runner import clear_cache
from repro.workloads import BENCHMARK_ORDER, Scale

SUBSET = ("fma3d", "art", "mcf")


class TestRegistry:
    def test_all_paper_experiments_present(self):
        expected = {"table1", "mix"} | {f"fig{i}" for i in (1, 2, 3, 4, 5, 6, 7, 11, 12, 13, 14, 15)}
        assert set(EXPERIMENTS) == expected

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")

    def test_suite_order_default(self):
        assert suite_order(None) == BENCHMARK_ORDER

    def test_suite_order_validates(self):
        with pytest.raises(KeyError):
            suite_order(["quake3"])


class TestResultContainer:
    def test_render_and_column(self):
        result = ExperimentResult(
            experiment="figX",
            title="Demo",
            headers=["benchmark", "value"],
            rows=[["a", 1.0], ["b", 2.0]],
            notes=["a note"],
        )
        text = result.render()
        assert "[figX] Demo" in text
        assert "a note" in text
        assert result.column("value") == {"a": 1.0, "b": 2.0}
        with pytest.raises(KeyError):
            result.column("nope")


class TestExperimentRuns:
    """Every experiment runs end to end on a 3-benchmark subset."""

    def test_table1(self):
        result = run_experiment("table1", Scale.QUICK, SUBSET)
        assert result.rows

    @pytest.mark.parametrize("name", ["fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig15"])
    def test_profiling_figures(self, name):
        result = run_experiment(name, Scale.QUICK, SUBSET)
        assert result.experiment == name
        assert len(result.rows) == len(SUBSET)
        assert result.series
        for series in result.series.values():
            assert set(series) == set(SUBSET)

    def test_fig1(self):
        result = run_experiment("fig1", Scale.QUICK, SUBSET)
        assert set(result.series["potential"]) == set(SUBSET)

    def test_fig11_has_geomean_row(self):
        result = run_experiment("fig11", Scale.QUICK, SUBSET)
        assert result.rows[-1][0] == "geomean"
        assert "geomean" in result.series

    def test_fig12_categories_partition(self):
        result = run_experiment("fig12", Scale.QUICK, SUBSET)
        covered = result.series["tcp-8k:prefetched_original"]
        uncovered = result.series["tcp-8k:non_prefetched_original"]
        for name in SUBSET:
            assert covered[name] + uncovered[name] == pytest.approx(100.0, abs=0.1)

    def test_fig14(self):
        result = run_experiment("fig14", Scale.QUICK, SUBSET)
        assert set(result.series["hybrid-8k"]) == set(SUBSET)

    def test_fig13_leaves_the_mix_rows_alone(self):
        """Fig. 13's design points are names, not registrations: running
        it changes neither the registry nor the mix experiment's rows."""
        from repro.sim import PREFETCHERS

        before = dict(PREFETCHERS)
        run_experiment("fig13", 2000, ["fma3d"])
        assert PREFETCHERS == before
        assert len(run_experiment("mix", 2000, mix="fma3d").rows) == 13


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "fig11" in output and "swim" in output and "tcp-8k" in output

    def test_run_fig2_subset(self, capsys):
        code = main(["run", "fig2", "--scale", "quick",
                     "--benchmarks", "fma3d", "art"])
        assert code == 0
        output = capsys.readouterr().out
        assert "[fig2]" in output

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2

    def test_simulate_command(self, capsys):
        code = main(["simulate", "fma3d", "--prefetcher", "tcp-8k",
                     "--scale", "quick"])
        assert code == 0
        output = capsys.readouterr().out
        assert "IPC improvement" in output

    def test_bad_scale_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig2", "--scale", "enormous"])

    @pytest.mark.parametrize("flag,value,fault,expect", [
        ("--timeout", "0.01", None, "JobTimeout"),
        ("--stall-timeout", "0.5", "stall", "StallTimeout"),
        ("--retries", "0", "error", "after 1 attempt(s)"),
        ("--max-failures", "1", "error", "campaign aborted"),
    ], ids=["--timeout", "--stall-timeout", "--retries", "--max-failures"])
    def test_single_job_run_honours_campaign_flags(
        self, flag, value, fault, expect, capsys, monkeypatch
    ):
        """``--jobs 1`` is a campaign like any other: every failure flag
        takes effect there, and fig1 is not rendered from failed cells."""
        monkeypatch.delenv("REPRO_HOSTS", raising=False)
        if fault is not None:
            monkeypatch.setenv("REPRO_FAULT_KIND", fault)
            monkeypatch.setenv("REPRO_FAULT_RATE", "1.0")
        retries = [] if flag == "--retries" else ["--retries", "0"]
        clear_cache()
        code = main(["run", "fig1", "--scale", "quick", "--benchmarks", "fma3d",
                     "--jobs", "1", "--no-store", flag, value] + retries)
        assert code == 1
        captured = capsys.readouterr()
        assert expect in captured.err
        assert "[fig1]" not in captured.out

    def test_run_campaigns_only_the_experiments_cells(self, capsys):
        clear_cache()
        code = main(["run", "fig11", "--scale", "quick", "--benchmarks",
                     "fma3d", "eon", "--jobs", "2", "--no-store"])
        assert code == 0
        # base, tcp-8k, tcp-8m, dbcp-2m x 2: no ideal-L2 or hybrid cells
        assert "pre-warmed 8 simulation(s)" in capsys.readouterr().out

    def test_failed_cells_keep_their_experiment_unrendered(self, capsys):
        clear_cache()
        code = main(["run", "fig1", "--scale", "quick", "--benchmarks",
                     "fma3d", "swim", "--jobs", "2", "--timeout", "0.01",
                     "--retries", "0", "--no-store"])
        assert code == 1
        captured = capsys.readouterr()
        assert "[fig1]" not in captured.out
        assert "experiment fig1 not rendered" in captured.err

    def test_single_job_run_writes_no_trace_archive(self, tmp_path, monkeypatch):
        """An in-process campaign has no other process to share traces with."""
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
        clear_cache()
        code = main(["run", "fig1", "--scale", "quick", "--benchmarks",
                     "fma3d", "--jobs", "1", "--no-store"])
        assert code == 0
        assert list(tmp_path.rglob("*")) == []

    def test_run_all_simulates_each_cell_once(self, capsys, monkeypatch):
        """One campaign runs every distinct cell; rendering runs none."""
        from repro.experiments.registry import cells
        from repro.multicore import runner as mix_runner
        from repro.sim import runner

        rendered = []
        real_execute, real_mix = runner._execute, mix_runner.execute_mix
        monkeypatch.setattr(
            runner, "_execute", lambda *a: rendered.append(a) or real_execute(*a)
        )
        monkeypatch.setattr(
            mix_runner, "execute_mix", lambda *a: rendered.append(a) or real_mix(*a)
        )
        clear_cache()
        code = main(["run", "all", "--scale", "quick", "--benchmarks", "fma3d",
                     "--mix", "fma3d+eon", "--jobs", "2", "--no-store"])
        assert code == 0
        expected = len(cells(EXPERIMENTS, ["fma3d"], "fma3d+eon"))
        assert f"pre-warmed {expected} simulation(s)" in capsys.readouterr().out
        # pool workers run the campaign; only rendering runs in this process
        assert rendered == []

    def test_bench_is_not_a_command(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench"])
        assert excinfo.value.code == 2


class TestTraceExport:
    def test_trace_command_writes_file(self, tmp_path, capsys):
        output = tmp_path / "dump.npz"
        code = main(["trace", "fma3d", "--scale", "quick",
                     "--output", str(output)])
        assert code == 0
        assert output.exists()
        from repro.workloads import load_trace
        trace = load_trace(output)
        assert trace.name == "fma3d"


class TestReportGeneration:
    def test_report_subset_structure(self):
        from repro.experiments.report import generate_report

        # claim checkers reference these three benchmarks' series keys
        report = generate_report(
            Scale.QUICK,
            benchmarks=("fma3d", "equake", "eon", "crafty", "twolf", "swim",
                        "applu", "wupwise", "art", "lucas", "apsi", "gap",
                        "ammp", "mcf", "mgrid", "gcc"),
        )
        assert report.startswith("# EXPERIMENTS")
        assert "Scoreboard:" in report
        # one section per experiment
        for name in EXPERIMENTS:
            assert f"## {name}:" in report
        # claim tables rendered
        assert "| claim | paper | measured | verdict |" in report


class TestSection3Cache:
    def test_profile_memoised(self):
        from repro.experiments.section3 import profile

        first = profile("fma3d", Scale.QUICK)
        second = profile("fma3d", Scale.QUICK)
        assert first is second

    def test_profile_fields_consistent(self):
        from repro.experiments.section3 import profile

        data = profile("art", Scale.QUICK)
        assert data.workload == "art"
        assert data.stream_length > 0
        assert 0.0 < data.miss_rate <= 1.0
        assert data.tags.misses == data.stream_length
        assert 0.0 <= data.strided_fraction <= 1.0
