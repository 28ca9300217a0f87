"""Tests for the parallel result-cache prewarmer (repro.sim.parallel)."""

import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.experiments import EXPERIMENTS, run_experiment
from repro.sim import SimulationConfig, experiment_configs, prewarm, simulate
from repro.sim.parallel import prewarm_cells
from repro.sim.resilience import default_workers, supervision_context
from repro.sim.runner import _RESULT_CACHE, clear_cache
from repro.workloads import Scale

BENCHES = ("fma3d", "eon")


class TestExperimentConfigs:
    def test_covers_main_experiments(self):
        labels = {config.resolved_label() for config in experiment_configs()}
        assert {"base", "ideal-l2", "tcp-8k", "tcp-8m", "dbcp-2m", "hybrid-8k"} <= labels


class TestPrewarm:
    def test_inprocess_prewarm_fills_cache(self):
        clear_cache()
        configs = [SimulationConfig.baseline()]
        report = prewarm(configs, Scale.QUICK, BENCHES, jobs=1)
        assert report.executed == 2
        assert report.ok
        for name in BENCHES:
            assert (name, Scale.QUICK.accesses, configs[0]) in _RESULT_CACHE

    def test_prewarm_skips_cached(self):
        clear_cache()
        configs = [SimulationConfig.baseline()]
        prewarm(configs, Scale.QUICK, BENCHES, jobs=1)
        report = prewarm(configs, Scale.QUICK, BENCHES, jobs=1)
        assert report.executed == 0
        assert report.skipped == 2

    def test_parallel_matches_serial(self):
        configs = [SimulationConfig.for_prefetcher("tcp-8k")]
        clear_cache()
        prewarm(configs, Scale.QUICK, BENCHES, jobs=2)
        parallel_ipc = {
            name: simulate(name, configs[0], Scale.QUICK).ipc for name in BENCHES
        }
        clear_cache()
        serial_ipc = {
            name: simulate(name, configs[0], Scale.QUICK).ipc for name in BENCHES
        }
        assert parallel_ipc == serial_ipc

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_experiments_consume_prewarmed_results(self, name, monkeypatch):
        """After a campaign over an experiment's declared cells, rendering
        it never reaches the runner's execute path."""
        from repro.experiments.registry import cells
        from repro.multicore import runner as mix_runner
        from repro.sim import runner

        clear_cache()
        assert prewarm_cells(cells([name], BENCHES, "fma3d+eon"), Scale.QUICK, jobs=2).ok

        def refuse(*args):
            raise AssertionError(f"{name} simulated outside its campaign")

        monkeypatch.setattr(runner, "_execute", refuse)
        monkeypatch.setattr(mix_runner, "execute_mix", refuse)
        run_experiment(name, Scale.QUICK, BENCHES, mix="fma3d+eon")

    def test_one_core_mix_named_after_a_benchmark_keeps_both_cells(self, monkeypatch):
        """A 1-core mix named after a benchmark shares workload name
        and label with that benchmark's solo cell; one campaign still
        simulates and installs both."""
        from repro.experiments.registry import cells
        from repro.multicore import runner as mix_runner
        from repro.sim import runner

        clear_cache()
        grid = cells(["mix"], mix="fma3d")
        report = prewarm_cells(grid, Scale.QUICK, jobs=2)
        assert report.ok
        assert report.executed == len(grid)

        def refuse(*args):
            raise AssertionError("mix simulated outside its campaign")

        monkeypatch.setattr(runner, "_execute", refuse)
        monkeypatch.setattr(mix_runner, "execute_mix", refuse)
        run_experiment("mix", Scale.QUICK, mix="fma3d")

    def test_success_count_excludes_failures(self, monkeypatch):
        """The report never counts a failed job as executed."""
        from repro.sim import resilience

        monkeypatch.setattr(
            resilience,
            "_FAULT_INJECTOR",
            lambda key, attempt: "error" if key.startswith("fma3d") else None,
        )
        clear_cache()
        report = prewarm(
            [SimulationConfig.baseline()], Scale.QUICK, BENCHES, jobs=2, retries=1
        )
        assert report.executed == 1
        assert report.failed == 1
        assert report.executed + report.failed == len(BENCHES)


class TestPlatformFallbacks:
    def test_default_workers_explicit(self):
        assert default_workers(3) == 3

    def test_default_workers_survives_missing_cpu_count(self, monkeypatch):
        import multiprocessing

        def boom():
            raise NotImplementedError

        monkeypatch.setattr(multiprocessing, "cpu_count", boom)
        assert default_workers(0) == 2

    def test_context_fallback_order(self, monkeypatch):
        import multiprocessing

        calls = []
        real = multiprocessing.get_context

        def failing_fork(method=None):
            calls.append(method)
            if method == "fork":
                raise ValueError("fork unavailable")
            return real(method)

        monkeypatch.setattr(multiprocessing, "get_context", failing_fork)
        context = supervision_context()
        assert calls[0] == "fork"
        assert context is not None
        assert context.get_start_method() == "spawn"

    def test_context_env_forces_inprocess(self, monkeypatch):
        monkeypatch.setenv("REPRO_START_METHOD", "inprocess")
        assert supervision_context() is None

    def test_prewarm_inprocess_fallback(self, monkeypatch):
        """With no usable start method the campaign still completes."""
        monkeypatch.setenv("REPRO_START_METHOD", "inprocess")
        clear_cache()
        report = prewarm([SimulationConfig.baseline()], Scale.QUICK, BENCHES, jobs=2)
        assert report.executed == 2
        assert report.ok


class TestKilledCampaign:
    def test_sigkill_keeps_every_cell_reported_ok(self, tmp_path):
        """A pool campaign killed with SIGKILL after N ``: ok`` lines
        leaves at least N records: the parent checkpoints each result
        before it prints the cell as done."""
        store_dir = tmp_path / "store"
        env = dict(
            os.environ,
            PYTHONPATH=os.path.join(os.path.dirname(__file__), os.pardir, "src"),
        )
        for name in [k for k in env if k.startswith("REPRO_")]:
            del env[name]
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments.cli", "run", "fig1",
             "--scale", "quick", "--benchmarks", "swim", "mcf", "gcc", "ammp",
             "--jobs", "2", "--store-dir", str(store_dir)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env, start_new_session=True,
        )
        ok_lines = 0
        try:
            deadline = time.monotonic() + 120.0
            while ok_lines < 3 and time.monotonic() < deadline:
                line = proc.stdout.readline()
                if not line:
                    raise AssertionError("campaign exited before it could be killed")
                ok_lines += line.rstrip().endswith(": ok")
            assert ok_lines == 3, "campaign made no progress in time"
            os.killpg(proc.pid, signal.SIGKILL)
            proc.stdout.read()
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        status = subprocess.run(
            [sys.executable, "-m", "repro.experiments.cli", "store", "status",
             "--store-dir", str(store_dir)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env, check=True,
        ).stdout
        records = int(re.search(r"records:\s+(\d+)", status).group(1))
        assert records >= ok_lines, status
