"""Graceful shutdown, fail-fast, and orphan hygiene.

The contract under test: one SIGTERM/SIGINT stops a campaign at the
next job boundary (or mid-simulation via the progress probe), live
workers are reaped — never orphaned — completed results are
checkpointed, the CLI exits 130, and a subsequent ``--resume`` loses
nothing.  ``--max-failures`` aborts a draining sweep early instead.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.sim import SimulationConfig, prewarm
from repro.sim import store as store_mod
from repro.sim.resilience import (
    CampaignInterrupted,
    RetryPolicy,
    SimulationError,
    clear_shutdown,
    graceful_shutdown,
    is_retryable,
    request_shutdown,
    run_supervised,
    set_fault_injector,
    shutdown_requested,
    shutdown_signal,
    shutdown_watch_active,
)
from repro.sim.runner import clear_cache, simulate
from repro.sim.store import ResultStore
from repro.workloads import Scale

BASE = SimulationConfig.baseline()
QUICK = Scale.QUICK.accesses
CLI = [sys.executable, "-m", "repro.experiments.cli"]


@pytest.fixture(autouse=True)
def _clean_state():
    clear_shutdown()
    clear_cache()
    yield
    clear_shutdown()
    clear_cache()
    set_fault_injector(None)
    store_mod.clear_active_store()


def _ok_job(job):
    return f"ran-{job}"


def _failing_job(job):
    raise SimulationError(f"boom {job}")


class TestShutdownLatch:
    def test_request_and_clear(self):
        assert not shutdown_requested()
        request_shutdown(signal.SIGTERM)
        assert shutdown_requested()
        assert shutdown_signal() == signal.SIGTERM
        clear_shutdown()
        assert not shutdown_requested()
        assert shutdown_signal() is None

    def test_graceful_shutdown_latches_a_real_signal(self):
        with graceful_shutdown():
            assert shutdown_watch_active()
            os.kill(os.getpid(), signal.SIGTERM)
            # The handler latches instead of killing the process.
            deadline = time.monotonic() + 5.0
            while not shutdown_requested() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert shutdown_requested()
            assert shutdown_signal() == signal.SIGTERM
        assert not shutdown_watch_active()
        # Handlers restored: default disposition would now be fatal,
        # so just check the latch survives the context exit.
        assert shutdown_requested()

    def test_campaign_interrupted_is_not_retryable(self):
        assert not is_retryable(CampaignInterrupted("stop"))


class TestInterruptedSupervision:
    def test_pre_latched_shutdown_runs_nothing(self):
        request_shutdown()
        report = run_supervised(
            ["a", "b"], _ok_job, policy=RetryPolicy(retries=0),
            key=str, in_process=True,
        )
        assert report.interrupted
        assert report.executed == 0 and report.failed == 0

    def test_shutdown_between_jobs_keeps_finished_work(self):
        def progress(done, total, key, status):
            request_shutdown()  # first completion pulls the plug

        report = run_supervised(
            ["a", "b", "c"], _ok_job, policy=RetryPolicy(retries=0),
            key=str, in_process=True, progress=progress,
        )
        assert report.interrupted
        assert report.executed == 1  # 'a' finished and is kept
        assert report.failed == 0  # an interrupt is not a failure

    def test_shutdown_watch_aborts_a_simulation_mid_run(self):
        with graceful_shutdown():
            request_shutdown()
            with pytest.raises(CampaignInterrupted):
                simulate("swim", BASE, QUICK, use_cache=False)

    def test_summary_names_the_interruption(self):
        request_shutdown()
        report = run_supervised(
            ["a"], _ok_job, policy=RetryPolicy(retries=0),
            key=str, in_process=True,
        )
        assert "INTERRUPTED" in report.summary()


class TestMaxFailures:
    def test_policy_validates(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_failures=0)
        assert RetryPolicy(max_failures=3).max_failures == 3

    def test_in_process_aborts_at_the_limit(self):
        report = run_supervised(
            list("abcdef"), _failing_job,
            policy=RetryPolicy(retries=0, max_failures=2),
            key=str, in_process=True,
        )
        assert report.aborted is not None
        assert report.failed == 2  # stopped there, didn't drain all six
        assert "max-failures=2" in report.aborted
        assert "ABORTED" in report.summary()

    def test_attempt_mode_aborts_at_the_limit(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_KIND", "error")
        monkeypatch.setenv("REPRO_FAULT_RATE", "1.0")
        report = run_supervised(
            list("abcdef"), _ok_job,
            policy=RetryPolicy(retries=0, backoff_base=0.0, max_failures=2),
            key=str, workers=2,
        )
        assert report.aborted is not None
        assert report.failed >= 2 and report.failed < 6


def _start_campaign(store_dir):
    """Launch a quick-scale CLI campaign in its own process group."""
    env = dict(os.environ, PYTHONPATH=str(
        os.path.join(os.path.dirname(__file__), os.pardir, "src")
    ))
    env.pop("REPRO_FAULT_KIND", None)
    env.pop("REPRO_FAULT_RATE", None)
    env.pop("REPRO_HOSTS", None)
    return subprocess.Popen(
        CLI + [
            "run", "fig1", "--scale", "quick",
            "--benchmarks", "swim", "mcf", "gcc", "ammp",
            "--jobs", "2", "--store-dir", str(store_dir),
        ],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env, start_new_session=True,
    )


def _wait_for_progress(proc, completions=2, timeout=120.0):
    """Read CLI output until `completions` jobs have finished."""
    seen = 0
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise AssertionError("campaign ended before it could be signalled")
        if ": ok" in line:
            seen += 1
            if seen >= completions:
                return
    raise AssertionError("campaign made no progress before the timeout")


class TestOrphanHygiene:
    def test_sigterm_leaves_no_orphans_and_resume_loses_nothing(self, tmp_path):
        store_dir = tmp_path / "store"
        proc = _start_campaign(store_dir)
        try:
            _wait_for_progress(proc)
            os.kill(proc.pid, signal.SIGTERM)
            proc.stdout.read()  # drain so the child never blocks on write
            assert proc.wait(timeout=120) == 130
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()

        # No surviving child processes: the whole group must be gone.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.1)
        else:
            os.killpg(proc.pid, signal.SIGKILL)
            raise AssertionError("orphaned workers survived SIGTERM")

        # Completed results were checkpointed and verify clean.
        store = ResultStore(store_dir)
        checkpointed = len(store)
        assert checkpointed >= 1
        verdict = store.verify()
        assert not verdict["bad"]

        # Resume re-runs only what's missing: nothing completed is lost.
        clear_cache()
        with store_mod.use_store(ResultStore(store_dir)):
            report = prewarm(
                scale=Scale.QUICK,
                benchmarks=["swim", "mcf", "gcc", "ammp"],
                jobs=1,
            )
        assert report.ok
        assert report.skipped == checkpointed
