"""Tests for the warm worker pool and workload-affinity scheduling.

These prove the pool acceptance paths: long-lived workers amortise
process startup across jobs; affinity keeps one benchmark's configs on
one worker; a worker killed mid-campaign loses only its in-flight job
(the worker is recycled, the job retried inside the pool with
continuous attempt numbering and its backoff honoured); and per-cell
results and store/resume behaviour match the in-process path.
"""

import os
import time

import pytest

from repro.sim import SimulationConfig, parallel, prewarm, simulate
from repro.sim import store as store_mod
from repro.sim.parallel import _affinity_order, _job_key
from repro.sim.resilience import (
    InvariantViolation,
    JobTimeout,
    RetryPolicy,
    SimulationError,
    StallTimeout,
    graceful_shutdown,
    run_supervised,
    set_fault_injector,
)
from repro.sim.runner import clear_cache
from repro.sim.store import ResultStore
from repro.workloads import Scale

BASE = SimulationConfig.baseline()
TCP = SimulationConfig.for_prefetcher("tcp-8k")
FAST_POLICY = RetryPolicy(retries=2, backoff_base=0.0)


_real_run_job = parallel._run_job


def _slow_job(job):
    time.sleep(4.0)
    return _real_run_job(job)


def _sleep_8s(job):
    time.sleep(8.0)
    return job


@pytest.fixture(autouse=True)
def _clean_state():
    clear_cache()
    yield
    clear_cache()
    set_fault_injector(None)
    store_mod.clear_active_store()


class TestAffinityOrder:
    def test_groups_are_contiguous(self):
        jobs = [
            ("gcc", BASE, 100), ("swim", BASE, 100),
            ("gcc", TCP, 100), ("swim", TCP, 100),
        ]
        ordered = _affinity_order(jobs)
        names = [job[0] for job in ordered]
        # each workload's jobs are adjacent
        assert sorted(set(names)) == ["gcc", "swim"]
        first_gcc = names.index("gcc")
        assert names[first_gcc : first_gcc + 2] == ["gcc", "gcc"]

    def test_expensive_group_first(self):
        # mcf (heavily memory-bound, low base IPC) must be scheduled
        # before eon (compute-bound) when group sizes are equal.
        jobs = [("eon", BASE, 100), ("mcf", BASE, 100),
                ("eon", TCP, 100), ("mcf", TCP, 100)]
        ordered = _affinity_order(jobs)
        assert [job[0] for job in ordered] == ["mcf", "mcf", "eon", "eon"]

    def test_larger_group_outranks_smaller_at_same_ipc(self):
        # swim and applu share base_ipc, so group size decides.
        jobs = [("swim", BASE, 100), ("applu", BASE, 100), ("applu", TCP, 100)]
        ordered = _affinity_order(jobs)
        assert [job[0] for job in ordered] == ["applu", "applu", "swim"]


class TestPoolSupervisor:
    """run_supervised's warm pool over trivial job functions."""

    def test_workers_are_reused_across_jobs(self):
        report = run_supervised(
            list(range(8)),
            lambda job: os.getpid(),
            workers=2,
            policy=FAST_POLICY,
            key=str,
        )
        assert report.ok
        assert len(set(report.completed.values())) <= 2  # 8 jobs, <= 2 pids

    def test_affinity_sticks_to_one_worker(self):
        # One worker drains groups in order: all of a, then all of b.
        order = []
        report = run_supervised(
            ["a1", "b1", "a2", "b2", "a3", "b3"],
            lambda job: job,
            workers=1,
            policy=FAST_POLICY,
            key=str,
            group=lambda job: job[0],
            progress=lambda done, total, key, status: order.append(key),
        )
        assert report.ok
        assert order == ["a1", "a2", "a3", "b1", "b2", "b3"]

    def test_crash_recycles_worker_and_retries_one_job(self):
        # The single worker dies on its first job with four undispatched
        # jobs behind it: a replacement *must* spawn to finish them.
        set_fault_injector(
            lambda key, attempt: "crash" if key == "0" and attempt == 1 else None
        )
        report = run_supervised(
            list(range(5)),
            lambda job: job * 10,
            workers=1,
            policy=FAST_POLICY,
            key=str,
        )
        assert report.ok, report.summary()
        assert report.completed == {str(i): i * 10 for i in range(5)}
        assert report.retried == 1  # only the in-flight job was charged
        assert report.recycled >= 1
        assert "recycled" in report.summary()

    def test_retry_attempt_numbering_is_continuous(self):
        # Every job crashes on absolute attempt 1 and only attempt 1.
        # If a requeued job restarted numbering at 1, it would crash
        # forever; continuous numbering (attempt 2) must succeed.
        set_fault_injector(lambda key, attempt: "crash" if attempt == 1 else None)
        report = run_supervised(
            list(range(4)),
            lambda job: job,
            workers=2,
            policy=FAST_POLICY,
            key=str,
        )
        assert report.ok, report.summary()
        assert report.retried == 4

    def test_exhausted_retries_fail_with_taxonomy_class(self):
        set_fault_injector(lambda key, attempt: "crash")
        report = run_supervised(
            ["only"],
            lambda job: job,
            workers=1,
            policy=RetryPolicy(retries=1, backoff_base=0.0),
            key=str,
        )
        assert report.failed == 1
        assert report.failures[0].error == "WorkerCrash"
        assert report.failures[0].attempts == 2  # first try + one retry

    def test_invariant_violation_is_not_retried(self):
        def violate(job):
            raise InvariantViolation("deterministic bug")

        report = run_supervised(
            ["x"], violate, workers=1, policy=FAST_POLICY, key=str,
        )
        assert report.failed == 1
        assert report.failures[0].error == "InvariantViolation"
        assert report.failures[0].attempts == 1
        assert report.retried == 0

    def test_timeout_kills_pooled_job_then_retry_succeeds(self):
        set_fault_injector(
            lambda key, attempt: "timeout" if attempt == 1 else None
        )
        report = run_supervised(
            ["slow"],
            lambda job: job,
            workers=1,
            policy=RetryPolicy(retries=1, timeout=0.5, backoff_base=0.0),
            key=str,
        )
        assert report.ok, report.summary()
        assert report.retried == 1
        assert report.recycled == 1  # the replacement runs the retry

    def test_retry_waits_out_its_backoff(self, tmp_path):
        # The job fails on attempt 1 and records when; attempt 2 returns
        # its own start time.  The gap must cover the backoff.
        marker = tmp_path / "first"

        def flaky(job):
            if not marker.exists():
                marker.write_text(repr(time.monotonic()))
                raise SimulationError("first attempt fails")
            return time.monotonic()

        policy = RetryPolicy(retries=2, backoff_base=0.5)
        report = run_supervised(["job"], flaky, workers=1, policy=policy, key=str)
        assert report.ok, report.summary()
        assert report.retried == 1
        gap = report.completed["job"] - float(marker.read_text())
        assert gap >= policy.backoff("job", 2)

    def test_watchdog_kill_is_not_swallowed_by_shutdown_handler(self):
        # Forked workers inherit graceful_shutdown's SIGTERM handler; the
        # watchdog must still reclaim overdue workers at once.
        started = time.monotonic()
        with graceful_shutdown():
            report = run_supervised(
                ["a", "b"],
                _sleep_8s,
                workers=2,
                policy=RetryPolicy(retries=0, timeout=0.5),
                key=str,
            )
        assert [f.error for f in report.failures] == ["JobTimeout", "JobTimeout"]
        assert time.monotonic() - started < 4.0

    def test_stall_watchdog_fires_in_pool_mode(self):
        set_fault_injector(lambda key, attempt: "stall")
        report = run_supervised(
            ["quiet"],
            lambda job: job,
            workers=1,
            policy=RetryPolicy(retries=0, stall_timeout=0.5, backoff_base=0.0),
            key=str,
        )
        assert report.failed == 1
        assert report.failures[0].error == StallTimeout.__name__
        assert "no heartbeat" in report.failures[0].message


class TestPoolCampaigns:
    """prewarm-level behaviour: equality with in-process, store parity."""

    BENCHES = ("fma3d", "eon")

    def _campaign(self, jobs, **kwargs):
        clear_cache()
        report = prewarm(
            [BASE, TCP], Scale.QUICK, self.BENCHES,
            jobs=jobs, trace_cache=False, **kwargs,
        )
        results = {
            _job_key((name, config, Scale.QUICK.accesses)): simulate(
                name, config, Scale.QUICK
            ).to_dict()
            for name in self.BENCHES
            for config in (BASE, TCP)
        }
        return report, results

    def test_pool_matches_in_process_per_cell(self):
        serial_report, serial_results = self._campaign(jobs=1)
        pool_report, pool_results = self._campaign(jobs=2)
        assert serial_report.ok and pool_report.ok
        assert serial_results == pool_results

    def test_pool_campaign_with_trace_cache(self, tmp_path):
        clear_cache()
        report = prewarm(
            [BASE], Scale.QUICK, ("fma3d",), jobs=2, trace_cache=str(tmp_path),
        )
        assert report.ok
        assert report.executed == 1
        cached = list(tmp_path.glob("fma3d-*.npz"))
        assert len(cached) == 1  # parent pre-wrote the trace once

    def test_custom_int_scale_campaign(self):
        clear_cache()
        report = prewarm([BASE], 5000, ("fma3d",), jobs=2, trace_cache=False)
        assert report.ok, report.summary()
        assert report.executed == 1

    def test_single_pending_cell_honours_timeout(self, monkeypatch):
        # One pending cell (a resumed campaign's last one) still runs on
        # the pool, so the wall-clock budget applies to it.
        monkeypatch.setattr(parallel, "_run_job", _slow_job)
        clear_cache()
        started = time.monotonic()
        report = prewarm(
            [BASE], Scale.QUICK, ("fma3d",), jobs=2, retries=0, timeout=0.5,
            trace_cache=False,
        )
        assert report.failed == 1
        assert report.failures[0].error == JobTimeout.__name__
        assert time.monotonic() - started < 4.0

    def test_killed_worker_store_resume_parity(self, tmp_path):
        """Acceptance: a mid-campaign kill loses only the in-flight job,
        the campaign completes, and a restarted campaign replays
        everything from the store."""
        store_dir = tmp_path / "store"
        crash_key = f"fma3d/base@{Scale.QUICK.accesses}"
        set_fault_injector(
            lambda key, attempt: "crash" if key == crash_key and attempt == 1 else None
        )
        clear_cache()
        with store_mod.use_store(ResultStore(store_dir)):
            report = prewarm(
                [BASE, TCP], Scale.QUICK, self.BENCHES, jobs=2, trace_cache=False,
            )
        assert report.ok, report.summary()
        assert report.retried == 1
        assert report.executed == 4
        assert len(ResultStore(store_dir)) == 4  # every result checkpointed

        # a restarted campaign replays everything from the store
        set_fault_injector(None)
        clear_cache()
        with store_mod.use_store(ResultStore(store_dir)):
            resumed = prewarm(
                [BASE, TCP], Scale.QUICK, self.BENCHES, jobs=2, trace_cache=False,
            )
        assert resumed.skipped == 4
        assert resumed.executed == 0
