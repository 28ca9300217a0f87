"""Parallel, fault-tolerant pre-warming of the simulation result cache.

A full-scale regeneration of the paper's evaluation is ~150 independent
(workload, configuration) simulations; they share nothing at runtime
except the result cache, so they parallelise embarrassingly.

``prewarm`` runs a batch of simulations under the
:mod:`repro.sim.resilience` supervisor — per-job timeouts, bounded
retries with backoff, crash isolation (one dead worker loses one
attempt, not the pool) — and installs the results into this process's
cache (:mod:`repro.sim.runner`) and, when one is active, the on-disk
store (:mod:`repro.sim.store`); afterwards the experiments replay from
cache at zero cost.  ``repro-tcp run`` passes :func:`prewarm_cells`
the cells its experiments declare; :func:`prewarm` crosses configs
with benchmarks.

Workers re-derive everything from the (workload name, config, scale)
key — traces come from the on-disk trace cache (mmap-shared between
fork children) or are regenerated deterministically per worker — so
nothing large crosses process boundaries except the finished
:class:`~repro.sim.results.SimResult` objects.  Jobs already present
in the cache or the store are skipped, which is what makes a
killed-then-restarted campaign resume instead of starting over.

With more than one worker, campaigns run on the supervisor's warm
pool with workload-affinity scheduling: pending jobs are grouped by
benchmark, groups are ordered longest-expected-first, and a pool
worker runs all configs of one benchmark against a single trace before
moving on.  ``jobs=1`` without a time limit runs them in this process.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import ExitStack
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.obs import metrics as obs_metrics
from repro.obs import profile as obs_profile
from repro.obs import spans as obs_spans
from repro.sim import store as store_mod
from repro.sim.config import SimulationConfig
from repro.sim.resilience import (
    CampaignReport,
    RetryPolicy,
    graceful_shutdown,
    run_supervised,
    shutdown_requested,
)
from repro.sim.results import SimResult, validate_result
from repro.sim.runner import _RESULT_CACHE, _warn_store_degraded, simulate
from repro.workloads import BENCHMARK_ORDER, SUITE, Scale, cache_trace
from repro.workloads import io as trace_io

__all__ = ["experiment_configs", "prewarm", "prewarm_cells"]

Cell = Tuple[str, SimulationConfig]
Job = Tuple[str, SimulationConfig, int]

#: buckets for per-job wall-clock histograms: 1 ms .. ~2.3 h.
_WALL_BUCKETS = tuple(0.001 * 2**i for i in range(24))


def _job_key(job: Job) -> str:
    """``workload/label@accesses``; a mix cell adds its config
    fingerprint, since a label ignores the core count and the mix.

    Without it a 1-core mix named after a benchmark (``--mix fma3d``)
    would share its key with that benchmark's solo cell.
    """
    workload, config, accesses = job
    key = f"{workload}/{config.resolved_label()}@{accesses}"
    if config.mix is not None:
        key += f"#{store_mod.config_fingerprint(config)}"
    return key


def _run_job(job: Job) -> SimResult:
    """Worker entry point: run one simulation, return its result.

    Runs uncached: the parent — not the worker — installs the result
    into the cache and the store.  The raw access count is passed
    straight through, so campaigns at custom scales (any positive
    count) work.
    """
    workload, config, accesses = job
    return simulate(workload, config, accesses, use_cache=False)


def _expected_cost(name: str, njobs: int) -> float:
    """Relative expected wall-clock for one benchmark's job group.

    Memory-bound benchmarks (low ``base_ipc``) drive far more hierarchy
    activity per access and therefore simulate slower, so expected cost
    scales with the group size over the benchmark's base IPC.  A mix
    cell (``"a+b+c"``) simulates every member stream, so its cost is
    the sum over its parts.
    """
    cost = 0.0
    for part in name.split("+"):
        spec = SUITE.get(part)
        ipc = spec.base_ipc if spec is not None else 4.0
        cost += 1.0 / ipc
    return njobs * cost


def _affinity_order(pending: Sequence[Job]) -> List[Job]:
    """Group jobs by workload, longest-expected group first.

    Contiguous groups give pool workers trace affinity (one generated
    trace serves every config of the benchmark); scheduling the most
    expensive groups first keeps a straggler group from serialising the
    campaign tail.
    """
    groups: Dict[str, List[Job]] = {}
    for job in pending:
        groups.setdefault(job[0], []).append(job)
    ordered = sorted(groups, key=lambda name: -_expected_cost(name, len(groups[name])))
    return [job for name in ordered for job in groups[name]]


def _silence_worker_store() -> None:
    """Child setup: workers must not write the store; the parent does."""
    store_mod.set_active_store(None)


def experiment_configs() -> List[SimulationConfig]:
    """The six standing configurations of Figs. 1, 11, 12 and 14.

    :func:`prewarm`'s default grid.  The experiments declare their own
    cells (Fig. 13's sweep points included) in
    :mod:`repro.experiments.registry`.
    """
    return [
        SimulationConfig.baseline(),
        SimulationConfig.ideal_l2(),
        SimulationConfig.for_prefetcher("tcp-8k"),
        SimulationConfig.for_prefetcher("tcp-8m"),
        SimulationConfig.for_prefetcher("dbcp-2m"),
        SimulationConfig.for_prefetcher("hybrid-8k"),
    ]


def prewarm(
    configs: Optional[Iterable[SimulationConfig]] = None,
    scale: Union[Scale, int] = Scale.STANDARD,
    benchmarks: Optional[Sequence[str]] = None,
    jobs: int = 0,
    retries: int = 2,
    timeout: Optional[float] = None,
    stall_timeout: Optional[float] = None,
    progress: Optional[Callable[[int, int, str, str], None]] = None,
    trace_cache: Union[None, bool, str] = None,
    hosts: Union[None, str, Sequence] = None,
    max_failures: Optional[int] = None,
) -> CampaignReport:
    """Fill the result cache for ``configs`` x ``benchmarks`` in parallel.

    Defaults: :func:`experiment_configs` over the whole suite.  A mix
    config is one cell named "a+b+c", never crossed with ``benchmarks``.
    The rest is :func:`prewarm_cells`.
    """
    names = tuple(benchmarks) if benchmarks is not None else BENCHMARK_ORDER
    cells = [
        (name, config)
        for config in (configs if configs is not None else experiment_configs())
        for name in (["+".join(config.mix)] if config.mix is not None else names)
    ]
    return prewarm_cells(
        cells, scale, jobs, retries, timeout, stall_timeout,
        progress, trace_cache, hosts, max_failures,
    )


def prewarm_cells(
    cells: Iterable[Cell],
    scale: Union[Scale, int] = Scale.STANDARD,
    jobs: int = 0,
    retries: int = 2,
    timeout: Optional[float] = None,
    stall_timeout: Optional[float] = None,
    progress: Optional[Callable[[int, int, str, str], None]] = None,
    trace_cache: Union[None, bool, str] = None,
    hosts: Union[None, str, Sequence] = None,
    max_failures: Optional[int] = None,
) -> CampaignReport:
    """Fill the result cache for ``cells``, distinct (workload, config) pairs.

    ``scale`` is a :class:`~repro.workloads.Scale` preset or a raw
    positive access count.  ``jobs``: pool workers (0 = cpu count).
    Each job gets up to ``retries`` extra attempts and, with
    ``timeout``, a per-attempt wall-clock budget in seconds.
    ``stall_timeout`` arms the heartbeat watchdog instead: an attempt
    is killed only when it emits no progress heartbeat for that many
    seconds, so a slow-but-progressing job is never lost to a
    wall-clock guess.  ``jobs=1`` runs the cells serially in this
    process, each checkpointed as it lands, unless one of those limits
    needs a worker to kill or ``hosts`` is set: then one worker slot
    runs them.

    ``trace_cache`` controls the on-disk trace cache: ``None`` honours
    ``REPRO_TRACE_CACHE`` and defaults to a directory next to the
    result store, ``False`` disables it, a path uses that directory.
    When enabled, the parent writes each pending benchmark's trace once
    before workers start, so fork-mode children share the generated
    pages and spawn-mode children mmap the same archive instead of
    regenerating.  An in-process campaign does without it.

    Returns a :class:`~repro.sim.resilience.CampaignReport`:
    ``report.executed`` counts *successful* simulations, failed jobs
    are listed in ``report.failures`` (they are never silently counted
    as executed), and entries satisfied from the cache or the
    persistent store are in ``report.skipped``.

    When a store is active, worker heartbeats additionally leave coarse
    mid-run checkpoint markers (``progress.jsonl``) so a preempted long
    job reports how far it got; a job's marker is dropped once its
    result is checkpointed for real.

    ``hosts`` shards the campaign across a fleet instead of local
    workers: a :func:`repro.sim.fabric.parse_hosts` spec string (e.g.
    ``"local:2"`` or ``"ssh:node-a:4,node-b"``) or a prepared
    ``HostSpec`` sequence.  Each host runs an agent process, writes its
    finished results to its own store shard, and the fabric coordinator
    reassigns a lost host's work to the survivors; when every host is
    unreachable, the leftover jobs fall back to the local supervisor
    and the report carries ``fleet_degraded``.  Shards (including those
    of a previous crashed coordinator) are merged into the main log
    before the pending scan, so ``--resume`` is fleet-wide.

    ``max_failures`` aborts the campaign (``report.aborted``) once that
    many jobs have permanently failed, instead of draining the sweep.
    SIGTERM/SIGINT similarly stop the campaign at the next job boundary
    with ``report.interrupted`` set, after checkpointing what finished.
    """
    accesses = scale.accesses if isinstance(scale, Scale) else int(scale)
    if accesses <= 0:
        raise ValueError(f"scale must be positive, got {accesses}")
    store = store_mod.active_store()
    if store is not None:
        # Fold in any host shards left by an earlier fleet run whose
        # coordinator died before merging: fleet-wide resume means the
        # pending scan below must see every result any host finished.
        store_mod.merge_shards(store)

    host_specs = None
    if hosts is not None:
        from repro.sim import fabric as fabric_mod

        host_specs = fabric_mod.parse_hosts(hosts) if isinstance(hosts, str) else list(hosts)

    report = CampaignReport()
    pending: List[Job] = []
    for name, config in cells:
        key = (name, accesses, config)
        if key in _RESULT_CACHE:
            report.skipped += 1
            continue
        if store is not None:
            stored = store.get(name, accesses, config)
            if stored is not None:
                _RESULT_CACHE[key] = stored
                report.skipped += 1
                continue
        pending.append((name, config, accesses))
    if not pending:
        if store is not None:
            report.store_health = store.health()
        return report
    pending = _affinity_order(pending)

    by_key = {_job_key(job): job for job in pending}
    installed: set = set()

    def install(job_key: str, result: SimResult) -> None:
        # Into the in-process cache and the store as the result
        # arrives, before the campaign counts or prints it: a killed
        # campaign keeps every cell it reported done.
        workload, config, n_accesses = by_key[job_key]
        with obs_spans.span("install", key=job_key):
            _RESULT_CACHE[(workload, n_accesses, config)] = result
            if store is not None:
                store.put(workload, n_accesses, config, result)
                if store.degraded:
                    _warn_store_degraded(store)
        installed.add(job_key)

    heartbeat = None
    if store is not None:
        # Fold worker heartbeats into coarse checkpoint markers: write
        # only when a job advances >= 10% since its last marker, so a
        # chatty worker cannot turn progress.jsonl into a firehose.
        marked: dict = {}

        def heartbeat(job_key: str, done: int, total: int, sim_time: float) -> None:
            if total <= 0 or job_key not in by_key:
                return
            last = marked.get(job_key, 0)
            # A shutdown is in flight: every beat is the potential last
            # word on this job, so bypass the 10% write damping.
            if done - last < total // 10 + 1 and not shutdown_requested():
                return
            marked[job_key] = done
            workload, config, accesses = by_key[job_key]
            store.put_progress(workload, accesses, config, done, total, sim_time)

    policy = RetryPolicy(
        retries=retries,
        timeout=timeout,
        stall_timeout=stall_timeout,
        max_failures=max_failures,
    )
    # One job slot, no time limit needing a worker to kill, no fleet: run
    # in this process, which has no other process to share traces with.
    in_process = not host_specs and (jobs, timeout, stall_timeout) == (1, None, None)
    cache_root = None if in_process else trace_io.resolve_trace_cache(trace_cache)

    # Campaign observability (REPRO_OBS): one registry aggregates the
    # parent's counters and every worker's forwarded snapshot; one
    # collector merges all workers' span streams into a single trace.
    obs = obs_metrics.resolve_obs()
    registry = obs_metrics.active_registry() if obs.metrics else None
    owns_registry = False
    if obs.metrics and registry is None:
        registry = obs_metrics.MetricsRegistry()
        owns_registry = True
    outer_sink = obs_spans.span_sink()
    collector = obs_spans.TraceCollector() if obs.trace and outer_sink is None else None
    campaign_root: List[Optional[str]] = [None]

    span_cb: Optional[Callable[[Dict[str, object]], None]] = None
    if collector is not None or outer_sink is not None or registry is not None:

        def span_cb(event: Dict[str, object]) -> None:
            # Worker span streams restart their parent chains at None
            # (each worker's stack is its own); re-root them under the
            # campaign span so the merged trace is one tree and the
            # per-stage breakdown never counts the root as a leaf.
            if (
                campaign_root[0] is not None
                and event.get("ev") == "begin"
                and event.get("parent") is None
            ):
                event = dict(event, parent=campaign_root[0])
            if collector is not None:
                collector.add(event)
            elif outer_sink is not None:
                outer_sink(event)
            if registry is None:
                return
            kind = event.get("ev")
            if kind == "metrics":
                # A worker run's end-of-job snapshot: fold it in.
                registry.merge(event.get("metrics", {}))
            elif kind == "end" and event.get("name") == "attempt":
                registry.histogram(
                    "campaign.job_wall_s", buckets=_WALL_BUCKETS
                ).observe(float(event.get("dur", 0.0)))

    if registry is not None:
        caller_progress = progress

        def progress(done: int, total: int, job_key: str, status: str) -> None:
            registry.gauge("campaign.queue_depth").set(total - done)
            if caller_progress is not None:
                caller_progress(done, total, job_key, status)

    with ExitStack() as stack:
        if obs_profile.profile_mode() is not None and not os.environ.get(
            obs_profile.PROFILE_DIR_ENV
        ):
            # Pin the parent's store-relative profile directory for the
            # workers, whose own store view is silenced (see
            # obs_profile.profile_dir); fork and spawn children both
            # inherit the environment.
            stack.callback(os.environ.pop, obs_profile.PROFILE_DIR_ENV, None)
            os.environ[obs_profile.PROFILE_DIR_ENV] = str(obs_profile.profile_dir())
        if registry is not None:
            stack.enter_context(obs_metrics.use_registry(registry))
        if collector is not None:
            # The parent's own spans route through span_cb too, so the
            # in-process fallback records the same per-job histograms
            # the multiprocessing path gets from forwarded events.
            stack.enter_context(obs_spans.use_span_sink(span_cb))
            root = stack.enter_context(
                obs_spans.span("campaign", jobs=len(pending), scale=accesses)
            )
            campaign_root[0] = root.span_id
        stack.enter_context(trace_io.trace_cache_scope(cache_root))
        if cache_root is not None:
            # Write each distinct trace once in the parent: fork-mode
            # children inherit the generated pages, spawn-mode children
            # mmap the archive instead of regenerating it per attempt.
            with obs_spans.span("trace-precache", scale=accesses):
                parts = (
                    part for job in pending for part in job[0].split("+")
                )
                for name in dict.fromkeys(parts):
                    cache_trace(name, accesses)
        # One signal interrupts cleanly (checkpoint, reap workers, exit
        # 130 upstream); a second of the same kind is immediately fatal.
        stack.enter_context(graceful_shutdown())

        def _local_run(
            batch: List[Job], settled: int = 0
        ) -> CampaignReport:
            local_progress = progress
            if settled and progress is not None:

                def local_progress(done: int, _total: int, k: str, s: str) -> None:
                    progress(settled + done, len(pending), k, s)

            return run_supervised(
                batch,
                _run_job,
                workers=jobs,
                policy=policy,
                key=_job_key,
                validate=validate_result,
                progress=local_progress,
                heartbeat=heartbeat,
                child_setup=_silence_worker_store,
                in_process=in_process,
                group=lambda job: job[0],
                span=span_cb,
                on_result=install,
            )

        if host_specs:
            from repro.sim import fabric as fabric_mod

            report.merge(
                fabric_mod.run_fleet(
                    pending,
                    hosts=host_specs,
                    key=_job_key,
                    store_root=store.root if store is not None else None,
                    policy=policy,
                    group=lambda job: job[0],
                    progress=progress,
                    heartbeat=heartbeat,
                    span=span_cb,
                    fallback=_local_run,
                )
            )
        else:
            report.merge(_local_run(pending))

        # Fleet agents checkpointed their results in host shards; the
        # local runs installed theirs as they arrived.
        for job_key, result in report.completed.items():
            if job_key not in installed:
                install(job_key, result)
        if store is not None and host_specs:
            # Fold the fleet's host shards into the main log (deduped by
            # config fingerprint; the main log wins ties) and drop them.
            store_mod.merge_shards(store)
        if store is not None and report.ok and not report.interrupted and report.aborted is None:
            store.clear_progress()  # campaign finished; markers are stale
        if store is not None:
            report.store_health = store.health()

        if registry is not None:
            counter = registry.counter
            counter("campaign.jobs").inc(len(pending))
            counter("campaign.completed").inc(report.executed)
            counter("campaign.failed").inc(report.failed)
            counter("campaign.skipped").inc(report.skipped)
            counter("campaign.retried").inc(report.retried)
            counter("campaign.recycled").inc(report.recycled)
            if report.hosts_lost:
                counter("campaign.hosts_lost").inc(report.hosts_lost)
            if report.reassigned:
                counter("campaign.reassigned").inc(report.reassigned)
            if store is not None and store.degraded:
                counter("campaign.store_degraded").inc()

    if collector is not None:
        if registry is not None:
            # Final campaign snapshot rides in the trace, added directly
            # (not via span_cb, which would merge it back into itself).
            collector.add(
                {
                    "schema": obs_spans.SCHEMA,
                    "ev": "metrics",
                    "name": "campaign",
                    "t": time.time(),
                    "pid": os.getpid(),
                    "metrics": registry.to_dict(),
                }
            )
        # Safety sweep: the supervisor already closed spans of dead
        # workers; anything still open here is closed as aborted rather
        # than written dangling.
        collector.close_aborted()
        stamp = f"{os.getpid()}-{time.time_ns()}"
        path = collector.write(
            store_mod.default_obs_dir() / f"trace-campaign-{stamp}.jsonl"
        )
        report.trace_path = str(path)
    elif owns_registry and outer_sink is None:
        # Metrics without tracing: the aggregated snapshot would vanish
        # with this registry, so persist it standalone.
        stamp = f"{os.getpid()}-{time.time_ns()}"
        path = store_mod.default_obs_dir() / f"metrics-campaign-{stamp}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            json.dump(registry.to_dict(), handle, indent=2)
            handle.write("\n")
    if obs_profile.profile_mode() is not None:
        report.profile_dir = str(obs_profile.profile_dir())
    return report
