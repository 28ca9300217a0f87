"""The simulate() entry point.

One call = one cold machine + one workload + one prefetcher, run to
completion.  A process-level result cache keyed by (workload, scale,
configuration) lets experiments share runs — Figure 11, Figure 12 and
the headline numbers all reuse the same TCP-8K runs, exactly as one
simulation campaign would.

Below the in-process cache sits the optional persistent tier
(:mod:`repro.sim.store`): when a store is active, ``simulate()`` reads
through it (validated hits are installed into the process cache) and
writes every fresh result through to disk, so a killed campaign
resumes from its checkpoints instead of starting over.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from contextlib import ExitStack
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.backend import resolve_backend
from repro.engine.probes import MetricsProbe, Probe, ProgressProbe, SanitizerProbe
from repro.memory import MemoryHierarchy
from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans
from repro.prefetchers import Prefetcher
from repro.sim import resilience, sanitizer as sanitizer_mod
from repro.sim.config import SimulationConfig
from repro.sim.results import SimResult, SuiteResult
from repro.workloads import BENCHMARK_ORDER, Scale, Trace, generate

__all__ = ["build_probes", "clear_cache", "simulate", "simulate_suite"]

_RESULT_CACHE: Dict[Tuple[str, int, SimulationConfig], SimResult] = {}


def clear_cache() -> None:
    """Drop all memoised simulation results (tests use this).

    Only the in-process tier is cleared; an active on-disk store keeps
    its checkpoints (use :meth:`repro.sim.store.ResultStore.clear` for
    those).
    """
    _RESULT_CACHE.clear()


#: fraction of each trace used to warm caches/predictors before
#: measurement starts (the analogue of the paper's 1B skipped
#: instructions before its 2B measured ones).
WARMUP_FRACTION = 0.25

#: store roots already reported as degraded (warn once, not per put).
_DEGRADED_WARNED: Set[str] = set()


def _warn_store_degraded(store) -> None:
    root = str(store.root)
    if root in _DEGRADED_WARNED:
        return
    _DEGRADED_WARNED.add(root)
    warnings.warn(
        f"result store at {root} degraded to in-memory-only "
        f"({store.degraded_reason}); results from this point on are not "
        f"persisted and a resumed campaign will re-run them",
        RuntimeWarning,
        stacklevel=3,
    )


def build_probes(
    config: SimulationConfig,
    hierarchy: MemoryHierarchy,
    prefetcher: Prefetcher,
    warmup: int,
    lead: bool = True,
) -> List[Probe]:
    """The observation probes of one simulated core, in firing order.

    Order is a contract, "progress before checks": the heartbeat /
    fault-injection / shutdown :class:`ProgressProbe` first, so a
    scheduled corruption lands before the checks at the same mark; the
    :class:`MetricsProbe` next; the :class:`SanitizerProbe` last.
    Only the ``lead`` core gets the progress probe and consumes the
    scheduled corruption — a mix passes ``lead=False`` for every core
    after core 0, whose progress stands for the whole mix.
    """
    probes: List[Probe] = []
    corruption = sanitizer_mod.consume_scheduled_corruption() if lead else None
    if lead and (
        resilience.heartbeat_active()
        or corruption is not None
        or resilience.shutdown_watch_active()
    ):
        pending = [corruption]

        def progress(done: int, total: int, sim_time: float) -> None:
            if pending[0] is not None and done > warmup:
                # Apply the injected corruption only after the warmup
                # snapshot: a stats drift applied earlier would be
                # cancelled by the snapshot subtraction and become
                # undetectable in the measured result.
                kind, pending[0] = pending[0], None
                sanitizer_mod.corrupt_state(hierarchy, prefetcher, kind)
            if resilience.shutdown_requested():
                # Only the campaign parent runs with a shutdown watch
                # installed (workers are reaped by their supervisor):
                # abandon the in-flight simulation at the next progress
                # mark so a SIGTERM'd in-process campaign stops promptly.
                raise resilience.CampaignInterrupted(
                    "graceful shutdown requested mid-simulation"
                )
            resilience.emit_heartbeat(done, total, sim_time)

        probes.append(ProgressProbe(progress))
    registry = obs_metrics.active_registry()
    if registry is not None:
        # Strictly read-only observation (see MetricsProbe): attaching
        # it changes mark cadence at most, never simulated state — the
        # enabled-vs-disabled differential test enforces bit-identical
        # results.
        probes.append(MetricsProbe(registry))
    sanitizer = sanitizer_mod.build_sanitizer(config.sanitize)
    if sanitizer is not None:
        probes.append(SanitizerProbe(sanitizer))
    return probes


def _execute(
    trace: Trace, config: SimulationConfig, warmup_fraction: float
) -> SimResult:
    """Run one cold machine over one trace (the uncached core of
    :func:`simulate`; tests monkeypatch this to count real runs)."""
    hierarchy = MemoryHierarchy(config.hierarchy)
    prefetcher = config.build_prefetcher()
    hierarchy.attach_prefetcher(prefetcher)
    # Backend selection: config field -> REPRO_BACKEND -> "python".
    # All backends are bit-identical by contract, so the choice never
    # appears in result fingerprints (see SimulationConfig.backend).
    backend = resolve_backend(config.backend)
    warmup = int(len(trace) * warmup_fraction)

    probes = build_probes(config, hierarchy, prefetcher, warmup)
    core_result = backend.run(
        trace, hierarchy, config.core, warmup=warmup, probes=probes
    )
    hierarchy.finalize()
    for probe in probes:
        probe.on_finalize(hierarchy)

    result = SimResult(
        workload=trace.name,
        config_label=config.resolved_label(),
        core=core_result,
        memory=hierarchy.measured_stats(),
        prefetcher_name=prefetcher.name,
        prefetcher_storage_bytes=prefetcher.storage_bytes(),
        prefetcher_predictions=prefetcher.stats.predictions,
    )
    engine_stats = getattr(backend, "last_engine_stats", None) or {}
    result.backend_fallback = engine_stats.get("fallback")
    return result


def _obs_scope(stack: ExitStack):
    """Install per-run observability per ``REPRO_OBS`` (on ``stack``).

    Returns ``(registry, owns_registry, collector)``:

    * ``registry`` — the metrics registry hooks record into for this
      run: an already-active one (a campaign parent's), or a fresh one
      installed for the run when ``REPRO_OBS`` enables metrics, else
      ``None``.
    * ``owns_registry`` — whether this run created the registry (and
      should surface its snapshot itself).
    * ``collector`` — a :class:`~repro.obs.spans.TraceCollector`
      installed as the span sink when tracing is enabled and no sink is
      already active (campaign workers already have the pipe-forwarding
      sink; standalone runs get a per-run trace file).
    """
    mode = obs_metrics.resolve_obs()
    registry = obs_metrics.active_registry()
    owns_registry = False
    if mode.metrics and registry is None:
        registry = obs_metrics.MetricsRegistry()
        stack.enter_context(obs_metrics.use_registry(registry))
        owns_registry = True
    collector = None
    if mode.trace and obs_spans.span_sink() is None:
        collector = obs_spans.TraceCollector()
        stack.enter_context(obs_spans.use_span_sink(collector.sink))
    return registry, owns_registry, collector


def _flush_obs(name, label, owned_registry, collector) -> None:
    """Write per-run observability artifacts for a standalone run.

    No-op in campaign workers: their events already rode the pipe sink
    to the parent (``collector`` is None there and the metrics snapshot
    was emitted into the span stream).
    """
    from repro.sim import store as store_mod

    stamp = f"{os.getpid()}-{time.time_ns()}"
    if collector is not None and collector.events:
        collector.write(
            store_mod.default_obs_dir() / f"trace-{name}-{label}-{stamp}.jsonl"
        )
    if (
        owned_registry is not None
        and collector is None
        and obs_spans.span_sink() is None
    ):
        path = store_mod.default_obs_dir() / f"metrics-{name}-{label}-{stamp}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            json.dump(owned_registry.to_dict(), handle, indent=2)
            handle.write("\n")


def simulate(
    workload: Union[str, Trace],
    config: Optional[SimulationConfig] = None,
    scale: Union[Scale, int] = Scale.STANDARD,
    use_cache: bool = True,
    warmup_fraction: float = WARMUP_FRACTION,
) -> SimResult:
    """Run one workload under one configuration; return its result.

    ``workload`` may be a suite benchmark name (generated at ``scale``)
    or a prebuilt :class:`Trace`.  ``scale`` is a :class:`Scale` preset
    or a raw positive access count; it only applies to *named*
    workloads — a prebuilt :class:`Trace` fixes its own length, so
    combining one with a non-default ``scale`` raises ``ValueError``
    (slice the trace instead of passing a scale).  Results for named
    workloads are memoised per process — and, when a persistent store
    is active (:func:`repro.sim.store.active_store`), checkpointed to
    disk and resumed from it — unless ``use_cache=False``.  The first
    ``warmup_fraction`` of the trace trains state without being counted.
    """
    from repro.sim import store as store_mod

    config = config or SimulationConfig.baseline()
    if not 0 <= warmup_fraction < 1:
        raise ValueError(f"warmup fraction must be in [0, 1), got {warmup_fraction}")

    if config.mix is not None:
        # A mix cell is keyed by its canonical name ("a+b+c") so two
        # spellings of the same combination share checkpoints; the
        # workload argument must agree with the config's mix.
        canonical = "+".join(config.mix)
        if not isinstance(workload, str):
            raise ValueError(
                "a mix configuration takes the canonical mix name "
                f"({canonical!r}), not a prebuilt Trace"
            )
        if workload != canonical:
            raise ValueError(
                f"workload {workload!r} does not match the configuration's "
                f"mix cell {canonical!r}"
            )

    store = None
    accesses = None
    if isinstance(workload, str):
        accesses = scale.accesses if isinstance(scale, Scale) else int(scale)
        if accesses <= 0:
            raise ValueError(f"scale must be positive, got {accesses}")
        key = (workload, accesses, config)
        if use_cache:
            if key in _RESULT_CACHE:
                return _RESULT_CACHE[key]
            store = store_mod.active_store()
            if store is not None:
                stored = store.get(workload, accesses, config)
                if stored is not None:
                    _RESULT_CACHE[key] = stored
                    return stored
    else:
        if scale is not Scale.STANDARD:
            raise ValueError(
                "scale does not apply to a prebuilt Trace (its length is "
                "fixed at construction); slice the trace to the length "
                "you want instead of passing a scale"
            )
        key = None

    name = workload if isinstance(workload, str) else workload.name
    label = config.resolved_label()
    with ExitStack() as stack:
        registry, owns_registry, collector = _obs_scope(stack)
        if config.mix is not None:
            # Multicore front end: per-core traces are generated inside
            # execute_mix (one per mix member, relocated per core).
            from repro.multicore.runner import execute_mix

            with obs_spans.span("simulate", workload=name, config=label):
                result = execute_mix(config, accesses, warmup_fraction)
        else:
            if isinstance(workload, str):
                with obs_spans.span("generate", workload=name, accesses=accesses):
                    trace = generate(workload, accesses)
            else:
                trace = workload
            with obs_spans.span("simulate", workload=name, config=label):
                result = _execute(trace, config, warmup_fraction)
        if key is not None and use_cache:
            # Validate BEFORE caching or checkpointing: a silently-wrong
            # result must never poison the cache or the on-disk store.
            try:
                result.validate()
            except ValueError as exc:
                raise resilience.CorruptResult(f"{key[0]}: {exc}") from exc
            _RESULT_CACHE[key] = result
            if store is not None:
                with obs_spans.span("store", workload=name, config=label):
                    store.put(key[0], key[1], config, result)
                if store.degraded:
                    _warn_store_degraded(store)
        if registry is not None and owns_registry:
            # Only a run that built its own registry ships the snapshot
            # into the span stream; a campaign-owned registry is shared
            # across runs, and re-emitting its cumulative totals per run
            # would double-count when the campaign folds events back in.
            obs_spans.emit_metrics(f"run:{name}/{label}", registry.to_dict())
    _flush_obs(name, label, registry if owns_registry else None, collector)
    return result


def simulate_suite(
    config: Optional[SimulationConfig] = None,
    scale: Union[Scale, int] = Scale.STANDARD,
    benchmarks: Optional[Tuple[str, ...]] = None,
) -> SuiteResult:
    """Run one configuration over the whole suite (Figure 1 order)."""
    config = config or SimulationConfig.baseline()
    names = benchmarks if benchmarks is not None else BENCHMARK_ORDER
    runs = {name: simulate(name, config, scale) for name in names}
    return SuiteResult(config.resolved_label(), runs)
