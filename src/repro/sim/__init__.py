"""The simulation driver: wiring workloads, core, hierarchy, prefetchers.

:func:`repro.sim.runner.simulate` is the single entry point every
example, test, and experiment uses: give it a workload name (or a
:class:`~repro.workloads.trace.Trace`), a prefetcher factory, and a
machine configuration; it returns a :class:`repro.sim.results.SimResult`
with IPC, miss rates, the Figure 12 L2-access taxonomy, and prefetcher
statistics.  :mod:`repro.sim.sweep` runs labelled configuration
matrices over the suite with a process-level result cache (experiments
share baseline runs).

Campaign fault tolerance lives in three modules:
:mod:`repro.sim.store` is the persistent checkpoint tier below the
in-process cache (validated, schema-versioned, config-hash keyed),
:mod:`repro.sim.resilience` supervises parallel campaigns — crash
isolation, per-job timeouts, bounded retries, structured error
taxonomy, graceful shutdown, and a deterministic fault injector for
testing — and :mod:`repro.sim.fabric` shards a campaign across hosts,
surviving lost, partitioned, or slow ones.
"""

from repro.sim.config import PREFETCHERS, SimulationConfig, prefetcher_factory
from repro.sim.parallel import experiment_configs, prewarm
from repro.sim.resilience import (
    CampaignInterrupted,
    CampaignReport,
    CorruptResult,
    FleetDegraded,
    HostLost,
    HostPartition,
    InvariantViolation,
    JobFailure,
    JobTimeout,
    RetryPolicy,
    SimulationError,
    StallTimeout,
    StoreDegraded,
    WorkerCrash,
)
from repro.sim.results import SimResult, SuiteResult, validate_result
from repro.sim.runner import simulate, simulate_suite
from repro.sim.sanitizer import Sanitizer, build_sanitizer, sanitize_level
from repro.sim.store import ResultStore, active_store, set_active_store, use_store
from repro.sim.sweep import Sweep, improvement_table


def __getattr__(name):
    # Lazy re-exports: fabric must stay importable as ``python -m
    # repro.sim.fabric`` (the agent entry point) without tripping
    # runpy's already-in-sys.modules warning, so the package does not
    # import it eagerly.  The multicore names live in repro.multicore
    # (which imports this package), so they are lazy for the same
    # cycle-avoidance reason.
    if name in ("HostSpec", "parse_hosts"):
        from repro.sim import fabric

        return getattr(fabric, name)
    if name in ("MIXES", "MixResult", "MixSpec", "mix_config", "resolve_mix"):
        from repro import multicore

        return getattr(multicore, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "MIXES",
    "MixResult",
    "MixSpec",
    "PREFETCHERS",
    "CampaignInterrupted",
    "CampaignReport",
    "CorruptResult",
    "FleetDegraded",
    "HostLost",
    "HostPartition",
    "HostSpec",
    "InvariantViolation",
    "JobFailure",
    "JobTimeout",
    "ResultStore",
    "RetryPolicy",
    "Sanitizer",
    "SimResult",
    "SimulationConfig",
    "SimulationError",
    "StallTimeout",
    "StoreDegraded",
    "SuiteResult",
    "Sweep",
    "WorkerCrash",
    "active_store",
    "build_sanitizer",
    "experiment_configs",
    "improvement_table",
    "mix_config",
    "parse_hosts",
    "prefetcher_factory",
    "prewarm",
    "resolve_mix",
    "sanitize_level",
    "set_active_store",
    "simulate",
    "simulate_suite",
    "use_store",
    "validate_result",
]
