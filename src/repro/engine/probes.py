"""Pluggable observation taps for the CPU simulation loop.

The seed tree wired progress heartbeats and the runtime sanitizer into
:meth:`repro.cpu.core.OutOfOrderCore.run` as inline branches.  Probes
replace that: the loop keeps exactly one integer compare per access
(``i + 1 == next_mark``) and, when a mark fires, hands control to a
small list of :class:`Probe` objects.  Adding a new observation — a
checkpoint writer, an IPC sampler, a trace recorder — means writing a
probe, not editing the hot loop.

Mark cadence: the loop fires marks at the *smallest* interval any
attached probe requests, and every probe runs at every mark.  This
reproduces the seed semantics where an attached sanitizer tightened
the progress cadence to its own interval (the sanitizer must observe
state at the same mark where a fault-injection hook may have corrupted
it).

Ordering: probes run in list order, and the loop takes the list as
given.  :func:`repro.sim.runner.build_probes` assembles it for both
the single-core and the mix runner, and owns the "progress before
checks" contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

__all__ = [
    "CoreMark",
    "MetricsProbe",
    "Probe",
    "ProgressProbe",
    "SanitizerProbe",
]

#: progress-callback signature: (accesses_done, accesses_total, sim_time).
ProgressCallback = Callable[[int, int, float], None]

#: default accesses between marks when only a progress callback is attached.
DEFAULT_INTERVAL = 2048


@dataclass(frozen=True, slots=True)
class CoreMark:
    """Snapshot of the CPU loop's state at one mark.

    Allocated once per mark (marks are thousands of accesses apart),
    never on the per-access path.
    """

    done: int
    total: int
    rob_len: int
    window: int
    last_commit: float
    now_dispatch: float


class Probe:
    """One observation tap on the simulation loop.

    ``interval`` is the probe's *requested* cadence in accesses; the
    loop fires every probe at the minimum cadence across attached
    probes, so ``on_mark`` may run more often than requested — never
    less.
    """

    interval: int = DEFAULT_INTERVAL

    def on_mark(self, mark: CoreMark, hierarchy: Any) -> None:
        """Called at each periodic mark with the loop state snapshot."""

    def on_finalize(self, hierarchy: Any) -> None:
        """Called once after the run (after ``hierarchy.finalize()``)."""


class ProgressProbe(Probe):
    """Adapts a ``(done, total, sim_time)`` callback to the probe API.

    This is the hook behind campaign heartbeats and mid-run checkpoint
    markers (:mod:`repro.sim.resilience` / :mod:`repro.sim.store`).
    """

    def __init__(self, callback: ProgressCallback, interval: int = DEFAULT_INTERVAL) -> None:
        if interval <= 0:
            raise ValueError(f"progress interval must be positive, got {interval}")
        self.callback = callback
        self.interval = interval

    def on_mark(self, mark: CoreMark, hierarchy: Any) -> None:
        self.callback(mark.done, mark.total, mark.last_commit)


#: (metric name, HierarchyStats attribute) pairs the probe histograms
#: per interval and totals at finalize.  Every entry is a plain int
#: counter on the stats object — reading them cannot perturb the run.
_STAT_METRICS = (
    ("l1.hits", "l1_hits"),
    ("l1.misses", "l1_misses"),
    ("l2.hits", "l2_demand_hits"),
    ("l2.misses", "l2_demand_misses"),
    ("mshr.merges", "mshr_merges"),
    ("mshr.full_stalls", "mshr_full_stalls"),
    ("prefetch.requested", "prefetches_requested"),
    ("prefetch.issued", "prefetches_issued"),
    ("prefetch.dropped_queue", "prefetch_dropped_queue"),
    ("prefetch.dropped_busy", "prefetch_dropped_busy"),
    ("prefetch.redundant", "prefetch_redundant"),
    ("prefetch.useful", "useful_prefetches"),
)

#: subset whose per-interval deltas are worth a histogram (the rest
#: only get end-of-run totals).
_INTERVAL_METRICS = (
    ("l1.hits", "l1_hits"),
    ("l1.misses", "l1_misses"),
    ("l2.hits", "l2_demand_hits"),
    ("l2.misses", "l2_demand_misses"),
)


class MetricsProbe(Probe):
    """Samples hierarchy/prefetcher state into a metrics registry.

    **Strictly read-only.**  The probe reads plain integer counters off
    :class:`~repro.memory.hierarchy.HierarchyStats` and samples sizes
    of internal structures; it must never call anything that mutates —
    in particular not :meth:`MSHRFile.outstanding`, whose reap would
    shift acquire times (it uses the read-only
    :meth:`~repro.memory.mshr.MSHRFile.occupancy` instead).  The
    enabled-vs-disabled differential test holds this to *bit identical*
    results.

    At each mark: per-interval hit/miss deltas go into histograms
    (``interval.<name>``), MSHR occupancy and the in-flight prefetch
    queue into gauges.  At finalize: one final partial-interval
    observation (so every histogram's ``sum`` equals the run total —
    the conservation law the property tests assert), then end-of-run
    counter totals plus prefetcher/PHT/bus internals.
    """

    def __init__(self, registry: Any, interval: int = DEFAULT_INTERVAL) -> None:
        if interval <= 0:
            raise ValueError(f"metrics interval must be positive, got {interval}")
        self.registry = registry
        self.interval = interval
        self._prev = {attr: 0 for _, attr in _INTERVAL_METRICS}
        self._marks = 0

    def _observe_interval(self, stats: Any) -> None:
        prev = self._prev
        histogram = self.registry.histogram
        for name, attr in _INTERVAL_METRICS:
            value = getattr(stats, attr)
            histogram(f"interval.{name}").observe(value - prev[attr])
            prev[attr] = value

    def on_mark(self, mark: CoreMark, hierarchy: Any) -> None:
        self._marks += 1
        self._observe_interval(hierarchy.stats)
        gauge = self.registry.gauge
        gauge("mshr.occupancy").set(hierarchy.mshr.occupancy())
        gauge("prefetch.inflight").set(len(hierarchy._pf_inflight))
        gauge("core.rob").set(mark.rob_len)

    def on_finalize(self, hierarchy: Any) -> None:
        registry = self.registry
        stats = hierarchy.stats
        # Close the last partial interval first: histogram sums must
        # equal the whole-run totals.
        self._observe_interval(stats)
        counter = registry.counter
        counter("sim.marks").inc(self._marks)
        for name, attr in _STAT_METRICS:
            counter(name).inc(getattr(stats, attr))
        counter("prefetch.evicted_unused").inc(stats.prefetch_evicted_unused)
        counter("prefetch.residual_unused").inc(stats.prefetch_residual_unused)
        counter("ifetch.accesses").inc(stats.ifetch_accesses)
        counter("ifetch.misses").inc(stats.ifetch_misses)
        for label, bus in (
            ("l1l2_data", hierarchy.l1l2_data_bus),
            ("mem_data", hierarchy.mem_data_bus),
        ):
            counter(f"bus.{label}.transfers").inc(bus.transfers)
            counter(f"bus.{label}.busy_cycles").inc(int(bus.busy_cycles))
        prefetcher = getattr(hierarchy, "prefetcher", None)
        if prefetcher is None:
            return
        pstats = getattr(prefetcher, "stats", None)
        if pstats is not None:
            counter("prefetcher.lookups").inc(pstats.lookups)
            counter("prefetcher.predictions").inc(pstats.predictions)
            counter("prefetcher.updates").inc(pstats.updates)
        pht = getattr(prefetcher, "pht", None)
        if pht is not None:
            counter("pht.lookups").inc(pht.lookups)
            counter("pht.hits").inc(pht.hits)
            counter("pht.updates").inc(pht.updates)
            occupancy = getattr(pht, "occupancy", None)
            if callable(occupancy):
                registry.gauge("pht.occupancy").set(occupancy())
        tht = getattr(prefetcher, "tht", None)
        if tht is not None:
            counter("tht.reads").inc(getattr(tht, "reads", 0))
            counter("tht.pushes").inc(getattr(tht, "pushes", 0))
            occupancy = getattr(tht, "occupancy", None)
            if callable(occupancy):
                registry.gauge("tht.occupancy").set(occupancy())


class SanitizerProbe(Probe):
    """Runs a :class:`repro.sim.sanitizer.Sanitizer` at each mark.

    The probe inherits the sanitizer's own tier-dependent interval and
    forwards the core-side state (ROB occupancy, commit/dispatch
    monotonicity) plus the hierarchy scan.  ``on_finalize`` runs the
    sanitizer's end-of-run conservation checks — callers must invoke
    it *after* :meth:`MemoryHierarchy.finalize` so residual unused
    prefetches have been accounted.
    """

    def __init__(self, sanitizer: Any) -> None:
        self.sanitizer = sanitizer
        self.interval = int(sanitizer.interval)

    def on_mark(self, mark: CoreMark, hierarchy: Any) -> None:
        self.sanitizer.check_core(
            mark.rob_len, mark.window, mark.last_commit, mark.now_dispatch
        )
        self.sanitizer.check(hierarchy, mark.last_commit)

    def on_finalize(self, hierarchy: Any) -> None:
        self.sanitizer.finalize(hierarchy)

