"""The simulation engine layer.

This package owns the contracts the per-access hot path is built from,
separated from the concrete machine models in :mod:`repro.memory` and
:mod:`repro.cpu`:

:mod:`repro.engine.events`
    The slotted, frozen event/outcome protocol that crosses layer
    boundaries: :class:`MissEvent`, :class:`AccessEvent`,
    :class:`EvictionEvent` flowing from the hierarchy to observers, and
    :class:`AccessOutcome` flowing back to the CPU model.
:mod:`repro.engine.component`
    The :class:`Component` interface every memory-system building block
    (cache, MSHR file, bus, DRAM, prefetcher) implements: one
    ``access(event) -> outcome`` entry point plus ``finalize()`` /
    ``reset()`` lifecycle hooks.
:mod:`repro.engine.probes`
    Pluggable observation taps (:class:`Probe`) the CPU loop fires at
    periodic marks — progress heartbeats and the runtime sanitizer
    attach here instead of as inline branches in the hot loop.

The hot path itself lives in :meth:`repro.memory.hierarchy.
MemoryHierarchy.access_time` (a flat, allocation-free fast path) and
:meth:`repro.cpu.core.OutOfOrderCore.steps`; this package defines what
crosses their boundaries.
"""

from repro.engine.component import Component
from repro.engine.events import (
    AccessEvent,
    AccessOutcome,
    EvictionEvent,
    MemoryEvent,
    MissEvent,
)
from repro.engine.probes import (
    MetricsProbe,
    Probe,
    ProgressProbe,
    SanitizerProbe,
)

__all__ = [
    "AccessEvent",
    "AccessOutcome",
    "Component",
    "EvictionEvent",
    "MemoryEvent",
    "MetricsProbe",
    "MissEvent",
    "Probe",
    "ProgressProbe",
    "SanitizerProbe",
]
