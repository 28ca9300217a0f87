"""The unified component contract of the engine layer.

Every building block of the simulated memory system — set-associative
cache, MSHR file, bus, DRAM, prefetcher — implements one interface:

``access(event) -> outcome``
    Process one :class:`~repro.engine.events.MemoryEvent`.  What the
    outcome *is* depends on the component (a cache returns the hit
    line or None, an MSHR file a merge completion time, a bus a
    transfer start time, DRAM a fetch completion time, a prefetcher a
    list of prefetch requests), but the shape of the call is uniform,
    which is what lets probes, sweeps, and analysis passes walk a
    hierarchy generically.
``finalize()``
    End-of-run accounting hook (e.g. a prefetcher flushing residual
    state into its statistics).  Default: no-op.
``reset()``
    Drop all mutable state for a fresh run under the same
    configuration.  Default: no-op.

The per-access hot path deliberately does NOT dispatch through this
interface — :meth:`repro.memory.hierarchy.MemoryHierarchy.access_time`
binds each component's concrete methods locally and calls them
directly (a virtual ``access(event)`` per component per access would
put an allocation and a double dispatch on the critical path).  The
contract exists so that every component *can* be driven uniformly from
cold paths: tests, probes, and analysis tools.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

__all__ = ["Component"]


class Component(ABC):
    """One building block of the simulated memory system."""

    # Empty slots so slotted subclasses (e.g. Bus) stay __dict__-free.
    __slots__ = ()

    @abstractmethod
    def access(self, event: Any) -> Any:
        """Process one memory event; return this component's outcome."""

    def finalize(self) -> None:
        """End-of-run accounting hook (default: nothing to account)."""

    def reset(self) -> None:
        """Drop mutable state for a fresh run (default: stateless)."""
