"""The compiled backend (``--backend native``).

:class:`NativeBackend` routes a run to :class:`~repro.backend.native.
engine.NativeCore`, which hands each span of the trace between probe
marks to the C core loop in :mod:`repro.backend.native._native` as one
range.  Whenever that loop cannot run, the backend falls back to the
reference interpreted loop (:class:`repro.cpu.OutOfOrderCore`):

* for configurations the C loop does not model: a set-associative L1D,
  prefetchers that observe the access stream (DBCP), gated L1
  promotions (the hybrid), a direct-mapped L2;
* when the ``_native`` extension cannot be imported or built (no C
  compiler, ``REPRO_NATIVE=0``, a failed compile), so a pure-Python
  install keeps working everywhere.

Every fallback warns once per process and records the reason in
``last_engine_stats["fallback"]``, which the runner copies into
``SimResult.backend_fallback``.  Either way results are bit-identical
to the python backend; fallbacks only cost speed, never correctness.
"""

from __future__ import annotations

import warnings
from typing import Optional, Sequence, Set

from repro.backend.base import Backend
from repro.backend.native import build
from repro.backend.native.engine import NativeCore
from repro.cpu.core import CoreParams, CoreResult, OutOfOrderCore
from repro.engine.probes import Probe
from repro.memory.hierarchy import MemoryHierarchy
from repro.workloads.trace import Trace

__all__ = ["NativeBackend", "NativeCore"]

#: fallback reasons already warned about (once per process, not per run).
_WARNED_FALLBACKS: Set[str] = set()


def _fallback_reason(hierarchy: MemoryHierarchy) -> Optional[str]:
    """Why this run cannot take the C loop (None = it can)."""
    if hierarchy._l1_lines is None:
        return "set-associative L1D"
    if hierarchy._needs_access:
        return "prefetcher observes the access stream"
    if hierarchy._promotions_enabled:
        return "gated L1 promotions"
    if hierarchy.l2d._direct_mapped:
        return "direct-mapped L2"
    if build.load() is None:
        return f"native extension unavailable ({build.load_error()})"
    return None


class NativeBackend(Backend):
    """The compiled core loop, with the reference loop as fallback."""

    name = "native"

    def __init__(self) -> None:
        #: engine accounting for the last run: NativeCore.engine_stats
        #: when the compiled loop ran, ``{"fallback": reason}`` when the
        #: reference loop ran instead.
        self.last_engine_stats: dict = {}

    def run(
        self,
        trace: Trace,
        hierarchy: MemoryHierarchy,
        params: CoreParams,
        warmup: int = 0,
        probes: Optional[Sequence[Probe]] = None,
    ) -> CoreResult:
        reason = _fallback_reason(hierarchy)
        if reason is not None:
            if reason not in _WARNED_FALLBACKS:
                _WARNED_FALLBACKS.add(reason)
                warnings.warn(
                    f"native backend: {reason}; this configuration runs on "
                    "the (bit-identical) python reference loop",
                    RuntimeWarning,
                    stacklevel=2,
                )
            self.last_engine_stats = {"fallback": reason}
            core = OutOfOrderCore(params)
            return core.run(trace, hierarchy, warmup=warmup, probes=probes)
        core = NativeCore(params)
        result = core.run(trace, hierarchy, warmup=warmup, probes=probes)
        self.last_engine_stats = core.engine_stats
        return result
