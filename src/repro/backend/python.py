"""The reference backend: the interpreted per-access loop.

A thin adapter over :class:`repro.cpu.OutOfOrderCore` — the engine
path PR 3 carved out and the 156-run oracle froze.  Every other
backend is defined as "bit-identical to this one"; it is also the
fallback for configurations the native backend does not cover (see
:mod:`repro.backend.native`).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.backend.base import Backend
from repro.cpu.core import CoreParams, CoreResult, OutOfOrderCore
from repro.engine.probes import Probe
from repro.memory.hierarchy import MemoryHierarchy
from repro.workloads.trace import Trace

__all__ = ["PythonBackend"]


class PythonBackend(Backend):
    """Bit-exact reference: one interpreted step per access."""

    name = "python"

    def run(
        self,
        trace: Trace,
        hierarchy: MemoryHierarchy,
        params: CoreParams,
        warmup: int = 0,
        probes: Optional[Sequence[Probe]] = None,
    ) -> CoreResult:
        core = OutOfOrderCore(params)
        return core.run(trace, hierarchy, warmup=warmup, probes=probes)
