"""execute_mix(): one cold N-core machine over one workload mix.

The multicore analogue of :func:`repro.sim.runner._execute`.  Builds
one :class:`~repro.multicore.engine.SharedFabric`, one
:class:`~repro.multicore.engine.CoreHierarchy` + cold prefetcher per
core, and the probes :func:`repro.sim.runner.build_probes` builds for
the single-core path (the heartbeat/fault hooks on core 0 only,
metrics and the sanitizer per core), plus the shared-L2 ownership
check on core 0.  It then interleaves the cores' steppers with
:func:`~repro.multicore.engine.run_cores` and assembles a
:class:`~repro.multicore.results.MixResult`.

Every core steps :meth:`repro.cpu.core.OutOfOrderCore.steps`, the
loop the python backend runs; the native C loop is single-stream by
design.  The result records that via ``backend_fallback="multicore"``
through the existing provenance path.
"""

from __future__ import annotations

from typing import Any, List

from repro.cpu.core import OutOfOrderCore
from repro.engine.probes import Probe
from repro.sim import sanitizer as sanitizer_mod
from repro.sim.config import SimulationConfig
from repro.sim.runner import WARMUP_FRACTION, build_probes
from repro.multicore.engine import (
    CoreHierarchy,
    SharedFabric,
    offset_trace,
    run_cores,
)
from repro.multicore.results import MixCoreResult, MixResult
from repro.workloads import generate

__all__ = ["execute_mix"]

#: provenance marker recorded on every mix result: the run executed on
#: the python core loop, one stepper per core.
MULTICORE_FALLBACK = "multicore"


class SharedL2Probe(Probe):
    """Periodic shared-L2 ownership/occupancy invariant check.

    Attached once, to core 0, after its sanitizer probe.  It holds a
    sanitizer instance of its own; the shared-L2 scan touches only its
    own scan cursor there.  At each mark it runs the sampled shared-L2
    scan, and at finalize the complete owner-map bijection check.
    Read-only, like every probe.
    """

    def __init__(self, sanitizer: Any, fabric: SharedFabric) -> None:
        self.sanitizer = sanitizer
        self.fabric = fabric
        self.interval = int(sanitizer.interval)

    def on_mark(self, mark: Any, hierarchy: Any) -> None:
        self.sanitizer.check_shared_l2(
            self.fabric, sample=sanitizer_mod.SCAN_SAMPLE
        )

    def on_finalize(self, hierarchy: Any) -> None:
        self.sanitizer.check_shared_l2(self.fabric, sample=None)


def _share_pht(prefetchers: List[Any]) -> None:
    """Point every core's prefetcher at core 0's PHT."""
    shared = getattr(prefetchers[0], "pht", None)
    if shared is None:
        raise ValueError(
            f"shared_pht requires a prefetcher with a PHT; "
            f"{prefetchers[0].name!r} has none"
        )
    for prefetcher in prefetchers[1:]:
        try:
            prefetcher.pht = shared
        except AttributeError as exc:
            raise ValueError(
                f"prefetcher {prefetcher.name!r} cannot share a PHT: {exc}"
            ) from exc


def execute_mix(
    config: SimulationConfig,
    accesses: int,
    warmup_fraction: float = WARMUP_FRACTION,
) -> MixResult:
    """Run one cold N-core machine over ``config.mix``."""
    if config.mix is None:
        raise ValueError("execute_mix requires a configuration with a mix")
    if not 0 <= warmup_fraction < 1:
        raise ValueError(
            f"warmup fraction must be in [0, 1), got {warmup_fraction}"
        )
    names = config.mix
    fabric = SharedFabric(config.hierarchy, len(names))

    steppers: List[Any] = []
    hierarchies: List[CoreHierarchy] = []
    prefetchers: List[Any] = []
    probe_lists: List[List[Probe]] = []
    core = OutOfOrderCore(config.core)
    for core_id, name in enumerate(names):
        trace = offset_trace(generate(name, accesses), core_id)
        hierarchy = CoreHierarchy(config.hierarchy, fabric, core_id)
        prefetcher = config.build_prefetcher()
        hierarchy.attach_prefetcher(prefetcher)
        warmup = int(len(trace) * warmup_fraction)

        # Heartbeats and fault injection ride core 0's marks: all cores
        # walk equal-length traces, so core 0's progress is the mix's.
        probes = build_probes(
            config, hierarchy, prefetcher, warmup, lead=core_id == 0
        )
        if core_id == 0:
            sanitizer = sanitizer_mod.build_sanitizer(config.sanitize)
            if sanitizer is not None:
                probes.append(SharedL2Probe(sanitizer, fabric))

        steppers.append(core.steps(trace, hierarchy, warmup, probes))
        hierarchies.append(hierarchy)
        prefetchers.append(prefetcher)
        probe_lists.append(probes)

    if config.shared_pht:
        _share_pht(prefetchers)

    core_results = run_cores(names, steppers)
    fabric.finalize()
    for hierarchy, probes in zip(hierarchies, probe_lists):
        for probe in probes:
            probe.on_finalize(hierarchy)

    per_core = [
        MixCoreResult(
            core_id=core_id,
            workload=name,
            core=core_results[core_id],
            memory=hierarchies[core_id].measured_stats(),
            prefetcher_name=prefetchers[core_id].name,
            prefetcher_storage_bytes=prefetchers[core_id].storage_bytes(),
            prefetcher_predictions=prefetchers[core_id].stats.predictions,
            attribution=fabric.attributions[core_id],
        )
        for core_id, name in enumerate(names)
    ]
    result = MixResult(
        workload="+".join(names),
        config_label=config.resolved_label(),
        per_core=per_core,
        shared_pht=config.shared_pht,
    )
    result.backend_fallback = MULTICORE_FALLBACK
    return result
