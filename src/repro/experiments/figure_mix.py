"""Mix contention figure: prefetchers under shared-L2 co-scheduling.

The paper evaluates every prefetcher on a single core; this figure
co-schedules a workload mix (default ``mix2``) on one core per member
over the shared L2 + bus + DRAM fabric and compares prefetchers by how
much of each member's solo performance survives the contention:

* per-core **relative IPC** — IPC in the mix over the same benchmark's
  solo IPC under the same prefetcher (1.0 = no interference);
* **weighted speedup** — the sum of relative IPCs (system throughput,
  upper bound = number of cores);
* **harmonic-mean fairness** — cores over the sum of inverse relative
  IPCs, which punishes any one member being starved.

Solo baselines are ordinary single-core cells, so the result cache and
the store share them with every other figure.  Notes carry the
shared-resource attribution for the paper's realistic design point
(TCP-8K): L2 occupancy share, bus stall cycles, and prefetches evicted
by other cores, per core.
"""

from __future__ import annotations

from typing import Dict, Sequence, Union

from repro.experiments.base import ExperimentResult
from repro.multicore import MixSpec, mix_config, resolve_mix
from repro.sim import SimulationConfig, simulate
from repro.workloads import Scale

__all__ = ["DEFAULT_MIX", "LABELS", "cells", "run"]

DEFAULT_MIX = "mix2"

#: the compared prefetchers: the standard registry, one row each.
LABELS = (
    "none", "nextline", "stride", "stream", "markov", "dbcp-2m", "tcp-8k",
    "tcp-8m", "hybrid-8k", "tcp-stride", "tcp-multi2", "tcp-conf", "tcp-look2",
)

#: prefetcher highlighted in the attribution notes (the paper's
#: realistic design point).
_SPOTLIGHT = "tcp-8k"


def cells(mix: Union[str, Sequence[str], MixSpec, None] = None) -> list:
    """The grid: each member solo and the whole mix, per prefetcher."""
    spec = resolve_mix(mix if mix is not None else DEFAULT_MIX)
    return [
        (name, SimulationConfig.for_prefetcher(label))
        for label in LABELS
        for name in dict.fromkeys(spec.benchmarks)
    ] + [(spec.canonical, mix_config(spec, prefetcher=label)) for label in LABELS]


def _attribution_notes(mix_result, spec: MixSpec, label: str) -> list:
    lines = []
    for core in mix_result.per_core:
        att = core.attribution
        lines.append(
            f"{label} core {core.core_id} ({core.workload}): "
            f"L2 share {att.l2_occupancy_share * 100.0:.1f}%, "
            f"bus stalls {att.bus_stall_cycles / 1000.0:.0f}k cycles, "
            f"prefetches evicted by others {att.prefetches_evicted_by_others}"
        )
    return lines


def run(
    scale: Scale = Scale.STANDARD,
    mix: Union[str, Sequence[str], MixSpec, None] = None,
) -> ExperimentResult:
    """Contention comparison across prefetchers for one workload mix.

    ``mix`` accepts anything :func:`repro.multicore.resolve_mix` does
    (a named mix, ``"a+b"``, or a benchmark sequence); the mix fixes
    its own members, so there is no benchmark list.
    """
    spec = resolve_mix(mix if mix is not None else DEFAULT_MIX)

    series: Dict[str, Dict[str, float]] = {
        "weighted_speedup": {},
        "hmean_fairness": {},
    }
    rows = []
    spotlight_notes: list = []
    for label in LABELS:
        solos = {
            name: simulate(name, SimulationConfig.for_prefetcher(label), scale)
            for name in dict.fromkeys(spec.benchmarks)
        }
        result = simulate(
            spec.canonical, mix_config(spec, prefetcher=label), scale
        )
        speedups = result.speedups(solos)
        ws = result.weighted_speedup(solos)
        fairness = result.hmean_fairness(solos)
        series["weighted_speedup"][label] = ws
        series["hmean_fairness"][label] = fairness
        for core, rel in zip(result.per_core, speedups):
            series.setdefault(f"rel_ipc/{label}", {})[
                f"core{core.core_id}:{core.workload}"
            ] = rel
        rows.append(
            [label]
            + [round(rel, 4) for rel in speedups]
            + [round(ws, 4), round(fairness, 4)]
        )
        if label == _SPOTLIGHT:
            spotlight_notes = _attribution_notes(result, spec, label)

    best = max(series["weighted_speedup"], key=series["weighted_speedup"].get)
    notes = [
        f"Mix {spec.name} = {spec.canonical} on {spec.cores} cores "
        f"(shared L2/bus/DRAM, private L1s and prefetchers).",
        "Relative IPC = IPC in the mix / solo IPC under the same "
        f"prefetcher; weighted speedup sums them (max {spec.cores}.0), "
        "harmonic-mean fairness punishes starvation.",
        f"Best weighted speedup: {best} "
        f"({series['weighted_speedup'][best]:.3f}) vs no-prefetch "
        f"({series['weighted_speedup'].get('none', float('nan')):.3f}).",
    ] + spotlight_notes
    return ExperimentResult(
        experiment="mix",
        title=f"Shared-L2 contention on {spec.name}: per-core relative IPC",
        headers=(
            ["prefetcher"]
            + [f"core{i}:{name}" for i, name in enumerate(spec.benchmarks)]
            + ["weighted speedup", "hmean fairness"]
        ),
        rows=rows,
        series=series,
        notes=notes,
    )
