"""Figure 12: the three categories of L2 accesses under TCP.

For TCP-8K and TCP-8M, every benchmark's L2 traffic is split into:

* ``prefetched original`` — demand accesses covered by a prefetch;
* ``non-prefetched original`` — demand accesses the prefetcher missed;
* ``prefetched extra`` — prefetch work that never covered a demand
  access (redundant prefetches, prefetched blocks evicted or left
  unused).

All three are normalised to the number of original (demand) L2
accesses, exactly as in the paper: an ideal prefetcher shows 100% /
0% / 0%.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.experiments.base import ExperimentResult, suite_order
from repro.sim import SimulationConfig, simulate
from repro.workloads import Scale

__all__ = ["CONFIGS", "run"]

_LABELS = ("tcp-8k", "tcp-8m")
#: the grid: every benchmark under each TCP.
CONFIGS = tuple(SimulationConfig.for_prefetcher(label) for label in _LABELS)


def run(
    scale: Scale = Scale.STANDARD,
    benchmarks: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    names = suite_order(benchmarks)
    rows = []
    series: Dict[str, Dict[str, float]] = {}
    for label in _LABELS:
        for category in ("prefetched_original", "non_prefetched_original", "prefetched_extra"):
            series[f"{label}:{category}"] = {}

    for name in names:
        row: list = [name]
        for label, config in zip(_LABELS, CONFIGS):
            result = simulate(name, config, scale)
            breakdown = result.memory.breakdown_vs_original()
            for category, value in breakdown.items():
                series[f"{label}:{category}"][name] = value * 100.0
            row.extend(
                [
                    breakdown["prefetched_original"] * 100.0,
                    breakdown["non_prefetched_original"] * 100.0,
                    breakdown["prefetched_extra"] * 100.0,
                ]
            )
        rows.append(row)

    coverage = series["tcp-8k:prefetched_original"]
    best = max(coverage, key=coverage.get)  # type: ignore[arg-type]
    notes = [
        "prefetched + non-prefetched original always sum to 100% of the "
        "demand L2 accesses; 'extra' is the traffic cost of prefetching.",
        f"Best TCP-8K coverage: {best} ({coverage[best]:.0f}% of original "
        "accesses pre-issued by the prefetcher).",
    ]
    headers = ["benchmark"]
    for label in _LABELS:
        headers += [f"{label} orig-pf %", f"{label} orig-nopf %", f"{label} extra %"]
    return ExperimentResult(
        experiment="fig12",
        title="L2 access categories under TCP-8K and TCP-8M (% of original)",
        headers=headers,
        rows=rows,
        series=series,
        notes=notes,
    )
