"""Figure 1: potential IPC improvement with an ideal L2 data cache.

For every benchmark: simulate the baseline machine and a machine whose
L2 data cache always hits, and report the IPC improvement.  This is
"the target we aim for in our memory optimizations" (Section 2) and
defines the benchmark ordering used by every later figure.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.base import ExperimentResult, suite_order
from repro.sim import SimulationConfig, simulate
from repro.workloads import Scale

__all__ = ["CONFIGS", "run"]

#: the grid: every benchmark on the baseline and the ideal-L2 machine.
CONFIGS = (SimulationConfig.baseline(), SimulationConfig.ideal_l2())


def run(
    scale: Scale = Scale.STANDARD,
    benchmarks: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    names = suite_order(benchmarks)
    rows = []
    series = {"potential": {}}
    for name in names:
        base, ideal = (simulate(name, config, scale) for config in CONFIGS)
        potential = ideal.improvement_over(base)
        series["potential"][name] = potential
        rows.append([name, base.ipc, ideal.ipc, potential])

    ordered = sorted(series["potential"].items(), key=lambda item: item[1])
    notes = [
        "Benchmarks sorted by measured potential: "
        + ", ".join(name for name, _ in ordered),
        "The paper's Figure 1 spans roughly 0-400%; the suite-wide spread "
        f"here is {ordered[0][1]:.1f}% to {ordered[-1][1]:.1f}%.",
    ]
    return ExperimentResult(
        experiment="fig1",
        title="Potential IPC improvement with an ideal L2 data cache",
        headers=["benchmark", "base IPC", "ideal-L2 IPC", "improvement %"],
        rows=rows,
        series=series,
        notes=notes,
    )
