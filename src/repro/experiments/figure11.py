"""Figure 11 (and the Section 5.1 headline numbers).

IPC improvement over the no-prefetch baseline for:

* TCP-8K — 8 KB shared PHT (the realistic design point);
* TCP-8M — 8 MB PHT with private per-set history (the idealised
  no-sharing reference);
* DBCP-2M — the dead-block correlating prefetcher with a 2 MB table.

The paper's headline: DBCP ≈ 7%, TCP-8K ≈ 14%, TCP-8M ≈ 15% suite-wide,
i.e. an 8 KB tag-correlating table beats a 2 MB address+PC-correlating
one.  The per-benchmark sharing story also lives here: some benchmarks
prefer the shared PHT (the paper names applu, mgrid, swim), others the
private one (facerec, gcc, art, mcf, ammp).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.experiments.base import ExperimentResult, suite_order
from repro.sim import SimulationConfig, simulate
from repro.util.stats import geometric_mean
from repro.workloads import Scale

__all__ = ["CONFIG_LABELS", "CONFIGS", "run"]

CONFIG_LABELS = ("tcp-8k", "tcp-8m", "dbcp-2m")
#: the grid: the baseline, then one machine per label.
CONFIGS = (SimulationConfig.baseline(),) + tuple(
    SimulationConfig.for_prefetcher(label) for label in CONFIG_LABELS
)


def run(
    scale: Scale = Scale.STANDARD,
    benchmarks: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    names = suite_order(benchmarks)
    series: Dict[str, Dict[str, float]] = {label: {} for label in CONFIG_LABELS}
    storage: Dict[str, int] = {}
    rows = []
    for name in names:
        base = simulate(name, CONFIGS[0], scale)
        row: list = [name]
        for label, config in zip(CONFIG_LABELS, CONFIGS[1:]):
            result = simulate(name, config, scale)
            improvement = result.improvement_over(base)
            series[label][name] = improvement
            storage[label] = result.prefetcher_storage_bytes
            row.append(improvement)
        rows.append(row)

    geomeans = {
        label: (geometric_mean(1.0 + v / 100.0 for v in values.values()) - 1.0) * 100.0
        for label, values in series.items()
    }
    rows.append(["geomean"] + [geomeans[label] for label in CONFIG_LABELS])
    series["geomean"] = geomeans

    prefers_private = [
        name
        for name in names
        if series["tcp-8m"][name] > series["tcp-8k"][name] + 1.0
    ]
    notes = [
        "Suite-wide (geomean) improvement: "
        + ", ".join(f"{label} {geomeans[label]:+.1f}%" for label in CONFIG_LABELS)
        + "  (paper: TCP-8K ~14%, TCP-8M ~15%, DBCP ~7%).",
        "Table budgets: "
        + ", ".join(f"{label} {storage[label] / 1024:.0f}KB" for label in CONFIG_LABELS)
        + " — the headline claim is the budget asymmetry.",
        "Benchmarks preferring private per-set history (TCP-8M): "
        + (", ".join(prefers_private) if prefers_private else "none")
        + " (paper: facerec, gcc, art, mcf, ammp).",
    ]
    return ExperimentResult(
        experiment="fig11",
        title="IPC improvement: TCP-8K vs TCP-8M vs DBCP-2M",
        headers=["benchmark"] + [f"{label} %" for label in CONFIG_LABELS],
        rows=rows,
        series=series,
        notes=notes,
    )
