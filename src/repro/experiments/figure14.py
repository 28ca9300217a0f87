"""Figure 14: prefetching into L2 (TCP-8K) vs into L1 (Hybrid-8K).

The hybrid fills L2 immediately and promotes into L1 only once the
timekeeping dead-block predictor declares the victim line dead, using a
dedicated L1/L2 prefetch bus (Section 5.2.2).  The paper finds the
hybrid helps most where the dead-block predictor works best (gcc, art,
applu, mgrid, swim, mcf) and concludes that prefetching to L2 already
captures most of the benefit on an aggressive out-of-order core.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.experiments.base import ExperimentResult, suite_order
from repro.sim import SimulationConfig, simulate
from repro.util.stats import geometric_mean
from repro.workloads import Scale

__all__ = ["CONFIGS", "run"]

#: the grid: every benchmark on the baseline, TCP-8K and Hybrid-8K.
CONFIGS = (
    SimulationConfig.baseline(),
    SimulationConfig.for_prefetcher("tcp-8k"),
    SimulationConfig.for_prefetcher("hybrid-8k"),
)


def run(
    scale: Scale = Scale.STANDARD,
    benchmarks: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    names = suite_order(benchmarks)
    series: Dict[str, Dict[str, float]] = {"tcp-8k": {}, "hybrid-8k": {}, "promotions": {}}
    rows = []
    for name in names:
        base, tcp, hybrid = (simulate(name, config, scale) for config in CONFIGS)
        tcp_gain = tcp.improvement_over(base)
        hybrid_gain = hybrid.improvement_over(base)
        series["tcp-8k"][name] = tcp_gain
        series["hybrid-8k"][name] = hybrid_gain
        series["promotions"][name] = float(hybrid.memory.l1_promotions)
        rows.append(
            [
                name,
                tcp_gain,
                hybrid_gain,
                hybrid.memory.l1_promotions,
                hybrid.memory.l1_promotion_hits,
            ]
        )

    geomeans = {
        label: (geometric_mean(1.0 + v / 100.0 for v in series[label].values()) - 1.0)
        * 100.0
        for label in ("tcp-8k", "hybrid-8k")
    }
    rows.append(["geomean", geomeans["tcp-8k"], geomeans["hybrid-8k"], "-", "-"])

    helped = [
        name
        for name in names
        if series["hybrid-8k"][name] > series["tcp-8k"][name] + 0.5
    ]
    notes = [
        f"Suite geomean: TCP-8K {geomeans['tcp-8k']:+.1f}%, Hybrid-8K "
        f"{geomeans['hybrid-8k']:+.1f}%.",
        "Hybrid further improves: " + (", ".join(helped) if helped else "none")
        + " (paper: gcc, art, applu, mgrid, swim, mcf).",
        "Prefetching into L2 captures most of the benefit; L1 prefetching "
        "pays only with an accurate dead-block predictor and spare "
        "L1/L2 bandwidth — the paper's Section 5.2.2 conclusion.",
    ]
    return ExperimentResult(
        experiment="fig14",
        title="Prefetching into L2 (TCP-8K) vs into L1 (Hybrid-8K)",
        headers=["benchmark", "tcp-8k %", "hybrid-8k %", "promotions", "promotion hits"],
        rows=rows,
        series=series,
        notes=notes,
    )
