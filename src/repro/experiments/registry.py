"""Registry mapping paper labels to experiment runners and their cells."""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.experiments import (
    figure01,
    figure02,
    figure03,
    figure04,
    figure05,
    figure06,
    figure07,
    figure11,
    figure12,
    figure13,
    figure14,
    figure15,
    figure_mix,
    table01,
)
from repro.experiments.base import ExperimentResult, suite_order
from repro.sim import SimulationConfig
from repro.sim.parallel import Cell
from repro.workloads import Scale

__all__ = ["EXPERIMENTS", "GRIDS", "cells", "run_experiment"]

Runner = Callable[..., ExperimentResult]

EXPERIMENTS: Dict[str, Runner] = {
    "table1": table01.run,
    "fig1": figure01.run,
    "fig2": figure02.run,
    "fig3": figure03.run,
    "fig4": figure04.run,
    "fig5": figure05.run,
    "fig6": figure06.run,
    "fig7": figure07.run,
    "fig11": figure11.run,
    "fig12": figure12.run,
    "fig13": figure13.run,
    "fig14": figure14.run,
    "fig15": figure15.run,
    "mix": figure_mix.run,
}

#: the configurations each benchmark-crossing experiment simulates;
#: ``mix`` declares its own cells and the rest simulate nothing.
GRIDS: Dict[str, Sequence[SimulationConfig]] = {
    "fig1": figure01.CONFIGS,
    "fig11": figure11.CONFIGS,
    "fig12": figure12.CONFIGS,
    "fig13": figure13.CONFIGS,
    "fig14": figure14.CONFIGS,
}


def cells(
    names: Iterable[str],
    benchmarks: Optional[Sequence[str]] = None,
    mix: Optional[str] = None,
) -> List[Cell]:
    """The deduplicated (workload, config) cells experiments ``names``
    read, given ``benchmarks`` and ``mix`` as :func:`run_experiment`
    takes them."""
    found: List[Cell] = []
    for name in names:
        if name == "mix":
            found += figure_mix.cells(mix)
        elif name in GRIDS:
            benches = suite_order(benchmarks)
            found += [(bench, config) for config in GRIDS[name] for bench in benches]
    return list(dict.fromkeys(found))


def run_experiment(
    name: str,
    scale: Scale = Scale.STANDARD,
    benchmarks: Optional[Sequence[str]] = None,
    mix: Optional[str] = None,
) -> ExperimentResult:
    """Run one experiment by its paper label (e.g. ``"fig11"``).

    ``benchmarks`` restricts the benchmark-crossing experiments and
    ``mix`` picks the mix experiment's workload mix; each is ignored
    elsewhere, so one pair describes a whole ``run all``.
    """
    try:
        runner = EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}"
        ) from None
    if name == "mix":
        return runner(scale=scale, mix=mix)
    return runner(scale=scale, benchmarks=benchmarks)
