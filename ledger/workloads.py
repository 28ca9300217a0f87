"""The ledger's four workloads: what each runs, at which size, and why.

Each workload is a grid of (benchmark, configuration) cells that every
timed pass simulates completely:

``fig11``
    the paper's headline evaluation — base, TCP-8K, TCP-8M and DBCP-2M
    over all 26 benchmarks — as a two-worker ``prewarm`` campaign on the
    native backend.  Engine work dominates, and the DBCP cells run on the
    interpreted reference loop (the native engine cannot host a
    prefetcher that observes every access).
``campaign-tiny``
    all six ``experiment_configs()`` over the suite at a tiny trace
    length on the default backend: cells take tens of milliseconds, so
    dispatch, pickling, installation and store writes dominate.
``cells``
    in-process ``simulate`` of every benchmark under base and TCP-8K on
    the native backend, trace-major: no campaign and no store, only the
    engine, on L1-resident and miss-heavy benchmarks alike.
``mix7``
    the highest-MPKI mix (mgrid+swim+ammp+mcf on four cores sharing the
    L2, bus and DRAM) under no prefetcher, TCP-8K and TCP-8K with a
    shared PHT, plus the solo cells weighted speedup needs.  Mix cells
    run on the multicore reference loop only.

Sizes are chosen so that one pass takes a few seconds on two cores and
a run holds several passes (see ``ledger/README.md`` for the budget).
``repro`` is imported lazily so the driving process stays light.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["SMOKE_BENCHMARKS", "WORKLOADS", "Workload", "accesses_for", "cell_key"]

#: the single-core benchmarks a ``--smoke`` run uses: one L1-resident,
#: one streaming, one pointer-chasing.
SMOKE_BENCHMARKS = ("fma3d", "swim", "mcf")

#: how many distinct input sizes ``--seed`` cycles through, so that any
#: seed keeps the work within a few percent of the base size.
SEED_VARIANTS = 16

#: the smallest seed step that changes every benchmark's trace: some
#: generators emit in blocks, so a step of a few accesses can leave a
#: trace unchanged.
MIN_SEED_STEP = 20


def accesses_for(base: int, seed: int) -> int:
    """Trace length for ``seed``: ``base`` plus ``seed mod 16`` steps of
    ``max(20, base/1000)`` accesses.

    The suite's generators derive their structure from the requested
    length, so every step gives every benchmark a different trace of
    nearly the same size; seed 1 is the held-out seed.
    """
    return base + (seed % SEED_VARIANTS) * max(MIN_SEED_STEP, base // 1000)


def cell_key(name: str, config, accesses: int) -> str:
    """The campaign job key of one cell (``swim/tcp-8k@20000``)."""
    return f"{name}/{config.resolved_label()}@{accesses}"


@dataclass(frozen=True)
class Workload:
    """One ledger workload.

    ``campaign`` workloads run each pass as one ``prewarm`` campaign;
    the others call ``simulate`` cell by cell in the workload process.
    ``backend`` is the ``REPRO_BACKEND`` the workload process gets
    (``None`` keeps the program's default).
    """

    name: str
    campaign: bool
    backend: Optional[str]
    base: int
    smoke_base: int

    def benchmarks(self, smoke: bool) -> Tuple[str, ...]:
        from repro.multicore import MIXES
        from repro.workloads import BENCHMARK_ORDER

        if self.name == "mix7":
            return MIXES["mix7"].benchmarks
        return SMOKE_BENCHMARKS if smoke else BENCHMARK_ORDER

    def configs(self) -> List:
        """The configurations of the grid, in ``prewarm`` order."""
        from repro.multicore import mix_config
        from repro.sim.config import SimulationConfig
        from repro.sim.parallel import experiment_configs

        base = SimulationConfig.baseline()
        tcp = SimulationConfig.for_prefetcher("tcp-8k")
        if self.name == "fig11":
            return [base, tcp] + [
                SimulationConfig.for_prefetcher(name) for name in ("tcp-8m", "dbcp-2m")
            ]
        if self.name == "campaign-tiny":
            return experiment_configs()
        if self.name == "cells":
            return [base, tcp]
        return [
            base,
            tcp,
            mix_config("mix7"),
            mix_config("mix7", "tcp-8k"),
            mix_config("mix7", "tcp-8k", shared_pht=True, label="tcp-8k-shared"),
        ]

    def cells(self, smoke: bool) -> List[Tuple[str, object]]:
        """Every (workload name, config) cell, trace-major.

        Consecutive cells share a trace, which is the order a campaign
        worker with workload affinity runs them in; mix cells come last.
        """
        configs = self.configs()
        single = [c for c in configs if c.mix is None]
        cells: List[Tuple[str, object]] = [
            (name, config) for name in self.benchmarks(smoke) for config in single
        ]
        cells += [("+".join(c.mix), c) for c in configs if c.mix is not None]
        return cells

    def accesses(self, seed: int, smoke: bool) -> int:
        return accesses_for(self.smoke_base if smoke else self.base, seed)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fig11", campaign=True, backend="native", base=20_000, smoke_base=1_000),
        Workload("campaign-tiny", campaign=True, backend=None, base=4_000, smoke_base=500),
        Workload("cells", campaign=False, backend="native", base=30_000, smoke_base=1_000),
        Workload("mix7", campaign=False, backend="native", base=20_000, smoke_base=1_000),
    )
}


def trace_names(cells: Sequence[Tuple[str, object]]) -> List[str]:
    """The distinct benchmark traces a grid reads (mix members split)."""
    return list(dict.fromkeys(part for name, _ in cells for part in name.split("+")))
