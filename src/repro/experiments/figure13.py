"""Figure 13: PHT size sweep (top) and miss-index-bit sweep (bottom).

Top: mean IPC over the suite for PHT sizes from 2 KB to 8 MB, with two
indexing policies — no miss-index bits (fully shared, the paper's main
curve) and the full miss index (private per-set history).  The paper
finds diminishing returns past 8 KB for the shared PHT, while the
full-index curve saturates only at megabyte scale.

Bottom: for a fixed 8 KB PHT, mean IPC as the number of miss-index bits
in the PHT index grows from 0 to 3.  More than one bit shrinks each
sub-table below usefulness and performance degrades.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.base import ExperimentResult, suite_order
from repro.sim import SimulationConfig, simulate
from repro.util.bitops import log2_exact
from repro.util.stats import geometric_mean
from repro.workloads import Scale

__all__ = ["run", "CONFIGS", "SHARED_SIZES", "FULL_INDEX_SIZES", "INDEX_BITS"]

KB = 1024
#: PHT sizes for the shared (n = 0) curve.
SHARED_SIZES = (2 * KB, 8 * KB, 32 * KB, 128 * KB, 512 * KB, 2048 * KB, 8192 * KB)
#: PHT sizes for the full-miss-index curve (needs >= 1024 sets).
FULL_INDEX_SIZES = (64 * KB, 256 * KB, 1024 * KB, 8192 * KB)
#: miss-index bit counts for the bottom sweep (8 KB PHT).
INDEX_BITS = (0, 1, 2, 3)


#: every design point in row order: (series, key, sweep, PHT bytes,
#: miss-index bits); a full index spans the PHT's sets (8 ways x 4 B).
POINTS = (
    [("shared_pht_ipc", f"{s // KB}KB", "size sweep (shared)", s, 0)
     for s in SHARED_SIZES]
    + [
        ("full_index_pht_ipc", f"{s // KB}KB", "size sweep (full index)", s,
         min(10, log2_exact(s // 32)))
        for s in FULL_INDEX_SIZES
    ]
    + [("index_bits_ipc", str(n), "index-bit sweep", 8 * KB, n) for n in INDEX_BITS]
)


def _sweep_config(pht_bytes: int, index_bits: int) -> SimulationConfig:
    """One design point, by a name any process resolves."""
    return SimulationConfig(prefetcher=f"tcp-sweep-{pht_bytes // KB}k-n{index_bits}")


#: the grid: every benchmark on the baseline and each distinct point.
CONFIGS = (SimulationConfig.baseline(),) + tuple(
    dict.fromkeys(_sweep_config(size, bits) for *_, size, bits in POINTS)
)


def _mean_ipc(config: SimulationConfig, names: Sequence[str], scale: Scale) -> float:
    return geometric_mean(simulate(name, config, scale).ipc for name in names)


def run(
    scale: Scale = Scale.STANDARD,
    benchmarks: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    names = suite_order(benchmarks)
    series: Dict[str, Dict[str, float]] = {
        "shared_pht_ipc": {},
        "full_index_pht_ipc": {},
        "index_bits_ipc": {},
    }
    rows: List[List[object]] = []

    base_ipc = _mean_ipc(CONFIGS[0], names, scale)
    rows.append(["baseline", "-", base_ipc])

    for curve, key, sweep, size, bits in POINTS:
        ipc = _mean_ipc(_sweep_config(size, bits), names, scale)
        series[curve][key] = ipc
        rows.append([f"PHT {size // KB}KB, n={bits}", sweep, ipc])

    shared = series["shared_pht_ipc"]
    gain_to_8k = (shared["8KB"] / shared["2KB"] - 1.0) * 100.0
    gain_past_8k = (shared[f"{SHARED_SIZES[-1] // KB}KB"] / shared["8KB"] - 1.0) * 100.0
    notes = [
        f"Shared PHT: 2KB->8KB buys {gain_to_8k:+.1f}% mean IPC; growing "
        f"8KB->8MB buys only {gain_past_8k:+.1f}% more (the paper's "
        "diminishing-returns knee at 8KB).",
        "Index-bit sweep (8KB PHT): "
        + ", ".join(f"n={b}: {series['index_bits_ipc'][str(b)]:.3f}" for b in INDEX_BITS)
        + " — 0-1 bits comparable, more bits degrade.",
    ]
    return ExperimentResult(
        experiment="fig13",
        title="Mean IPC vs PHT size and vs miss-index bits",
        headers=["configuration", "sweep", "geomean IPC"],
        rows=rows,
        series=series,
        notes=notes,
    )
