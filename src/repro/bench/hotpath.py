"""The hot-path benchmark: measure per-access simulator throughput.

For every (workload, prefetcher) pair the benchmark runs the same
trace twice — once under the engine loop
(:meth:`~repro.cpu.core.OutOfOrderCore.run`) and once under the
legacy reference driver (:func:`~repro.bench.legacy.run_legacy`) —
each on a cold machine, taking the best of ``repeats`` timed runs.
Both drivers must commit the same cycle count (checked here and
asserted by ``benchmarks/test_hotpath_perf.py``); their throughput
ratio is the engine layer's speedup, a number that is comparable
across hosts because both arms ran on the same interpreter and
machine.

The default mix covers the behaviours that dominate the Figure 11
campaign: a dense-stride scientific workload (``swim``), a
pointer-chasing memory-bound one (``mcf``), and an irregular
instruction-heavy one (``gcc``), each under no prefetcher, the
next-line baseline, and the paper's TCP-8K — so both the L1-hit fast
path and the miss/prefetch path are weighed.

The result is written to ``BENCH_hotpath.json``; the committed copy
at the repository root is the baseline the CI perf-smoke job compares
against.
"""

from __future__ import annotations

import json
import platform
import time
from typing import Dict, List, Optional, Sequence, TextIO, Tuple

from repro.bench.legacy import run_legacy
from repro.cpu import OutOfOrderCore
from repro.memory import MemoryHierarchy
from repro.sim.config import SimulationConfig
from repro.workloads import Scale, Trace, generate

__all__ = [
    "DEFAULT_PREFETCHERS",
    "DEFAULT_WORKLOADS",
    "SCHEMA",
    "run_hotpath_bench",
]

#: schema tag embedded in every result file (bump on layout changes).
SCHEMA = "repro-tcp/hotpath-bench/v1"

#: the fig11-mix defaults (see module docstring for the rationale).
DEFAULT_WORKLOADS: Tuple[str, ...] = ("swim", "mcf", "gcc")
DEFAULT_PREFETCHERS: Tuple[str, ...] = ("none", "nextline", "tcp-8k")


def _time_engine(trace: Trace, config: SimulationConfig) -> Tuple[float, float]:
    """One cold engine-loop run; returns (seconds, committed cycles)."""
    hierarchy = MemoryHierarchy(config.hierarchy)
    hierarchy.attach_prefetcher(config.build_prefetcher())
    core = OutOfOrderCore(config.core)
    started = time.perf_counter()
    result = core.run(trace, hierarchy)
    return time.perf_counter() - started, result.cycles


def _time_legacy(trace: Trace, config: SimulationConfig) -> Tuple[float, float]:
    """One cold legacy-driver run; returns (seconds, committed cycles)."""
    hierarchy = MemoryHierarchy(config.hierarchy)
    hierarchy.attach_prefetcher(config.build_prefetcher())
    started = time.perf_counter()
    result = run_legacy(trace, hierarchy, config.core)
    return time.perf_counter() - started, result.cycles


def _best_of(runs: int, timer, trace: Trace, config: SimulationConfig) -> Tuple[float, float]:
    """Fastest of ``runs`` cold runs; returns (best seconds, cycles).

    Best-of, not mean-of: scheduling noise only ever adds time, so the
    minimum is the closest observable to the code's true cost.
    """
    best = float("inf")
    cycles = 0.0
    for _ in range(runs):
        elapsed, cycles = timer(trace, config)
        if elapsed < best:
            best = elapsed
    return best, cycles


def _geomean(values: Sequence[float]) -> float:
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values)) if values else 0.0


def run_hotpath_bench(
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    prefetchers: Sequence[str] = DEFAULT_PREFETCHERS,
    scale: Scale = Scale.STANDARD,
    repeats: int = 3,
    output: Optional[str] = None,
    log: Optional[TextIO] = None,
) -> Dict[str, object]:
    """Run the hot-path benchmark; return (and optionally write) results.

    Parameters
    ----------
    workloads, prefetchers:
        The (workload, prefetcher) grid to time.
    scale:
        Trace length per run (``Scale.STANDARD`` = 120 000 accesses).
    repeats:
        Timed runs per cell per driver; the fastest is reported.
    output:
        Path to write the JSON document to (``BENCH_hotpath.json``).
    log:
        Stream for one progress line per cell (e.g. ``sys.stdout``).
    """
    if repeats <= 0:
        raise ValueError(f"repeats must be positive, got {repeats}")
    results: List[Dict[str, object]] = []
    for workload in workloads:
        trace = generate(workload, scale)
        accesses = len(trace)
        for name in prefetchers:
            config = SimulationConfig.for_prefetcher(name)
            engine_s, engine_cycles = _best_of(repeats, _time_engine, trace, config)
            legacy_s, legacy_cycles = _best_of(repeats, _time_legacy, trace, config)
            if engine_cycles != legacy_cycles:
                raise RuntimeError(
                    f"driver divergence on {workload}/{name}: engine committed "
                    f"{engine_cycles!r} cycles, legacy {legacy_cycles!r}"
                )
            entry: Dict[str, object] = {
                "workload": workload,
                "prefetcher": name,
                "accesses": accesses,
                "accesses_per_sec": accesses / engine_s,
                "legacy_accesses_per_sec": accesses / legacy_s,
                "speedup": legacy_s / engine_s,
                "cycles": engine_cycles,
            }
            results.append(entry)
            if log is not None:
                log.write(
                    f"{workload:8s} {name:10s} "
                    f"{entry['accesses_per_sec']:10.0f} acc/s  "
                    f"(legacy {entry['legacy_accesses_per_sec']:10.0f}, "
                    f"speedup {entry['speedup']:.2f}x)\n"
                )
                log.flush()

    speedups = [entry["speedup"] for entry in results]
    document: Dict[str, object] = {
        "schema": SCHEMA,
        "scale": scale.name.lower(),
        "repeats": repeats,
        # Both arms time the interpreted per-access loop, i.e. the
        # "python" backend's engine; the native backend has its own
        # bench (repro.bench.backend -> BENCH_backend.json).
        "backend": "python",
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "results": results,
        "geomean_speedup": _geomean(speedups),
        "min_speedup": min(speedups) if speedups else 0.0,
    }
    if output is not None:
        with open(output, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=False)
            handle.write("\n")
    return document
