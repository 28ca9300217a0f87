"""The native backend is at least 3x the python loop, on fresh timings.

Both arms run the same QUICK trace on a cold machine, interleaved,
best of three each; the ratio compares two loops on one interpreter
and host, so no committed baseline is needed.  The ledger
(``python3 -m ledger``) times the end-to-end evaluation.
"""

import math
import time

import pytest

from repro.backend import get_backend
from repro.backend.native import build as native_build
from repro.memory import MemoryHierarchy
from repro.sim.config import SimulationConfig
from repro.workloads import Scale, generate

WORKLOADS = ("swim", "mcf", "gcc")
PREFETCHERS = ("none", "nextline", "tcp-8k", "dbcp-2m")
REPEATS = 3


def _timed(backend, trace, config):
    machine = MemoryHierarchy(config.hierarchy)
    machine.attach_prefetcher(config.build_prefetcher())
    started = time.perf_counter()
    result = get_backend(backend).run(trace, machine, config.core)
    return time.perf_counter() - started, (result, machine.stats)


def test_native_is_three_times_the_python_loop():
    if native_build.load() is None:
        pytest.skip(f"native extension unavailable ({native_build.load_error()})")
    ratios = []
    for workload in WORKLOADS:
        trace = generate(workload, Scale.QUICK)
        for prefetcher in PREFETCHERS:
            config = SimulationConfig.for_prefetcher(prefetcher)
            best = {"python": math.inf, "native": math.inf}
            outcome = {}
            for _ in range(REPEATS):
                for backend in best:
                    elapsed, outcome[backend] = _timed(backend, trace, config)
                    best[backend] = min(best[backend], elapsed)
            assert outcome["native"] == outcome["python"], (workload, prefetcher)
            ratios.append(best["python"] / best["native"])
            print(f"{workload:5s} {prefetcher:8s} {ratios[-1]:5.2f}x")
    geomean = math.exp(sum(map(math.log, ratios)) / len(ratios))
    print(f"geomean native/python: {geomean:.2f}x")
    assert geomean >= 3.0, f"native is only {geomean:.2f}x the python loop"
