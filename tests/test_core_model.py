"""Tests for the out-of-order core timing model (repro.cpu.core)."""

import numpy as np
import pytest

from repro.cpu import CoreParams, CoreResult, OutOfOrderCore
from repro.engine.probes import ProgressProbe
from repro.memory import HierarchyParams, MemoryHierarchy
from repro.workloads.trace import Trace


def make_trace(addrs, gaps=None, deps=None, is_load=None, base_ipc=4.0, name="t"):
    n = len(addrs)
    return Trace(
        name=name,
        addrs=np.asarray(addrs, dtype=np.uint64),
        pcs=np.full(n, 0x1000, dtype=np.uint64),
        is_load=(np.ones(n, dtype=bool) if is_load is None
                 else np.asarray(is_load, dtype=bool)),
        gaps=(np.full(n, 4, dtype=np.uint16) if gaps is None
              else np.asarray(gaps, dtype=np.uint16)),
        deps=(np.zeros(n, dtype=np.int32) if deps is None
              else np.asarray(deps, dtype=np.int32)),
        base_ipc=base_ipc,
    )


def hierarchy(ideal=True):
    return MemoryHierarchy(HierarchyParams(ideal_l2=ideal, model_icache=False))


def run(trace, h=None, params=CoreParams(), warmup=0):
    h = h or hierarchy()
    return OutOfOrderCore(params).run(trace, h, warmup=warmup)


class TestBasics:
    def test_empty_trace(self):
        result = run(make_trace([]))
        assert result.instructions == 0
        assert result.ipc == 0.0

    def test_ipc_bounded_by_dispatch_rate(self):
        # all-hit workload: IPC approaches min(width, base_ipc)
        trace = make_trace([0x100] * 2000, base_ipc=4.0)
        result = run(trace)
        assert result.ipc <= 4.0 + 1e-6
        assert result.ipc > 3.0

    def test_issue_width_caps_ipc(self):
        trace = make_trace([0x100] * 2000, base_ipc=100.0)
        result = run(trace, params=CoreParams(issue_width=8))
        assert result.ipc <= 8.0 + 1e-6

    def test_instruction_count_includes_gaps(self):
        trace = make_trace([0x100] * 10, gaps=[9] * 10)
        result = run(trace)
        assert result.instructions == 100

    def test_warmup_excludes_prefix(self):
        trace = make_trace([0x100] * 1000)
        full = run(trace)
        measured = run(trace, warmup=500)
        assert measured.instructions < full.instructions
        assert measured.cycles < full.cycles

    def test_warmup_bounds_checked(self):
        trace = make_trace([0x100] * 10)
        with pytest.raises(ValueError):
            run(trace, warmup=10)

    def test_invalid_core_params(self):
        with pytest.raises(ValueError):
            CoreParams(issue_width=0)


class TestMemoryBehaviour:
    def test_misses_reduce_ipc(self):
        hits = make_trace([0x100] * 3000)
        # stride through 4MB: every block a cold miss
        misses = make_trace(np.arange(3000, dtype=np.uint64) * 32 + 0x10000000)
        ipc_hits = run(hits, hierarchy(ideal=True)).ipc
        ipc_misses = run(misses, hierarchy(ideal=False)).ipc
        assert ipc_misses < ipc_hits * 0.7

    def test_independent_misses_overlap(self):
        """MLP: independent misses overlap inside the window; dependent
        ones serialize.  Same addresses, different dependence edges."""
        addrs = np.arange(2000, dtype=np.uint64) * 32 + 0x10000000
        independent = make_trace(addrs)
        chained = make_trace(addrs, deps=[0] + [1] * 1999)
        ipc_mlp = run(independent, hierarchy(ideal=False)).ipc
        ipc_serial = run(chained, hierarchy(ideal=False)).ipc
        assert ipc_mlp > 2.0 * ipc_serial

    def test_window_bounds_overlap(self):
        """A smaller instruction window exposes more miss latency."""
        addrs = np.arange(2000, dtype=np.uint64) * 32 + 0x10000000
        trace = make_trace(addrs, gaps=[2] * 2000)
        big = run(trace, hierarchy(ideal=False), CoreParams(window=256, lsq=256)).ipc
        small = run(trace, hierarchy(ideal=False), CoreParams(window=16, lsq=16)).ipc
        assert big > small

    def test_stores_do_not_stall_commit(self):
        addrs = np.arange(2000, dtype=np.uint64) * 32 + 0x10000000
        loads = make_trace(addrs)
        stores = make_trace(addrs, is_load=[False] * 2000)
        ipc_loads = run(loads, hierarchy(ideal=False)).ipc
        ipc_stores = run(stores, hierarchy(ideal=False)).ipc
        assert ipc_stores > ipc_loads  # store buffer hides the latency

    def test_l2_hits_mostly_tolerated(self):
        """The paper's Section 5.1: L2-hit latency is largely hidden by
        the window; memory latency is not."""
        addrs = (np.arange(4000, dtype=np.uint64) % 2048) * 32 + 0x10000000
        trace = make_trace(addrs, gaps=[6] * 4000)
        ideal = run(trace, hierarchy(ideal=True)).ipc
        l2_hits = run(trace.slice(4000), hierarchy(ideal=False))
        # (after the first lap the 2048 blocks fit in L2 but not in L1)
        assert l2_hits.ipc > 0.45 * ideal

    def test_deterministic(self):
        addrs = np.arange(1000, dtype=np.uint64) * 64
        first = run(make_trace(addrs), hierarchy(ideal=False))
        second = run(make_trace(addrs), hierarchy(ideal=False))
        assert first.cycles == second.cycles


def drain(stepper):
    """Every clock a stepper yields, and the result it returns."""
    clocks = []
    while True:
        try:
            clocks.append(next(stepper))
        except StopIteration as done:
            return clocks, done.value


class TestStepper:
    def trace(self):
        addrs = (np.arange(3000, dtype=np.uint64) * 7919 % 4096) * 64
        deps = np.where(np.arange(3000) % 5 == 4, 3, 0)
        return make_trace(addrs, deps=deps, gaps=np.arange(3000) % 9)

    def test_yields_one_nondecreasing_clock_per_access(self):
        trace = self.trace()
        clocks, _ = drain(OutOfOrderCore().steps(trace, hierarchy(ideal=False)))
        assert len(clocks) == len(trace)
        assert all(a <= b for a, b in zip(clocks, clocks[1:]))

    def test_returns_what_run_returns(self):
        trace = self.trace()
        marks = {"run": [], "steps": []}

        def probe(key):
            return ProgressProbe(
                lambda done, total, t: marks[key].append((done, t)), interval=64
            )

        core = OutOfOrderCore()
        ran = core.run(
            trace, hierarchy(ideal=False), warmup=700, probes=[probe("run")]
        )
        _, stepped = drain(
            core.steps(
                trace, hierarchy(ideal=False), warmup=700, probes=[probe("steps")]
            )
        )
        assert stepped == ran
        assert marks["steps"] == marks["run"]
        assert len(marks["run"]) == len(trace) // 64

    def test_empty_trace_yields_nothing(self):
        clocks, result = drain(OutOfOrderCore().steps(make_trace([]), hierarchy()))
        assert clocks == []
        assert result == CoreResult(0, 0.0, 0)


class TestCoreResult:
    def test_cpi_is_inverse(self):
        result = run(make_trace([0x100] * 100))
        assert result.cpi == pytest.approx(1.0 / result.ipc)
