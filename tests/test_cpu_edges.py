"""Edge-case tests for the core timing model not covered elsewhere."""

import numpy as np
import pytest

from repro.cpu import CoreParams, CoreResult, OutOfOrderCore
from repro.memory import HierarchyParams, MemoryHierarchy
from repro.workloads.trace import Trace


def trace_of(addrs, gaps=None, base_ipc=4.0):
    n = len(addrs)
    return Trace(
        name="e",
        addrs=np.asarray(addrs, dtype=np.uint64),
        pcs=np.full(n, 0x1000, dtype=np.uint64),
        is_load=np.ones(n, dtype=bool),
        gaps=(np.full(n, 3, dtype=np.uint16) if gaps is None
              else np.asarray(gaps, dtype=np.uint16)),
        deps=np.zeros(n, dtype=np.int32),
        base_ipc=base_ipc,
    )


def hierarchy():
    return MemoryHierarchy(HierarchyParams(ideal_l2=True, model_icache=False))


class TestFrontend:
    def test_frontend_depth_charged_once(self):
        deep = OutOfOrderCore(CoreParams(frontend_depth=100))
        shallow = OutOfOrderCore(CoreParams(frontend_depth=1))
        trace = trace_of([0x100] * 50)
        slow = deep.run(trace, hierarchy())
        fast = shallow.run(trace, hierarchy())
        assert slow.cycles == pytest.approx(fast.cycles + 99, abs=5)

    def test_base_ipc_below_width_binds(self):
        trace_slow = trace_of([0x100] * 1000, base_ipc=2.0)
        trace_fast = trace_of([0x100] * 1000, base_ipc=8.0)
        slow = OutOfOrderCore().run(trace_slow, hierarchy())
        fast = OutOfOrderCore().run(trace_fast, hierarchy())
        assert fast.ipc > 1.5 * slow.ipc

    def test_variable_gaps_accounted(self):
        trace = trace_of([0x100] * 10, gaps=[0, 10, 0, 10, 0, 10, 0, 10, 0, 10])
        result = OutOfOrderCore().run(trace, hierarchy())
        assert result.instructions == 10 + 50


class TestCoreResultContainer:
    def test_zero_cycle_guard(self):
        result = CoreResult(instructions=0, cycles=0.0, accesses=0)
        assert result.ipc == 0.0
        assert result.cpi == 0.0

    def test_ipc_cpi_inverse(self):
        result = CoreResult(instructions=100, cycles=50.0, accesses=10)
        assert result.ipc == pytest.approx(2.0)
        assert result.cpi == pytest.approx(0.5)


class TestWarmupEdges:
    def test_full_warmup_minus_one(self):
        trace = trace_of([0x100] * 100)
        result = OutOfOrderCore().run(trace, hierarchy(), warmup=99)
        assert result.accesses == 1
        assert result.instructions > 0
        assert result.cycles > 0

    def test_warmup_zero_equals_no_warmup(self):
        trace = trace_of([0x100] * 100)
        a = OutOfOrderCore().run(trace, hierarchy(), warmup=0)
        b = OutOfOrderCore().run(trace, hierarchy())
        assert a.cycles == b.cycles

    def test_negative_warmup_rejected(self):
        core = OutOfOrderCore()
        # steps() must refuse at the call, before the first next().
        for enter in (core.run, core.steps):
            with pytest.raises(ValueError):
                enter(trace_of([0x100]), hierarchy(), warmup=-1)


class TestLongDependences:
    def test_dependence_beyond_default_ring(self):
        """A dependence distance larger than the LSQ/512 default ring
        must still read the correct producer (imported traces may have
        arbitrarily long edges)."""
        n = 1500
        deps = np.zeros(n, dtype=np.int32)
        deps[-1] = 1400  # depends on access 99
        trace = Trace(
            name="longdep",
            addrs=np.full(n, 0x100, dtype=np.uint64),
            pcs=np.full(n, 0x1000, dtype=np.uint64),
            is_load=np.ones(n, dtype=bool),
            gaps=np.zeros(n, dtype=np.uint16),
            deps=deps,
            base_ipc=4.0,
        )
        result = OutOfOrderCore().run(trace, hierarchy())
        assert result.ipc > 0
