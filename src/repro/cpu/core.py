"""Trace-driven out-of-order core timing model.

The model walks the memory-access trace once, in program order, and
computes for every access its dispatch, issue, completion, and commit
times under the structural constraints of the paper's core (Table 1):

* **Frontend / dispatch**: instructions enter the window at
  ``min(issue_width, workload base ILP)`` per cycle.  Instruction-cache
  misses (modelled by the hierarchy) stall dispatch.
* **Window (RUU)**: instruction *i* cannot dispatch until instruction
  ``i - window`` has committed.  This is what bounds memory-level
  parallelism: once the window fills behind a long miss, the machine
  stalls — exactly the behaviour Section 5.1 describes.
* **LSQ**: at most ``lsq`` memory operations between dispatch and
  commit.
* **Load/store units**: memory operations issue at most
  ``ls_units`` per cycle.
* **Dependences**: an access whose address depends on an earlier
  load's data (``deps[i] = d``) cannot issue before that load
  completes — dependent misses serialize (pointer chasing).
* **Commit**: in order; a load commits when its data has returned,
  a store retires into the store buffer one cycle after issue.

The result is the classic "windowed" analytic OoO model: exact for the
mechanisms above, abstracting register-level scheduling, which is
sufficient (and standard) for studying cache/prefetcher trade-offs.

Hot-loop engineering notes
--------------------------
* The vectorised address split and every trace column are converted to
  plain Python lists once per run (``.tolist()``): per-element numpy
  scalar indexing plus ``int()`` conversion costs more than the whole
  rest of the loop body for hit-dominated workloads.
* The loop calls :meth:`~repro.memory.hierarchy.MemoryHierarchy.
  access_time` — the engine's float-returning fast path — so the
  common L1-hit access allocates nothing.
* Observation (progress heartbeats, the runtime sanitizer, custom
  taps) attaches through :mod:`repro.engine.probes`; the loop itself
  pays one integer compare per access and fires all probes at shared
  periodic marks.
* The loop is written once, as the generator behind
  :meth:`OutOfOrderCore.steps`, which yields the dispatch clock after
  every access.  :meth:`OutOfOrderCore.run` drains it; the multicore
  interleaver steps one per core.  One generator resume per access
  is small next to the loop body itself.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Generator, Optional, Sequence, Tuple

from repro.engine.probes import CoreMark, Probe
from repro.memory.hierarchy import MemoryHierarchy
from repro.workloads.trace import Trace

__all__ = ["CoreParams", "CoreResult", "OutOfOrderCore"]


@dataclass(frozen=True)
class CoreParams:
    """Core parameters (defaults are the paper's Table 1)."""

    issue_width: int = 8
    window: int = 128  # RUU entries
    lsq: int = 128
    ls_units: int = 4
    #: pipeline depth charged once at the start of the run.
    frontend_depth: int = 10

    def __post_init__(self) -> None:
        if min(self.issue_width, self.window, self.lsq, self.ls_units) <= 0:
            raise ValueError("all core resources must be positive")


@dataclass
class CoreResult:
    """Timing outcome of one run."""

    instructions: int
    cycles: float
    accesses: int

    @property
    def ipc(self) -> float:
        """Committed instructions per cycle."""
        return self.instructions / self.cycles if self.cycles > 0 else 0.0

    @property
    def cpi(self) -> float:
        """Cycles per instruction."""
        return self.cycles / self.instructions if self.instructions else 0.0


class OutOfOrderCore:
    """Runs a trace against a memory hierarchy and reports IPC."""

    def __init__(self, params: CoreParams = CoreParams()) -> None:
        self.params = params

    def run(
        self,
        trace: Trace,
        hierarchy: MemoryHierarchy,
        warmup: int = 0,
        probes: Optional[Sequence[Probe]] = None,
    ) -> CoreResult:
        """Simulate the whole trace; returns the timing result.

        ``warmup`` accesses at the start train all state (caches,
        predictors, prefetchers) but are excluded from the reported
        instruction/cycle counts — the analogue of the paper skipping
        the first billion instructions.  The hierarchy accumulates its
        own statistics during the run; callers read them from
        ``hierarchy.stats`` (and snapshot/``since`` for warmup
        exclusion).

        Observation attaches through ``probes`` (:mod:`repro.engine.
        probes`), fired in list order at shared marks spaced by the
        smallest attached interval; an uninstrumented run pays exactly
        one integer compare per access.  Probes' ``on_finalize`` is NOT
        called here — end-of-run hooks belong to the caller, after
        ``hierarchy.finalize()``.
        """
        stepper = self.steps(trace, hierarchy, warmup, probes)
        step = stepper.__next__
        try:
            while True:
                step()
        except StopIteration as done:
            return done.value

    def steps(
        self,
        trace: Trace,
        hierarchy: MemoryHierarchy,
        warmup: int = 0,
        probes: Optional[Sequence[Probe]] = None,
    ) -> Generator[float, None, CoreResult]:
        """:meth:`run` as a resumable stepper.

        Returns a generator that performs one access per ``next()`` and
        yields the core-local dispatch clock after it (the next access
        cannot dispatch earlier); its return value — the
        ``StopIteration.value`` — is the :class:`CoreResult` that
        :meth:`run` reports.  The multicore interleaver
        (:mod:`repro.multicore.engine`) steps several of these against
        one shared hierarchy.  Arguments are checked here, at the call,
        not at the first ``next()``.
        """
        n = len(trace)
        if not 0 <= warmup < max(n, 1):
            raise ValueError(f"warmup ({warmup}) must be < trace length ({n})")
        return self._steps(trace, hierarchy, warmup, tuple(probes or ()))

    def _steps(
        self,
        trace: Trace,
        hierarchy: MemoryHierarchy,
        warmup: int,
        active_probes: Tuple[Probe, ...],
    ) -> Generator[float, None, CoreResult]:
        params = self.params
        n = len(trace)
        if n == 0:
            return CoreResult(0, 0.0, 0)

        geometry = hierarchy.params.l1d
        blocks_arr, indices_arr, tags_arr = geometry.decompose_array(trace.addrs)
        max_dep = int(trace.deps.max())
        # One bulk conversion to Python scalars: list indexing yields
        # ready-to-use ints/bools, where numpy scalar indexing would
        # box a numpy scalar per element and need an int() call on
        # every use.
        blocks = blocks_arr.tolist()
        indices = indices_arr.tolist()
        tags = tags_arr.tolist()
        gaps = trace.gaps.tolist()
        deps = trace.deps.tolist()
        is_load = trace.is_load.tolist()
        pcs = trace.pcs.tolist()
        model_icache = hierarchy.params.model_icache
        access_time = hierarchy.access_time
        ifetch = hierarchy.instruction_fetch
        # The sequential-fetch filter (same instruction block as last
        # cycle -> no cache activity) is inlined here; the hierarchy
        # applies the identical check inside instruction_fetch, so the
        # two block trackers stay in lockstep.
        ifetch_offset_bits = hierarchy.params.l1i.offset_bits
        last_ifetch_block = hierarchy._last_ifetch_block

        dispatch_rate = min(float(params.issue_width), trace.base_ipc)
        commit_rate = float(params.issue_width)
        window = params.window
        lsq = params.lsq
        ls_interval = 1.0 / params.ls_units

        # Ring buffers sized to the maximum lookback any constraint
        # needs: the LSQ depth, and the longest dependence distance in
        # the trace (suite workloads use short distances, but imported
        # traces may not).
        ring = 1
        while ring < max(lsq, max_dep + 1, 512):
            ring <<= 1
        ring_mask = ring - 1
        completions = [0.0] * ring  # data-ready time per access
        commits = [0.0] * ring      # commit time per access

        # Window occupancy: (instruction number, commit time) of
        # in-flight memory accesses, in program order.
        rob: deque = deque()
        rob_append = rob.append
        rob_popleft = rob.popleft

        now_dispatch = float(params.frontend_depth)
        last_mem_issue = 0.0
        last_commit = 0.0
        instr_num = 0
        warmup_instr = 0
        warmup_commit = 0.0
        inv_commit_rate = 1.0 / commit_rate

        if active_probes:
            mark_interval = min(probe.interval for probe in active_probes)
            next_mark = mark_interval
        else:
            # The sentinel n + 1 never matches, so an uninstrumented
            # run pays exactly one integer compare per access.
            mark_interval = 0
            next_mark = n + 1

        for i in range(n):
            if i == warmup and warmup:
                warmup_instr = instr_num
                warmup_commit = last_commit
                hierarchy.mark_warmup_end()
            gap = gaps[i]
            instr_num += gap + 1

            # --- dispatch: frontend bandwidth + window occupancy ------
            now_dispatch += (gap + 1) / dispatch_rate
            window_floor = instr_num - window
            while rob and rob[0][0] <= window_floor:
                entry = rob_popleft()
                if entry[1] > now_dispatch:
                    now_dispatch = entry[1]
            if i >= lsq:
                lsq_release = commits[(i - lsq) & ring_mask]
                if lsq_release > now_dispatch:
                    now_dispatch = lsq_release

            if model_icache:
                pc = pcs[i]
                fetch_block = pc >> ifetch_offset_bits
                if fetch_block != last_ifetch_block:
                    last_ifetch_block = fetch_block
                    penalty = ifetch(now_dispatch, pc)
                    if penalty > 0.0:
                        now_dispatch += penalty

            # --- issue: LS-unit throughput + address dependence -------
            issue = now_dispatch
            if last_mem_issue + ls_interval > issue:
                issue = last_mem_issue + ls_interval
            dep = deps[i]
            if dep:
                data_ready = completions[(i - dep) & ring_mask]
                if data_ready > issue:
                    issue = data_ready
            last_mem_issue = issue

            # --- memory access ----------------------------------------
            load = is_load[i]
            completion = access_time(
                issue, indices[i], tags[i], blocks[i], not load, pcs[i]
            )
            if not load:
                # Stores retire into the store buffer; the cache/bus
                # work was performed above for state and bandwidth.
                completion = issue + 1.0
            completions[i & ring_mask] = completion

            # --- in-order commit --------------------------------------
            commit = last_commit + inv_commit_rate
            if completion > commit:
                commit = completion
            last_commit = commit
            commits[i & ring_mask] = commit
            rob_append((instr_num, commit))

            if i + 1 == next_mark:
                next_mark += mark_interval
                mark = CoreMark(i + 1, n, len(rob), window, last_commit, now_dispatch)
                for probe in active_probes:
                    probe.on_mark(mark, hierarchy)

            yield now_dispatch

        total_instructions = trace.instruction_count
        trailing = total_instructions - instr_num
        measured_instructions = total_instructions - warmup_instr
        cycles = last_commit + trailing / dispatch_rate - warmup_commit
        return CoreResult(measured_instructions, cycles, n - warmup)
