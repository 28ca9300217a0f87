"""The native core loop: each span between marks is one C call.

:class:`NativeCore` runs the reference loop of :mod:`repro.cpu.core`
through :class:`repro.backend.native._native.Engine`, a C extension
that steps dispatch, instruction fetch, issue, the direct-mapped L1D
probe and the flattened demand-miss path (lazy-deletion MSHR heap, THT
running-sum history, PHT truncated-add indexing, L2 set probe/fill/
LRU, prefetch issue) for a whole range of accesses.  The driver here
splits the trace into *spans* at probe marks and the warmup point and
hands each span to ``Engine.step`` as one range; between spans it
flushes the engine's counters into ``hierarchy.stats`` and lets
``Engine.sync_out``/``sync_in`` mirror component state, so probes see
exactly the state the reference loop would show at the same mark.

The C code performs the same IEEE double operations in the same order
as the reference loop, so results stay bit-identical.  The only Python
re-entries are instruction fetches (the L1I lookup at every fetch-block
change, the full fetch on an L1I miss), generic (non-TCP, non-null)
prefetcher hooks, and L1 eviction events.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.backend.native import build
from repro.core.indexing import IndexFunction
from repro.core.tcp import TagCorrelatingPrefetcher
from repro.cpu.core import CoreParams, CoreResult
from repro.engine.events import EvictionEvent, MissEvent
from repro.engine.probes import CoreMark, Probe
from repro.memory.cache import CacheLine
from repro.memory.hierarchy import MemoryHierarchy
from repro.prefetchers.null import NullPrefetcher
from repro.util.bitops import index_geometry
from repro.workloads.trace import Trace

__all__ = ["NativeCore"]

#: single-slot memo for `_trace_planes` — (key, trace, planes).  One
#: slot bounds the held memory to a single trace; the pinned trace
#: reference keeps the id() in the key from being recycled by a new
#: object at the same address.
_PLANE_SLOT: Optional[tuple] = None


def _trace_planes(trace: Trace, hierarchy: MemoryHierarchy) -> dict:
    """The trace columns the C loop reads, memoised for the last
    (trace, machine geometry) pair.

    Everything here is a pure function of the trace and the machine
    geometry, so repeated runs over the same trace (campaign cells
    re-simulated under several prefetchers, bench arms) skip the O(n)
    address split.
    """
    global _PLANE_SLOT
    hp = hierarchy.params
    key = (
        id(trace),
        len(trace),
        hp.l1d,
        hp.l1i,
        hp.model_icache,
        hierarchy._l2_shift,
        hierarchy._l2_index_mask,
        hierarchy._l2_index_bits,
    )
    if _PLANE_SLOT is not None and _PLANE_SLOT[0] == key:
        return _PLANE_SLOT[2]
    blocks, indices, tags = hp.l1d.decompose_array(trace.addrs)
    steps = trace.gaps.astype(np.int64) + 1
    l2b = blocks >> hierarchy._l2_shift
    pcs = np.ascontiguousarray(trace.pcs, dtype=np.uint64)
    planes = {
        "idx": indices,
        "instr": np.cumsum(steps),  # int64: exact
        "blocks": blocks,
        "tags": tags,
        "deps": np.ascontiguousarray(trace.deps, dtype=np.int64),
        "load": trace.is_load.astype(np.uint8),
        "l2i": np.ascontiguousarray(l2b & hierarchy._l2_index_mask),
        "l2t": np.ascontiguousarray(l2b >> hierarchy._l2_index_bits),
        "pcs": pcs,
        "fb": (
            (pcs >> np.uint64(hp.l1i.offset_bits)).astype(np.int64)
            if hp.model_icache
            else None
        ),
        "steps": steps.astype(np.float64),
        "incs": {},  # dispatch_rate -> per-access dispatch increments
    }
    _PLANE_SLOT = (key, trace, planes)
    return planes


class NativeCore:
    """Bit-exact replacement for ``OutOfOrderCore`` backed by C.

    Valid for a direct-mapped L1D, no access-stream observers, no L1
    promotions, and a set-associative L2; requires the ``_native``
    extension to be importable (see :mod:`repro.backend.native.build`).
    """

    def __init__(self, params: CoreParams = CoreParams()) -> None:
        self.params = params
        #: nanoseconds spent inside ``Engine.step`` over the last run
        #: (the ledger reads this key).
        self.engine_stats = {"epilogue_ns": 0}

    def run(
        self,
        trace: Trace,
        hierarchy: MemoryHierarchy,
        warmup: int = 0,
        probes: Optional[Sequence[Probe]] = None,
    ) -> CoreResult:
        native = build.load()
        if native is None:
            raise RuntimeError(
                f"native extension unavailable: {build.load_error()}"
            )
        params = self.params
        n = len(trace)
        if not 0 <= warmup < max(n, 1):
            raise ValueError(f"warmup ({warmup}) must be < trace length ({n})")
        if n == 0:
            return CoreResult(0, 0.0, 0)
        if hierarchy._l1_lines is None:
            raise ValueError("NativeCore requires a direct-mapped L1D")
        if hierarchy._needs_access or hierarchy._promotions_enabled:
            raise ValueError(
                "NativeCore cannot model access-stream observers or L1 "
                "promotions (use the python backend)"
            )
        if hierarchy.l2d._direct_mapped:
            raise ValueError("NativeCore requires a set-associative L2")
        active_probes = tuple(probes or ())
        self.engine_stats = {"epilogue_ns": 0}

        planes = _trace_planes(trace, hierarchy)
        instr = planes["instr"]
        dispatch_rate = min(float(params.issue_width), trace.base_ipc)
        incs = planes["incs"].get(dispatch_rate)
        if incs is None:
            incs = planes["incs"][dispatch_rate] = planes["steps"] / dispatch_rate

        hp = hierarchy.params
        mshr = hierarchy.mshr
        l1i = hierarchy.l1i
        l1i_bits, l1i_mask = index_geometry(hp.l1i.sets)
        l1_ib = hierarchy._l1_index_bits
        hier_stats = hierarchy.stats

        prefetcher = hierarchy.prefetcher
        pstats = prefetcher.stats if prefetcher is not None else None
        null_fast = type(prefetcher) is NullPrefetcher
        tcp_fast = (
            type(prefetcher) is TagCorrelatingPrefetcher
            and prefetcher.pht.config.index_function is IndexFunction.TRUNCATED_ADD
            and not prefetcher.into_l1
            # C indexes THT rows by L1 set without a bounds check
            and len(prefetcher.tht._history) == len(hierarchy._l1_lines)
        )
        if tcp_fast:
            tht = prefetcher.tht
            pht = prefetcher.pht
            scheme = pht._scheme
            spec_tcp = {
                "pht_sets": pht._sets,
                "tht_hist": tht._history,
                "seq_mask": scheme._sequence_mask,
                "miss_mask": scheme._miss_mask,
                "n_bits": scheme.miss_index_bits,
                "tht_ib": tht.index_bits,
                "pht_ways": pht.config.ways,
                "pht_targets": pht.config.targets,
            }
        else:
            spec_tcp = {
                "pht_sets": None,
                "tht_hist": None,
                "seq_mask": 0,
                "miss_mask": 0,
                "n_bits": 0,
                "tht_ib": 0,
                "pht_ways": 0,
                "pht_targets": 0,
            }

        resident: set = set()  # L1I-resident fetch blocks (shared with C)
        eng = native.Engine({
            # trace planes
            "idx": planes["idx"],
            "instr": instr,
            "blocks": planes["blocks"],
            "tags": planes["tags"],
            "deps": planes["deps"],
            "load": planes["load"],
            "incs": incs,
            "l2i": planes["l2i"],
            "l2t": planes["l2t"],
            "pcs": planes["pcs"],
            "fb": planes["fb"],
            # live containers
            "msh_inf": mshr._inflight,
            "l2_sets": hierarchy.l2d._sets,
            "l1_lines": hierarchy._l1_lines,
            "resident": resident,
            "cacheline": CacheLine,
            "l1i_lookup": l1i.lookup,
            "ab": hierarchy.l1l2_addr_bus,
            "db": hierarchy.l1l2_data_bus,
            "mab": hierarchy.mem_addr_bus,
            "mdb": hierarchy.mem_data_bus,
            "mshr": mshr,
            "memory": hierarchy.memory,
            "hierarchy": hierarchy,
            # machine scalars
            "window": params.window,
            "lsq": params.lsq,
            "ls_s": 1.0 / params.ls_units,
            "inv_cr": 1.0 / float(params.issue_width),
            "l1_lat": hierarchy._l1_latency,
            "l2_lat": hierarchy._l2_latency,
            "l1_beats": -(-hp.l1d.block_bytes // hp.l1l2_bus_bytes_per_cycle),
            "mem_beats": -(-hp.l2.block_bytes // hp.mem_bus_bytes_per_cycle),
            "mem_lat": hp.memory_latency,
            "mem_maxc": hp.memory_concurrency,
            "msh_entries": mshr.entries,
            "l2_ways": hp.l2.ways,
            "l2_shift": hierarchy._l2_shift,
            "l2_imask": hierarchy._l2_index_mask,
            "l2_ibits": hierarchy._l2_index_bits,
            "l1i_mask": l1i_mask,
            "l1i_bits": l1i_bits,
            "pf_delay": hierarchy._pf_delay,
            "pf_max": hp.max_outstanding_prefetches,
            "pf_busy_thr": float(hp.prefetch_busy_threshold),
            "lru_pf": int(hp.prefetch_insert_policy == "lru"),
            "ideal_l2": int(hierarchy._ideal_l2),
            "model_icache": int(hp.model_icache),
            "tcp_fast": int(tcp_fast),
            "null_fast": int(null_fast),
            "has_prefetcher": int(prefetcher is not None),
            "needs_evict": int(hierarchy._needs_evict),
            **spec_tcp,
        })

        ifetch = hierarchy.instruction_fetch

        def ifetch_cb(nd_now: float, pc: int, fb: int) -> float:
            # The hierarchy's sequential-fetch tracker is stale (the C
            # loop keeps its own); clear it so the real fetch never
            # early-outs.  Component state was synced by C.
            hierarchy._last_ifetch_block = -1
            pen = ifetch(nd_now, pc)
            ii = fb & l1i_mask
            keep = [b for b in resident if (b & l1i_mask) != ii]
            resident.clear()
            resident.update(keep)
            for ln in l1i.resident_lines(ii):
                resident.add((ln.tag << l1i_bits) | ii)
            return pen

        observe_miss = prefetcher.observe_miss if prefetcher is not None else None

        def observe_cb(s, tag, block, pc, store, v):
            requests = observe_miss(MissEvent(s, tag, block, pc, store, v))
            if not requests:
                return None
            return [req.block for req in requests]

        observe_evict = prefetcher.observe_eviction if prefetcher is not None else None

        def evict_cb(s, vt, comp, old_ft, old_la):
            observe_evict(
                EvictionEvent(s, vt, (vt << l1_ib) | s, comp, old_ft, old_la)
            )

        eng.set_callbacks(ifetch_cb, observe_cb, evict_cb)

        def flush_stats() -> None:
            d = eng.take_stats()
            hier_stats.demand_accesses += d["demand"]
            hier_stats.loads += d["loads"]
            hier_stats.stores += d["stores"]
            hier_stats.l1_hits += d["hits"]
            hier_stats.ifetch_accesses += d["ifetch"]
            if d["l1m"]:
                hier_stats.l1_misses += d["l1m"]
                hier_stats.l2_demand_accesses += d["l2a"]
                hier_stats.l2_demand_hits += d["l2h"]
                hier_stats.l2_demand_misses += d["l2m"]
                hier_stats.prefetched_original += d["pfo"]
                hier_stats.useful_prefetches += d["useful"]
                hier_stats.mshr_merges += d["mgd"]
                hier_stats.writebacks_l1 += d["wb1"]
                hier_stats.writebacks_l2 += d["wb2"]
                hier_stats.prefetches_requested += d["pfr"]
                hier_stats.prefetches_issued += d["pfi"]
                hier_stats.prefetch_redundant += d["pfred"]
                hier_stats.prefetch_dropped_queue += d["pfdq"]
                hier_stats.prefetch_dropped_busy += d["pfdb"]
                hier_stats.prefetch_evicted_unused += d["pfev"]
                if tcp_fast or null_fast:
                    pstats.lookups += d["pfl"]
                if tcp_fast:
                    pstats.updates += d["pfu"]
                    pstats.predictions += d["pfp"]
                    tht.reads += d["tl"]
                    tht.pushes += d["tp"]
                    pht.updates += d["pu"]
                    pht.lookups += d["pl"]
                    pht.hits += d["ph"]
            # The reference assigns this from the MSHR file counter on
            # every primary miss; mirroring at the flush is idempotent.
            hier_stats.mshr_full_stalls = d["mshr_full_stalls"]
            self.engine_stats["epilogue_ns"] = d["epi_ns"]

        window = params.window
        li = 0.0
        lc = 0.0
        nd = float(params.frontend_depth)
        P = 0
        last_fb = hierarchy._last_ifetch_block
        warmup_instr = 0
        warmup_commit = 0.0
        warmup_pending = bool(warmup)
        if active_probes:
            mark_interval = min(probe.interval for probe in active_probes)
            next_mark = mark_interval
        else:
            mark_interval = 0
            next_mark = n + 1

        i = 0
        while i < n:
            stop = n
            if warmup_pending and warmup < stop:
                stop = warmup
            if next_mark < stop:
                stop = next_mark
            li, lc, nd, P, last_fb = eng.step(i, stop, li, lc, nd, P, last_fb)
            i = stop
            if i == next_mark:
                flush_stats()
                eng.sync_out()
                next_mark += mark_interval
                mark = CoreMark(i, n, i - P, window, lc, nd)
                for probe in active_probes:
                    probe.on_mark(mark, hierarchy)
                # A probe-side fault injection may have rewritten
                # component state; the reference loop would observe
                # that immediately.
                eng.sync_in()
            if warmup_pending and i == warmup:
                warmup_pending = False
                flush_stats()
                warmup_instr = int(instr[warmup - 1])
                warmup_commit = lc
                hierarchy.mark_warmup_end()

        flush_stats()
        eng.sync_out()
        total_instructions = trace.instruction_count
        trailing = total_instructions - int(instr[n - 1])
        measured_instructions = total_instructions - warmup_instr
        cycles = lc + trailing / dispatch_rate - warmup_commit
        return CoreResult(measured_instructions, cycles, n - warmup)
