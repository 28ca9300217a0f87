"""The simulated memory hierarchy of the paper's Table 1.

This module wires the caches, MSHRs, buses, and DRAM into the machine
the CPU timing model talks to:

* 32 KB direct-mapped L1 data cache, 32 B blocks, 64 MSHRs;
* 32 KB 4-way L1 instruction cache, 32 B blocks;
* separate 1 MB 4-way L2 instruction and data caches, 64 B blocks,
  12-cycle latency;
* 70-cycle main memory;
* a 32-byte-wide L1/L2 bus clocked at the core frequency, a narrower
  L2/memory bus, and (for the hybrid prefetcher of Section 5.2.2) an
  optional dedicated L1/L2 prefetch bus.

The hierarchy is also the observation point for prefetchers (Figure 10
of the paper): every L1 demand miss is reported to the attached
prefetcher, whose prefetch requests fill **L2 only** — except for the
hybrid's explicitly gated promotions into L1, which wait until the
dead-block predictor declares the victim line dead.

Statistics follow the paper's Figure 12 taxonomy of L2 accesses:

``prefetched original``
    demand L2 accesses that were covered by a prefetch (they hit on a
    block carrying the prefetch bit, or merge with an in-flight
    prefetch);
``non-prefetched original``
    the remaining demand L2 accesses;
``prefetched extra``
    prefetch work that never covered a demand access — redundant
    prefetches to resident blocks, prefetched blocks evicted unused,
    and prefetched blocks still unused when the run ends.

Engine layering
---------------
The hierarchy is the *engine* that drives the memory-system
:class:`~repro.engine.component.Component` objects (caches, MSHR file,
buses, DRAM, prefetcher).  Its per-access entry points come in two
flavours:

:meth:`MemoryHierarchy.access_time`
    The flat fast path the CPU loop calls: one function, locally bound
    component methods, geometry shifts/masks precomputed at
    construction, the direct-mapped L1 lookup inlined, and **no object
    allocation on the hit path** — it returns the bare completion time
    as a float.
:meth:`MemoryHierarchy.access`
    The structured wrapper tests and analysis passes use: same
    semantics, but classifies the access from the counter deltas and
    returns an :class:`~repro.engine.events.AccessOutcome`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Optional, Tuple

from repro.engine.events import (
    AccessEvent,
    AccessOutcome,
    EvictionEvent,
    MissEvent,
)
from repro.memory.address import CacheGeometry, LevelMap
from repro.memory.bus import Bus
from repro.memory.cache import CacheLine, SetAssociativeCache
from repro.memory.dram import MainMemory
from repro.memory.mshr import MSHRFile
from repro.prefetchers.base import Prefetcher, PrefetchRequest

__all__ = [
    "AccessOutcome",
    "AccessResult",
    "HierarchyParams",
    "HierarchyStats",
    "MemoryHierarchy",
]

#: Gate deciding whether a pending L1 promotion may evict ``victim`` now.
#: Signature: (victim_line, set_index, now) -> bool.
L1PromotionGate = Callable[[object, int, float], bool]

#: Backwards-compatible name for the outcome of one demand access.
AccessResult = AccessOutcome


@dataclass(frozen=True)
class HierarchyParams:
    """Machine parameters (defaults reproduce the paper's Table 1)."""

    l1d: CacheGeometry = CacheGeometry(32 * 1024, 1, 32)
    l1i: CacheGeometry = CacheGeometry(32 * 1024, 4, 32)
    l2: CacheGeometry = CacheGeometry(1024 * 1024, 4, 64)
    l1_hit_latency: int = 2
    l2_hit_latency: int = 12
    memory_latency: int = 70
    l1l2_bus_bytes_per_cycle: int = 32
    mem_bus_bytes_per_cycle: int = 32
    mshr_entries: int = 64
    memory_concurrency: int = 12
    #: outstanding-prefetch cap; excess predictions are dropped (the
    #: "overflow the outgoing prefetch buffer" effect of Section 5.2.2).
    max_outstanding_prefetches: int = 32
    #: cycles between observing a miss and launching its prefetches.
    prefetch_issue_delay: int = 2
    #: prefetches have low priority: when the memory bus backlog exceeds
    #: this many cycles the prefetch is cancelled rather than queued
    #: behind demand traffic (Section 5.2.2: low-priority prefetches can
    #: be "delayed, canceled, superseded by accesses").
    prefetch_busy_threshold: float = 60.0
    #: a pending L1 promotion is abandoned after this many cycles: once
    #: the prediction horizon has passed, the demand access has already
    #: been served through the normal path and installing the block
    #: would only displace newer data.
    promotion_ttl: float = 8192.0
    #: recency position for prefetch fills in L2: "lru" (low-priority
    #: insertion — a useless prefetch is evicted first and cannot
    #: displace the demand working set) or "mru" (classic insertion).
    prefetch_insert_policy: str = "lru"
    #: dedicated L1/L2 prefetch bus (hybrid prefetcher only).
    dedicated_prefetch_bus: bool = False
    #: force every L2 data access to hit (the paper's Figure 1 study).
    ideal_l2: bool = False
    #: model the instruction-fetch path (L1I/L2I).
    model_icache: bool = True

    def __post_init__(self) -> None:
        if self.l2.block_bytes < self.l1d.block_bytes:
            raise ValueError("L2 blocks must be at least as large as L1 blocks")
        if self.l2.block_bytes % self.l1d.block_bytes != 0:
            raise ValueError("L2 block size must be a multiple of L1 block size")
        if self.prefetch_insert_policy not in ("lru", "mru"):
            raise ValueError(
                f"prefetch insert policy must be 'lru' or 'mru', "
                f"got {self.prefetch_insert_policy!r}"
            )


@dataclass(slots=True)
class HierarchyStats:
    """Counters accumulated over one simulation run."""

    demand_accesses: int = 0
    loads: int = 0
    stores: int = 0
    l1_hits: int = 0
    l1_misses: int = 0
    l2_demand_accesses: int = 0
    l2_demand_hits: int = 0
    l2_demand_misses: int = 0
    prefetched_original: int = 0
    prefetches_requested: int = 0
    prefetches_issued: int = 0
    prefetch_redundant: int = 0
    prefetch_dropped_queue: int = 0
    prefetch_dropped_busy: int = 0
    prefetch_evicted_unused: int = 0
    prefetch_residual_unused: int = 0
    useful_prefetches: int = 0
    l1_promotions: int = 0
    l1_promotion_hits: int = 0
    writebacks_l1: int = 0
    writebacks_l2: int = 0
    ifetch_accesses: int = 0
    ifetch_misses: int = 0
    mshr_merges: int = 0
    mshr_full_stalls: int = 0

    def snapshot(self) -> "HierarchyStats":
        """Copy of the current counters (taken at the end of warmup)."""
        return HierarchyStats(**{f.name: getattr(self, f.name) for f in fields(self)})

    def since(self, warmup: "HierarchyStats") -> "HierarchyStats":
        """Counters accumulated after the ``warmup`` snapshot."""
        return HierarchyStats(
            **{
                f.name: getattr(self, f.name) - getattr(warmup, f.name)
                for f in fields(self)
            }
        )

    @property
    def non_prefetched_original(self) -> int:
        """Demand L2 accesses not covered by a prefetch."""
        return self.l2_demand_accesses - self.prefetched_original

    @property
    def prefetched_extra(self) -> int:
        """Prefetch work that never covered a demand access."""
        return (
            self.prefetch_redundant
            + self.prefetch_evicted_unused
            + self.prefetch_residual_unused
        )

    @property
    def l1_miss_rate(self) -> float:
        """L1D demand miss rate."""
        if self.demand_accesses == 0:
            return 0.0
        return self.l1_misses / self.demand_accesses

    @property
    def l2_demand_miss_rate(self) -> float:
        """L2 miss rate over demand accesses only."""
        if self.l2_demand_accesses == 0:
            return 0.0
        return self.l2_demand_misses / self.l2_demand_accesses

    def breakdown_vs_original(self) -> Dict[str, float]:
        """Figure 12's three categories, normalised to original accesses."""
        original = max(self.l2_demand_accesses, 1)
        return {
            "prefetched_original": self.prefetched_original / original,
            "non_prefetched_original": self.non_prefetched_original / original,
            "prefetched_extra": self.prefetched_extra / original,
        }


class MemoryHierarchy:
    """L1D/L1I + L2 + memory with buses, MSHRs, and a prefetch port."""

    __slots__ = (
        "params",
        "l1d", "l1i", "l2d", "l2i",
        "l1l2_addr_bus", "l1l2_data_bus", "mem_addr_bus", "mem_data_bus",
        "memory", "mshr", "prefetch_bus", "stats", "l1_l2_map",
        "_l2_shift", "_l2_index_mask", "_l2_index_bits",
        "_l1_latency", "_l2_latency", "_pf_delay",
        "_l1_block_bytes", "_l2_block_bytes",
        "_l1_index_bits", "_l1_set_mask", "_ideal_l2", "_l1_lines",
        "prefetcher", "_needs_access", "_needs_evict",
        "_l1_gate", "_promotions_enabled", "_pending_l1", "_pf_inflight",
        "_last_ifetch_block", "warmup_stats",
    )

    def __init__(self, params: Optional[HierarchyParams] = None) -> None:
        self.params = params or HierarchyParams()
        p = self.params
        self.l1d = SetAssociativeCache(p.l1d, "L1D")
        self.l1i = SetAssociativeCache(p.l1i, "L1I")
        self.l2d = SetAssociativeCache(p.l2, "L2D")
        self.l2i = SetAssociativeCache(p.l2, "L2I")
        # Split-transaction links: separate address (command) and data
        # channels per bus, so commands never queue behind data beats
        # scheduled for future return times.
        self.l1l2_addr_bus = Bus("L1/L2-addr", p.l1l2_bus_bytes_per_cycle)
        self.l1l2_data_bus = Bus("L1/L2-data", p.l1l2_bus_bytes_per_cycle)
        self.mem_addr_bus = Bus("L2/mem-addr", p.mem_bus_bytes_per_cycle)
        self.mem_data_bus = Bus("L2/mem-data", p.mem_bus_bytes_per_cycle)
        self.memory = MainMemory(
            p.memory_latency,
            self.mem_data_bus,
            self.mem_addr_bus,
            p.memory_concurrency,
            p.l2.block_bytes,
        )
        self.mshr = MSHRFile(p.mshr_entries)
        self.prefetch_bus: Optional[Bus] = None
        if p.dedicated_prefetch_bus:
            self.prefetch_bus = Bus("L1/L2-prefetch", p.l1l2_bus_bytes_per_cycle)
        self.stats = HierarchyStats()

        #: shared L1→L2 block-number mapping (demand, prefetch,
        #: promotion, and ifetch paths all split through it).
        self.l1_l2_map = LevelMap(p.l1d, p.l2)

        # Precomputed hot-path constants: geometry shifts/masks and
        # latencies are fixed at construction, so access_time() never
        # derives them per access.
        self._l2_shift = self.l1_l2_map.shift
        self._l2_index_mask = self.l1_l2_map.index_mask
        self._l2_index_bits = self.l1_l2_map.index_bits
        self._l1_latency = p.l1_hit_latency
        self._l2_latency = p.l2_hit_latency
        self._pf_delay = p.prefetch_issue_delay
        self._l1_block_bytes = p.l1d.block_bytes
        self._l2_block_bytes = p.l2.block_bytes
        self._l1_index_bits = p.l1d.index_bits
        self._l1_set_mask = p.l1d.sets - 1
        self._ideal_l2 = p.ideal_l2
        #: flat line array when the L1D is direct-mapped (the paper's
        #: configuration) — lets the fast path inline the lookup.
        self._l1_lines = self.l1d.direct_array()

        self.prefetcher: Optional[Prefetcher] = None
        self._needs_access = False
        self._needs_evict = False
        self._l1_gate: Optional[L1PromotionGate] = None
        self._promotions_enabled = False
        #: per-L1-set pending promotion: set index -> (l1 block, ready time)
        self._pending_l1: Dict[int, Tuple[int, float]] = {}
        #: completion times of in-flight prefetch fetches (bounded queue)
        self._pf_inflight: List[float] = []
        self._last_ifetch_block = -1
        #: snapshot of the counters at the end of warmup (None = no warmup).
        self.warmup_stats: Optional[HierarchyStats] = None

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------

    def attach_prefetcher(self, prefetcher: Optional[Prefetcher]) -> None:
        """Attach (or detach, with None) the prefetch engine."""
        self.prefetcher = prefetcher
        self._needs_access = bool(prefetcher and prefetcher.needs_access_stream)
        self._needs_evict = bool(prefetcher and prefetcher.needs_eviction_stream)
        gate = getattr(prefetcher, "l1_promotion_gate", None)
        self._l1_gate = gate
        self._promotions_enabled = gate is not None

    # ------------------------------------------------------------------
    # Demand access path
    # ------------------------------------------------------------------

    def access_time(
        self,
        now: float,
        index: int,
        tag: int,
        block: int,
        is_write: bool,
        pc: int,
    ) -> float:
        """Perform one demand data access; return its completion time.

        ``index``/``tag``/``block`` are the L1-geometry split of the
        address (precomputed by the simulator's vectorised front end).

        This is the engine's fast path: the whole demand sequence —
        promotion attempt, L1 lookup, access-stream observation, MSHR
        merge/acquire, L2 demand fetch, data return, L1 fill,
        prefetcher training — lives in this one function, working on
        constants bound at construction.  The common case (a
        direct-mapped L1 hit with no observer attached) touches one
        list slot and three counters and allocates nothing.
        """
        stats = self.stats
        stats.demand_accesses += 1
        if is_write:
            stats.stores += 1
        else:
            stats.loads += 1

        if self._promotions_enabled and self._pending_l1:
            self._try_promote(index, now)

        # --- L1 lookup (inlined single-way probe when direct-mapped) --
        lines = self._l1_lines
        if lines is not None:
            line = lines[index]
            if line is not None and line.tag == tag:
                line.last_access = now
                if is_write:
                    line.dirty = True
            else:
                line = None
        else:
            line = self.l1d.lookup(index, tag, is_write, now)

        if line is not None:
            stats.l1_hits += 1
            if self._promotions_enabled and line.prefetched:
                line.prefetched = False
                stats.l1_promotion_hits += 1
                # A hit on a promoted line is a miss the prefetcher
                # prevented: train it as a virtual miss so the chain of
                # predictions continues instead of starving once its own
                # promotions hide the miss stream.
                if self.prefetcher is not None:
                    self._run_prefetcher(MissEvent(index, tag, block, pc, is_write, now))
            if self._needs_access:
                requests = self.prefetcher.observe_access(  # type: ignore[union-attr]
                    AccessEvent(index, tag, block, pc, is_write, True, now)
                )
                if requests:
                    issue = self.issue_prefetch
                    launch = now + self._pf_delay
                    for request in requests:
                        issue(request, launch)
            return now + self._l1_latency

        # ----- L1 miss -------------------------------------------------
        stats.l1_misses += 1
        if self._needs_access:
            requests = self.prefetcher.observe_access(  # type: ignore[union-attr]
                AccessEvent(index, tag, block, pc, is_write, False, now)
            )
            if requests:
                issue = self.issue_prefetch
                launch = now + self._pf_delay
                for request in requests:
                    issue(request, launch)

        if self._promotions_enabled:
            pending = self._pending_l1.get(index)
            if pending is not None and pending[0] == block:
                # The demand beat the promotion; the normal fill below
                # supersedes it.  Promoting later would only displace
                # whatever replaced this block in the meantime.
                del self._pending_l1[index]

        mshr = self.mshr
        merged = mshr.lookup(block, now)
        if merged is not None:
            stats.mshr_merges += 1
            return merged

        start = mshr.acquire(now)
        stats.mshr_full_stalls = mshr.full_stalls

        # --- demand L2 fetch (inlined) --------------------------------
        request_start = self.l1l2_addr_bus.request(start + self._l1_latency, 0)
        arrival = request_start + 1
        stats.l2_demand_accesses += 1

        l2_block = block >> self._l2_shift
        l2_index = l2_block & self._l2_index_mask
        l2_tag = l2_block >> self._l2_index_bits

        l2_line = self.l2d.lookup(l2_index, l2_tag, False, arrival)
        if l2_line is not None or self._ideal_l2:
            stats.l2_demand_hits += 1
            data_ready = arrival + self._l2_latency
            if l2_line is not None:
                if l2_line.prefetched:
                    l2_line.prefetched = False
                    stats.prefetched_original += 1
                    stats.useful_prefetches += 1
                if l2_line.fill_time > arrival:
                    # Prefetch (or earlier demand fill) still in flight:
                    # the demand merges with it.
                    if l2_line.fill_time > data_ready:
                        data_ready = l2_line.fill_time
        else:
            # ----- L2 miss: fetch from main memory --------------------
            stats.l2_demand_misses += 1
            data_ready = self.memory.fetch(arrival + self._l2_latency, self._l2_block_bytes)
            self._fill_l2(l2_index, l2_tag, data_ready, prefetched=False)

        # Data return to L1 over the L1/L2 data channel.
        completion = self.l1l2_data_bus.transfer(data_ready, self._l1_block_bytes)
        mshr.register(block, completion, now)

        self._fill_l1(index, tag, completion, prefetched=False, dirty=is_write)

        if self.prefetcher is not None:
            self._run_prefetcher(MissEvent(index, tag, block, pc, is_write, now))
        return completion

    def access(
        self,
        now: float,
        index: int,
        tag: int,
        block: int,
        is_write: bool,
        pc: int,
    ) -> AccessOutcome:
        """Structured demand access: classify and return an outcome.

        Same semantics as :meth:`access_time`; the hit classification
        is read off the counter deltas (an MSHR merge moves neither the
        L1-hit nor the L2-miss counter, so it reports ``l1_hit=False,
        l2_hit=True`` — the demand rode an earlier fetch and never
        re-accessed L2, matching the Figure 12 accounting).
        """
        stats = self.stats
        l1_hits_before = stats.l1_hits
        l2_misses_before = stats.l2_demand_misses
        completion = self.access_time(now, index, tag, block, is_write, pc)
        return AccessOutcome(
            completion,
            stats.l1_hits != l1_hits_before,
            stats.l2_demand_misses == l2_misses_before,
        )

    def _fill_l1(
        self, index: int, tag: int, now: float, prefetched: bool, dirty: bool
    ) -> None:
        """Install a block in L1D, handling eviction side effects."""
        lines = self._l1_lines
        if lines is not None:
            # Direct-mapped fill inlined (the semantics of
            # SetAssociativeCache.fill): refresh a resident line, else
            # replace the single way and handle the victim directly —
            # no Eviction wrapper on this per-miss path.
            victim = lines[index]
            if victim is not None and victim.tag == tag:
                victim.last_access = now
                victim.dirty = victim.dirty or dirty
                return
            lines[index] = CacheLine(tag, now, dirty=dirty, prefetched=prefetched)
            if victim is None:
                return
        else:
            eviction = self.l1d.fill(
                index, tag, now, prefetched=prefetched, dirty=dirty
            )
            if eviction is None:
                return
            victim = eviction.line
        if victim.dirty:
            self.stats.writebacks_l1 += 1
            self.l1l2_data_bus.request(now, self._l1_block_bytes)
        if self._needs_evict:
            block = (victim.tag << self._l1_index_bits) | index
            self.prefetcher.observe_eviction(  # type: ignore[union-attr]
                EvictionEvent(
                    index, victim.tag, block, now, victim.fill_time, victim.last_access
                )
            )

    def _fill_l2(self, index: int, tag: int, now: float, prefetched: bool) -> None:
        """Install a block in L2D, handling eviction side effects.

        Prefetch fills insert at the LRU position (low-priority
        insertion): a wrong prefetch is the first thing evicted instead
        of displacing the demand working set's recency order.
        """
        lru_insert = prefetched and self.params.prefetch_insert_policy == "lru"
        eviction = self.l2d.fill(index, tag, now, prefetched=prefetched,
                                 lru_insert=lru_insert)
        if eviction is None:
            return
        if eviction.line.prefetched:
            self.stats.prefetch_evicted_unused += 1
        if eviction.dirty:
            self.stats.writebacks_l2 += 1
            self.memory.writeback(now, self._l2_block_bytes)

    # ------------------------------------------------------------------
    # Instruction fetch path
    # ------------------------------------------------------------------

    def instruction_fetch(self, now: float, pc: int) -> float:
        """Fetch the instruction block holding ``pc``.

        Returns the extra frontend latency (0 for the common sequential
        hit).  Instruction misses go to the dedicated L2I (Table 1 has
        separate 1 MB L2 I and D caches) and then to memory.
        """
        p = self.params
        block = pc >> p.l1i.offset_bits
        if block == self._last_ifetch_block:
            return 0.0
        self._last_ifetch_block = block
        self.stats.ifetch_accesses += 1
        index = block & (p.l1i.sets - 1)
        tag = block >> p.l1i.index_bits
        if self.l1i.lookup(index, tag, False, now) is not None:
            return 0.0
        self.stats.ifetch_misses += 1
        l2_block = block >> self._l2_shift
        l2_index = l2_block & self._l2_index_mask
        l2_tag = l2_block >> self._l2_index_bits
        arrival = self.l1l2_addr_bus.request(now, 0) + 1
        if self.l2i.lookup(l2_index, l2_tag, False, arrival) is not None:
            ready = arrival + p.l2_hit_latency
        else:
            ready = self.memory.fetch(arrival + p.l2_hit_latency, p.l2.block_bytes)
            self.l2i.fill(l2_index, l2_tag, ready)
        self.l1i.fill(index, tag, ready)
        return max(0.0, ready - now)

    # ------------------------------------------------------------------
    # Prefetch path
    # ------------------------------------------------------------------

    def _run_prefetcher(self, miss: MissEvent) -> None:
        """Feed one miss to the prefetcher and issue what it predicts."""
        requests = self.prefetcher.observe_miss(miss)  # type: ignore[union-attr]
        if not requests:
            return
        launch = miss.now + self._pf_delay
        for request in requests:
            self.issue_prefetch(request, launch)

    def issue_prefetch(self, request: PrefetchRequest, now: float) -> bool:
        """Issue one prefetch into L2; returns True if a fetch started.

        The request is dropped (with accounting) when the target is
        already resident or in flight, or when the outstanding-prefetch
        queue is full.
        """
        p = self.params
        stats = self.stats
        stats.prefetches_requested += 1
        l1_block = request.block
        l2_block = l1_block >> self._l2_shift
        l2_index = l2_block & self._l2_index_mask
        l2_tag = l2_block >> self._l2_index_bits

        resident = self.l2d.probe(l2_index, l2_tag)
        if resident is not None:
            stats.prefetch_redundant += 1
            if request.into_l1 and self._promotions_enabled:
                # Already in L2 — only the L1 promotion remains useful.
                ready = max(now, resident.fill_time)
                self._pending_l1[l1_block & self._l1_set_mask] = (l1_block, ready)
            return False

        inflight = self._pf_inflight
        if inflight:
            self._pf_inflight = inflight = [t for t in inflight if t > now]
        if len(inflight) >= p.max_outstanding_prefetches:
            stats.prefetch_dropped_queue += 1
            return False
        # The prefetch's data return would want the memory data channel
        # around now + command + array latency; anything booked beyond
        # that horizon is genuine backlog from demand traffic, and a
        # low-priority prefetch yields to it (Section 5.2.2).
        if self.memory.backlog(now) > p.prefetch_busy_threshold:
            stats.prefetch_dropped_busy += 1
            return False

        # The predictor sits at the L2 controller (Figure 10); an
        # L2-only prefetch touches just the L2/memory link.
        done = self.memory.fetch(now + self._l2_latency, self._l2_block_bytes)
        inflight.append(done)
        stats.prefetches_issued += 1
        self._fill_l2(l2_index, l2_tag, done, prefetched=True)
        if request.into_l1 and self._promotions_enabled:
            self._pending_l1[l1_block & self._l1_set_mask] = (l1_block, done)
        return True

    def _try_promote(self, index: int, now: float) -> None:
        """Attempt the pending L2→L1 promotion for set ``index``.

        The promotion happens only when the prefetched data has arrived
        in L2 and the dead-block gate approves evicting the current L1
        victim (Section 5.2.2: "update L1 only after the corresponding
        cache line is predicted dead").
        """
        pending = self._pending_l1.get(index)
        if pending is None:
            return
        l1_block, ready = pending
        if ready > now:
            return
        p = self.params
        if now - ready > p.promotion_ttl:
            del self._pending_l1[index]
            return
        l2_block = l1_block >> self._l2_shift
        l2_index = l2_block & self._l2_index_mask
        l2_tag = l2_block >> self._l2_index_bits
        if self.l2d.probe(l2_index, l2_tag) is None:
            del self._pending_l1[index]
            return
        tag = l1_block >> self._l1_index_bits
        if self.l1d.probe(index, tag) is not None:
            del self._pending_l1[index]
            return
        victim = self.l1d.victim_line(index)
        if victim is not None and not self._l1_gate(victim, index, now):  # type: ignore[misc]
            return  # victim still live; retry on a later access
        # The promotion reads the block out of L2: refresh its recency
        # and consume the prefetch bit (the prefetch is now useful).
        l2_line = self.l2d.lookup(l2_index, l2_tag, False, now)
        if l2_line is not None and l2_line.prefetched:
            l2_line.prefetched = False
            self.stats.useful_prefetches += 1
        bus = self.prefetch_bus if self.prefetch_bus is not None else self.l1l2_data_bus
        self._fill_l1(index, tag, bus.transfer(now, self._l1_block_bytes), prefetched=True, dirty=False)
        self.stats.l1_promotions += 1
        del self._pending_l1[index]

    # ------------------------------------------------------------------
    # Run lifecycle
    # ------------------------------------------------------------------

    def mark_warmup_end(self) -> None:
        """Snapshot the counters; ``measured_stats`` subtracts them."""
        self.warmup_stats = self.stats.snapshot()

    def measured_stats(self) -> HierarchyStats:
        """Counters for the measurement window (post-warmup)."""
        if self.warmup_stats is None:
            return self.stats
        return self.stats.since(self.warmup_stats)

    def finalize(self) -> None:
        """Account for prefetched blocks still unused at end of run."""
        self.stats.prefetch_residual_unused += self.l2d.prefetched_count()

    def reset(self) -> None:
        """Re-create all state for a fresh run (same configuration)."""
        self.__init__(self.params)  # type: ignore[misc]
