"""The N-core interleaving engine: private L1s over a shared L2.

Machine model
-------------
Each core owns the private half of the paper's Table 1 machine — L1D,
L1I, MSHR file, prefetcher (THT always private; the PHT can be shared
at the runner's discretion) — while the L2 data/instruction caches,
the L1/L2 bus, the L2/memory bus, and DRAM are one physical instance
shared by every core.  :class:`CoreHierarchy` realises this by
aliasing the shared components out of a :class:`SharedFabric` after
normal construction; every inherited access path (demand, prefetch,
ifetch, writeback) then contends on the shared schedule automatically.

Address disjointness
--------------------
Core ``c``'s addresses and PCs are offset by ``c << CORE_ADDR_BITS``
(bit 44 — far above every index bit in the hierarchy).  Consequences:

* index functions are unchanged, so each stream maps onto the shared
  L2 sets exactly as it would alone (set *contention* is real);
* tags differ across cores, so streams never alias (no false sharing
  of lines, and the per-core conservation laws stay exact);
* core 0's offset is zero, so a 1-core mix performs bit-for-bit the
  same hierarchy calls as the single-core engine — the differential
  oracle the test suite pins.

Interleaving rule
-----------------
Every core runs the single-core model itself: one
:meth:`repro.cpu.core.OutOfOrderCore.steps` stepper per core, which
performs one access per step and yields the core-local dispatch
clock.  :func:`run_cores` steps the core whose clock is smallest,
tie-broken by benchmark name and then core id.  The name in the key
makes distinct-benchmark mixes *permutation-equivariant*: reordering the core slots reorders which
core performs each global event but not the event sequence itself, so
per-core statistics follow the permutation exactly.

Shared-L2 ownership
-------------------
``SharedFabric.owner`` maps each resident L2D line ``(set, tag)`` to
the core that filled it.  Every fill goes through the overridden
:meth:`CoreHierarchy._fill_l2`, and — because the demand path fills
only after an L2 miss and the prefetch path probes first — a fill
always inserts a non-resident line, so the owner map is an exact
bijection with the resident lines (the sanitizer's shared-L2
invariant).  Eviction accounting is charged to the *owner* of the
victim line, which keeps the per-core prefetch conservation law
(issued == useful + evicted unused + residual unused) exact even when
another core's fill performs the eviction; cross-core evictions are
additionally recorded as interference attribution.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from repro.cpu.core import CoreResult
from repro.memory.bus import Bus
from repro.memory.hierarchy import HierarchyParams, MemoryHierarchy
from repro.multicore.results import CoreAttribution
from repro.workloads.trace import Trace

__all__ = [
    "CORE_ADDR_BITS",
    "AttributedBus",
    "CoreHierarchy",
    "SharedFabric",
    "offset_trace",
    "run_cores",
]

#: bit position of the per-core address offset.  Must sit above every
#: index bit of every cache level (the L2's top index bit is ~18) and
#: leave room for 2**20 cores below the uint64 ceiling.
CORE_ADDR_BITS = 44


def offset_trace(trace: Trace, core_id: int) -> Trace:
    """``trace`` relocated into core ``core_id``'s address space.

    Core 0 gets the trace object back untouched (bit-identity with the
    single-core engine); other cores get copies with addresses and PCs
    offset by ``core_id << CORE_ADDR_BITS``.
    """
    if core_id == 0:
        return trace
    if len(trace) and int(trace.addrs.max()) >> CORE_ADDR_BITS:
        raise ValueError(
            f"trace {trace.name!r} addresses collide with the per-core "
            f"offset space (>= 2**{CORE_ADDR_BITS})"
        )
    offset = np.uint64(core_id) << np.uint64(CORE_ADDR_BITS)
    return Trace(
        name=trace.name,
        addrs=trace.addrs.astype(np.uint64) + offset,
        pcs=trace.pcs.astype(np.uint64) + offset,
        is_load=trace.is_load,
        gaps=trace.gaps,
        deps=trace.deps,
        base_ipc=trace.base_ipc,
    )


class AttributedBus:
    """Per-core view of a shared :class:`~repro.memory.bus.Bus`.

    Timing-transparent: every call delegates to the underlying bus, so
    the schedule is identical to calling the bus directly.  The wrapper
    only *observes* — before delegating it reads the shared
    ``next_free`` and books the queueing delay this core is about to
    pay into its :class:`~repro.multicore.results.CoreAttribution`
    (``bus_stall_cycles``), which is how bus interference is attributed
    per core without touching the bus model.
    """

    __slots__ = ("_bus", "_attribution")

    def __init__(self, bus: Bus, attribution: CoreAttribution) -> None:
        self._bus = bus
        self._attribution = attribution

    def request(self, now: float, payload_bytes: int) -> float:
        wait = self._bus.next_free - now
        if wait > 0.0:
            self._attribution.bus_stall_cycles += wait
        return self._bus.request(now, payload_bytes)

    def transfer(self, now: float, payload_bytes: int) -> float:
        wait = self._bus.next_free - now
        if wait > 0.0:
            self._attribution.bus_stall_cycles += wait
        return self._bus.transfer(now, payload_bytes)

    # Read-only passthroughs for observers (sanitizer bus monotonicity,
    # metrics probe totals).
    @property
    def name(self) -> str:
        return self._bus.name

    @property
    def next_free(self) -> float:
        return self._bus.next_free

    @property
    def transfers(self) -> int:
        return self._bus.transfers

    @property
    def busy_cycles(self) -> float:
        return self._bus.busy_cycles

    @property
    def queued_cycles(self) -> float:
        return self._bus.queued_cycles


class SharedFabric:
    """The components all cores share, plus L2 ownership tracking."""

    def __init__(self, params: HierarchyParams, cores: int) -> None:
        if cores < 1:
            raise ValueError(f"a fabric needs at least one core, got {cores}")
        self.params = params
        self.cores = cores
        # Build one donor hierarchy and strip the shared pieces out of
        # it: this reuses the exact construction (bus widths, memory
        # concurrency, geometry) of the single-core machine.
        donor = MemoryHierarchy(params)
        self.l2d = donor.l2d
        self.l2i = donor.l2i
        self.l1l2_addr_bus = donor.l1l2_addr_bus
        self.l1l2_data_bus = donor.l1l2_data_bus
        self.mem_addr_bus = donor.mem_addr_bus
        self.mem_data_bus = donor.mem_data_bus
        self.memory = donor.memory
        self.prefetch_bus = donor.prefetch_bus
        #: (l2 set index, l2 tag) -> core id of the line's filler.
        self.owner: Dict[Tuple[int, int], int] = {}
        self.hierarchies: List["CoreHierarchy"] = []
        self.attributions: List[CoreAttribution] = [
            CoreAttribution() for _ in range(cores)
        ]
        self._finalized = False

    def register(self, hierarchy: "CoreHierarchy") -> None:
        if hierarchy.core_id != len(self.hierarchies):
            raise ValueError(
                f"cores must register in id order: got {hierarchy.core_id}, "
                f"expected {len(self.hierarchies)}"
            )
        self.hierarchies.append(hierarchy)

    def resident_line_count(self) -> int:
        """Total lines resident in the shared L2D (full scan)."""
        total = 0
        for index in range(self.params.l2.sets):
            total += len(self.l2d.resident_lines(index))
        return total

    def finalize(self) -> None:
        """One shared end-of-run scan over the L2D.

        Replaces the per-core :meth:`MemoryHierarchy.finalize` scan:
        residual unused prefetches are attributed to the *owner* of
        each line (completing that core's prefetch conservation law),
        and end-of-run occupancy shares are computed per core.
        Idempotent — every core's ``finalize()`` delegates here, and
        only the first call does the work.
        """
        if self._finalized:
            return
        self._finalized = True
        counts = [0] * self.cores
        total = 0
        owner_of = self.owner.get
        for index in range(self.params.l2.sets):
            for line in self.l2d.resident_lines(index):
                owner = owner_of((index, line.tag), 0)
                counts[owner] += 1
                total += 1
                if line.prefetched:
                    self.hierarchies[owner].stats.prefetch_residual_unused += 1
        for core_id, attribution in enumerate(self.attributions):
            attribution.l2_lines_owned = counts[core_id]
            attribution.l2_occupancy_share = (
                counts[core_id] / total if total else 0.0
            )


class CoreHierarchy(MemoryHierarchy):
    """One core's hierarchy view: private L1/MSHR, shared L2 and below.

    Construction builds a normal single-core hierarchy, then aliases
    the L2 caches, buses, and DRAM to the fabric's shared instances
    (the L1/L2 links through per-core :class:`AttributedBus` wrappers
    so queueing delay is attributed).  All inherited logic — the
    demand fast path, prefetch issue, promotions, ifetch — then runs
    unmodified against the shared components.
    """

    __slots__ = ("core_id", "fabric", "attribution")

    def __init__(
        self, params: HierarchyParams, fabric: SharedFabric, core_id: int
    ) -> None:
        super().__init__(params)
        self.core_id = core_id
        self.fabric = fabric
        self.attribution = fabric.attributions[core_id]
        self.l2d = fabric.l2d
        self.l2i = fabric.l2i
        self.memory = fabric.memory
        self.mem_addr_bus = fabric.mem_addr_bus
        self.mem_data_bus = fabric.mem_data_bus
        self.l1l2_addr_bus = AttributedBus(fabric.l1l2_addr_bus, self.attribution)
        self.l1l2_data_bus = AttributedBus(fabric.l1l2_data_bus, self.attribution)
        if fabric.prefetch_bus is not None:
            self.prefetch_bus = AttributedBus(fabric.prefetch_bus, self.attribution)
        fabric.register(self)

    def _fill_l2(self, index: int, tag: int, now: float, prefetched: bool) -> None:
        """Shared-L2 fill with ownership tracking and owner-charged
        eviction accounting.

        Identical cache/bus/memory behaviour to the base method; the
        differences are purely in *attribution*: the evicted line's
        statistics (unused-prefetch fate, writeback count) are charged
        to the core that owns it, and a cross-core eviction increments
        both sides' interference counters.
        """
        lru_insert = prefetched and self.params.prefetch_insert_policy == "lru"
        eviction = self.l2d.fill(
            index, tag, now, prefetched=prefetched, lru_insert=lru_insert
        )
        fabric = self.fabric
        owners = fabric.owner
        if eviction is not None:
            victim_owner = owners.pop((index, eviction.line.tag), self.core_id)
            victim_stats = fabric.hierarchies[victim_owner].stats
            if eviction.line.prefetched:
                victim_stats.prefetch_evicted_unused += 1
                if victim_owner != self.core_id:
                    fabric.attributions[victim_owner].prefetches_evicted_by_others += 1
                    self.attribution.cross_core_evictions += 1
            if eviction.dirty:
                victim_stats.writebacks_l2 += 1
                self.memory.writeback(now, self._l2_block_bytes)
        owners[(index, tag)] = self.core_id

    def finalize(self) -> None:
        # The L2 is shared: exactly one residual scan for the whole
        # fabric, with per-owner attribution (idempotent).
        self.fabric.finalize()


def run_cores(
    workloads: Sequence[str],
    steppers: Sequence[Generator[float, None, CoreResult]],
) -> List[CoreResult]:
    """Interleave the cores to completion; per-core results in order.

    ``steppers[c]`` is core ``c``'s :meth:`OutOfOrderCore.steps
    <repro.cpu.core.OutOfOrderCore.steps>` generator and
    ``workloads[c]`` its benchmark name.  Scheduling: one access at a
    time on the core with the smallest ``(local clock, benchmark name,
    core id)`` key, where the local clock is the dispatch clock the
    core's stepper last yielded.  Every core starts at the same clock,
    so the first round runs in (name, core id) order.  The comparison
    is pure — no randomness, no wall-clock — so the interleaving (and
    hence every shared-state mutation order) is a deterministic
    function of the mix.
    """
    clocks = [0.0] * len(steppers)
    results: List[Optional[CoreResult]] = [None] * len(steppers)
    active = list(range(len(steppers)))
    while active:
        core_id = min(active, key=lambda c: (clocks[c], workloads[c], c))
        try:
            clocks[core_id] = next(steppers[core_id])
        except StopIteration as done:
            results[core_id] = done.value
            active.remove(core_id)
    return results
