"""A set-associative cache model with LRU replacement.

The cache is a pure state machine: it answers lookups, performs fills,
and reports evictions.  It deliberately knows nothing about latency,
buses, or statistics — those live in
:class:`repro.memory.hierarchy.MemoryHierarchy` — which keeps this class
small enough to verify exhaustively in unit and property tests.

Each resident line carries the metadata the paper's mechanisms need:

* ``dirty`` — writeback policy;
* ``prefetched`` — set when the line was installed by a prefetch and
  cleared on first demand touch; this bit drives the Figure 12
  "prefetched original / prefetched extra" taxonomy;
* ``fill_time`` / ``last_access`` — timestamps for the timekeeping
  dead-block predictor (Hu et al., used by the hybrid of Section 5.2.2);
* ``signature`` — the truncated-add PC-trace accumulator used by the
  DBCP baseline (Lai et al.).

Direct-mapped caches (the paper's L1D) use a flat-array fast path; the
generic path uses one :class:`repro.util.lruset.LRUSet` per set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.engine.component import Component
from repro.engine.events import MemoryEvent
from repro.memory.address import CacheGeometry
from repro.util.lruset import LRUSet

__all__ = ["CacheLine", "Eviction", "SetAssociativeCache"]


class CacheLine:
    """Metadata of one resident cache line."""

    __slots__ = ("tag", "dirty", "prefetched", "fill_time", "last_access", "signature")

    def __init__(
        self,
        tag: int,
        fill_time: float = 0.0,
        dirty: bool = False,
        prefetched: bool = False,
    ) -> None:
        self.tag = tag
        self.dirty = dirty
        self.prefetched = prefetched
        self.fill_time = fill_time
        self.last_access = fill_time
        self.signature = 0

    def __repr__(self) -> str:
        flags = "".join(
            flag for flag, on in (("D", self.dirty), ("P", self.prefetched)) if on
        )
        return f"CacheLine(tag={self.tag:#x}{', ' + flags if flags else ''})"


@dataclass
class Eviction:
    """A line pushed out of the cache by a fill (or invalidation)."""

    set_index: int
    line: CacheLine

    @property
    def tag(self) -> int:
        return self.line.tag

    @property
    def dirty(self) -> bool:
        return self.line.dirty


class SetAssociativeCache(Component):
    """LRU set-associative cache state (no timing, no statistics).

    The public operations are:

    ``lookup``
        Demand access.  On a hit, updates recency/dirty/last-access and
        returns the line; on a miss returns None.  The caller decides
        what a miss means (fetch from the next level, etc.).
    ``probe``
        Check residency without disturbing any state (used when
        deciding whether a prefetch target is already cached).
    ``fill``
        Install a block, returning the eviction it caused, if any.
    ``invalidate``
        Remove a block (used when promoting a block from L2 to L1 in
        exclusive-style experiments, and in tests).
    ``victim_line``
        Identify which line a fill to a given set would evict (the
        hybrid prefetcher asks this before deciding whether the victim
        is dead).
    """

    def __init__(self, geometry: CacheGeometry, name: str = "cache") -> None:
        self.geometry = geometry
        self.name = name
        self._direct_mapped = geometry.ways == 1
        if self._direct_mapped:
            self._lines: List[Optional[CacheLine]] = [None] * geometry.sets
            self._sets: List[LRUSet[int, CacheLine]] = []
        else:
            self._lines = []
            self._sets = [LRUSet(geometry.ways) for _ in range(geometry.sets)]

    # ------------------------------------------------------------------
    # Demand path
    # ------------------------------------------------------------------

    def access(self, event: MemoryEvent) -> Optional[CacheLine]:
        """Component entry point: a demand lookup driven by one event.

        Returns the hit line or None, the cache's outcome under the
        engine contract.  Events without an ``is_write`` field (e.g.
        evictions replayed through a model) are treated as reads.
        """
        return self.lookup(
            event.index, event.tag, getattr(event, "is_write", False), event.now
        )

    def lookup(self, index: int, tag: int, is_write: bool, now: float) -> Optional[CacheLine]:
        """Access set ``index`` for ``tag``; return the line on a hit.

        A hit refreshes LRU order and ``last_access``; a write marks
        the line dirty; a demand touch on a prefetched line clears its
        ``prefetched`` bit (it has now been "used", for the Figure 12
        accounting done by the hierarchy).
        """
        if self._direct_mapped:
            line = self._lines[index]
            if line is None or line.tag != tag:
                return None
        else:
            line = self._sets[index].get(tag)
            if line is None:
                return None
        line.last_access = now
        if is_write:
            line.dirty = True
        return line

    def probe(self, index: int, tag: int) -> Optional[CacheLine]:
        """Return the resident line for ``(index, tag)`` without side effects."""
        if self._direct_mapped:
            line = self._lines[index]
            if line is not None and line.tag == tag:
                return line
            return None
        return self._sets[index].peek(tag)

    # ------------------------------------------------------------------
    # Fill / eviction path
    # ------------------------------------------------------------------

    def fill(
        self,
        index: int,
        tag: int,
        now: float,
        prefetched: bool = False,
        dirty: bool = False,
        lru_insert: bool = False,
    ) -> Optional[Eviction]:
        """Install ``(index, tag)``; return the displaced line, if any.

        Filling a block that is already resident refreshes its recency
        but does not reset its metadata (a prefetch landing on a
        resident demand block must not mark it prefetched).

        ``lru_insert`` places the new line at the LRU position instead
        of MRU — the standard low-priority insertion policy for
        prefetch fills, bounding how much a wrong prefetch can disturb
        the demand working set (meaningless for direct-mapped caches).
        """
        if self._direct_mapped:
            old = self._lines[index]
            if old is not None and old.tag == tag:
                old.last_access = now
                old.dirty = old.dirty or dirty
                return None
            self._lines[index] = CacheLine(tag, now, dirty=dirty, prefetched=prefetched)
            if old is None:
                return None
            return Eviction(index, old)
        lru = self._sets[index]
        existing = lru.get(tag)
        if existing is not None:
            existing.last_access = now
            existing.dirty = existing.dirty or dirty
            return None
        line = CacheLine(tag, now, dirty=dirty, prefetched=prefetched)
        victim = lru.put_lru(tag, line) if lru_insert else lru.put(tag, line)
        if victim is None:
            return None
        return Eviction(index, victim[1])

    def invalidate(self, index: int, tag: int) -> Optional[CacheLine]:
        """Remove ``(index, tag)`` from the cache; return the line."""
        if self._direct_mapped:
            line = self._lines[index]
            if line is not None and line.tag == tag:
                self._lines[index] = None
                return line
            return None
        return self._sets[index].pop(tag)

    def victim_line(self, index: int) -> Optional[CacheLine]:
        """Return the line a fill to set ``index`` would evict.

        For a direct-mapped cache this is the (single) resident line;
        for an associative cache the LRU line — None when the set has a
        free way (no eviction would occur).
        """
        if self._direct_mapped:
            return self._lines[index]
        lru = self._sets[index]
        if len(lru) < lru.ways:
            return None
        tag = lru.victim_key()
        return None if tag is None else lru.peek(tag)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def resident_lines(self, index: int) -> List[CacheLine]:
        """All lines currently resident in set ``index`` (LRU→MRU order)."""
        if self._direct_mapped:
            line = self._lines[index]
            return [] if line is None else [line]
        return [line for _, line in self._sets[index].items()]

    def prefetched_count(self) -> int:
        """Resident lines whose ``prefetched`` bit is still set."""
        if self._direct_mapped:
            return sum(1 for line in self._lines if line is not None and line.prefetched)
        count = 0
        for lru in self._sets:
            for line in lru._entries.values():
                if line.prefetched:
                    count += 1
        return count

    def occupancy(self) -> int:
        """Total number of resident lines."""
        if self._direct_mapped:
            return sum(1 for line in self._lines if line is not None)
        return sum(len(s) for s in self._sets)

    def storage_bytes(self) -> int:
        """Data capacity in bytes (tag/metadata overhead excluded)."""
        return self.geometry.size_bytes

    def reset(self) -> None:
        """Empty the cache (all sets cold) without reallocating arrays.

        In-place so that external bindings to the direct-mapped line
        array (the hierarchy's fast path holds one) stay valid.
        """
        if self._direct_mapped:
            lines = self._lines
            for index in range(len(lines)):
                lines[index] = None
        else:
            for lru in self._sets:
                lru.clear()

    def direct_array(self) -> Optional[List[Optional[CacheLine]]]:
        """The flat line array of a direct-mapped cache, else None.

        The hierarchy's hot path binds this once and performs the
        single-way lookup inline; any mutation must still go through
        ``fill``/``invalidate`` so eviction accounting stays correct.
        """
        return self._lines if self._direct_mapped else None

    def __repr__(self) -> str:
        return f"SetAssociativeCache({self.name}: {self.geometry.describe()})"
