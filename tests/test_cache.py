"""Tests for repro.memory.cache.SetAssociativeCache."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.memory.address import CacheGeometry
from repro.memory.cache import CacheLine, SetAssociativeCache


def small_dm() -> SetAssociativeCache:
    """4-set direct-mapped cache with 32B blocks (128B total)."""
    return SetAssociativeCache(CacheGeometry(128, 1, 32), "dm")


def small_assoc(ways: int = 2) -> SetAssociativeCache:
    return SetAssociativeCache(CacheGeometry(128 * ways, ways, 32), "sa")


class TestDirectMapped:
    def test_miss_then_hit(self):
        cache = small_dm()
        assert cache.lookup(0, 7, False, 0.0) is None
        cache.fill(0, 7, 1.0)
        line = cache.lookup(0, 7, False, 2.0)
        assert line is not None
        assert line.last_access == 2.0

    def test_conflict_eviction(self):
        cache = small_dm()
        cache.fill(0, 1, 0.0)
        eviction = cache.fill(0, 2, 1.0)
        assert eviction is not None
        assert eviction.tag == 1
        assert cache.lookup(0, 1, False, 2.0) is None
        assert cache.lookup(0, 2, False, 2.0) is not None

    def test_fill_empty_set_no_eviction(self):
        cache = small_dm()
        assert cache.fill(1, 5, 0.0) is None

    def test_write_sets_dirty(self):
        cache = small_dm()
        cache.fill(0, 3, 0.0)
        cache.lookup(0, 3, True, 1.0)
        assert cache.probe(0, 3).dirty

    def test_refill_resident_keeps_metadata(self):
        cache = small_dm()
        cache.fill(0, 3, 0.0)
        cache.lookup(0, 3, True, 1.0)  # dirty
        eviction = cache.fill(0, 3, 2.0, prefetched=True)
        assert eviction is None
        line = cache.probe(0, 3)
        assert line.dirty  # not reset
        assert not line.prefetched  # a prefetch onto a demand block

    def test_probe_no_side_effects(self):
        cache = small_dm()
        cache.fill(0, 3, 0.0)
        line = cache.probe(0, 3)
        assert line.last_access == 0.0
        assert cache.probe(0, 99) is None

    def test_invalidate(self):
        cache = small_dm()
        cache.fill(0, 3, 0.0)
        line = cache.invalidate(0, 3)
        assert line is not None
        assert cache.probe(0, 3) is None
        assert cache.invalidate(0, 3) is None

    def test_victim_line(self):
        cache = small_dm()
        assert cache.victim_line(0) is None
        cache.fill(0, 3, 0.0)
        assert cache.victim_line(0).tag == 3


class TestSetAssociative:
    def test_lru_eviction_order(self):
        cache = small_assoc(2)
        cache.fill(0, 1, 0.0)
        cache.fill(0, 2, 1.0)
        cache.lookup(0, 1, False, 2.0)  # 2 becomes LRU
        eviction = cache.fill(0, 3, 3.0)
        assert eviction.tag == 2

    def test_no_eviction_with_free_way(self):
        cache = small_assoc(2)
        assert cache.fill(0, 1, 0.0) is None
        assert cache.fill(0, 2, 1.0) is None
        assert cache.victim_line(0) is None or True  # set now full

    def test_victim_line_none_when_free_way(self):
        cache = small_assoc(2)
        cache.fill(0, 1, 0.0)
        assert cache.victim_line(0) is None
        cache.fill(0, 2, 1.0)
        assert cache.victim_line(0).tag == 1

    def test_resident_lines_order(self):
        cache = small_assoc(4)
        for tag in (1, 2, 3):
            cache.fill(0, tag, float(tag))
        tags = [line.tag for line in cache.resident_lines(0)]
        assert tags == [1, 2, 3]

    def test_occupancy(self):
        cache = small_assoc(2)
        assert cache.occupancy() == 0
        cache.fill(0, 1, 0.0)
        cache.fill(1, 1, 0.0)
        assert cache.occupancy() == 2

    def test_prefetched_flag_set_on_fill(self):
        cache = small_assoc(2)
        cache.fill(0, 1, 0.0, prefetched=True)
        assert cache.probe(0, 1).prefetched

    def test_storage_bytes(self):
        assert small_assoc(4).storage_bytes() == 512

    @pytest.mark.parametrize("make", (small_dm, small_assoc))
    def test_prefetched_count_matches_resident_lines(self, make):
        cache = make()
        for index, tag, prefetched in ((0, 1, True), (1, 2, False), (2, 3, True), (2, 4, True)):
            cache.fill(index, tag, 0.0, prefetched=prefetched)
        cache.lookup(2, 4, False, 1.0).prefetched = False  # a demand use
        expected = sum(
            1
            for index in range(cache.geometry.sets)
            for line in cache.resident_lines(index)
            if line.prefetched
        )
        assert cache.prefetched_count() == expected
        assert expected == (2 if cache.geometry.ways > 1 else 1)


class TestCacheLine:
    def test_repr_flags(self):
        line = CacheLine(0xAB, dirty=True, prefetched=True)
        assert "DP" in repr(line)

    def test_defaults(self):
        line = CacheLine(1, 5.0)
        assert line.fill_time == 5.0
        assert line.last_access == 5.0
        assert not line.dirty and not line.prefetched
        assert line.signature == 0


class TestPropertyBased:
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 6)), max_size=80),
           st.integers(min_value=1, max_value=4))
    def test_occupancy_bounded_and_residency_consistent(self, accesses, ways):
        cache = SetAssociativeCache(CacheGeometry(128 * ways, ways, 32), "p")
        resident = {}
        time = 0.0
        for index, tag in accesses:
            time += 1.0
            if cache.lookup(index, tag, False, time) is None:
                eviction = cache.fill(index, tag, time)
                if eviction is not None:
                    resident.pop((eviction.set_index, eviction.tag), None)
                resident[(index, tag)] = True
            # invariants
            assert cache.occupancy() == len(resident)
            for set_index in range(4):
                assert len(cache.resident_lines(set_index)) <= ways
        for (index, tag) in resident:
            assert cache.probe(index, tag) is not None


class TestLruInsertFill:
    def test_prefetch_fill_at_lru_evicted_first(self):
        cache = small_assoc(2)
        cache.fill(0, 1, 0.0)
        cache.fill(0, 2, 1.0)
        cache.lookup(0, 1, False, 2.0)  # order now: 2 (LRU), 1 (MRU)
        # a low-priority fill displaces the LRU line and takes its place
        eviction = cache.fill(0, 9, 3.0, prefetched=True, lru_insert=True)
        assert eviction.tag == 2
        # the next fill evicts the prefetched line, not the demand line
        eviction = cache.fill(0, 5, 4.0)
        assert eviction.tag == 9
        assert cache.probe(0, 1) is not None

    def test_lru_insert_on_resident_block_keeps_recency(self):
        cache = small_assoc(2)
        cache.fill(0, 1, 0.0)
        cache.fill(0, 2, 1.0)
        assert cache.fill(0, 2, 2.0, lru_insert=True) is None
        eviction = cache.fill(0, 3, 3.0)
        assert eviction.tag == 1  # tag 2 kept its MRU position

    def test_direct_mapped_ignores_flag(self):
        cache = small_dm()
        cache.fill(0, 1, 0.0, lru_insert=True)
        assert cache.probe(0, 1) is not None
