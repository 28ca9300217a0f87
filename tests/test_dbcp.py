"""Tests for the Dead-Block Correlating Prefetcher baseline."""

import pytest

from repro.prefetchers import DBCPConfig, DeadBlockCorrelatingPrefetcher
from repro.prefetchers.base import AccessEvent, EvictionEvent, MissEvent


def miss(block, pc=0x1000, now=0.0):
    return MissEvent(block & 1023, block >> 10, block, pc, False, now)


def touch(block, pc=0x1000, hit=True, now=0.0):
    return AccessEvent(block & 1023, block >> 10, block, pc, False, hit, now)


def evict(block, now=0.0):
    return EvictionEvent(block & 1023, block >> 10, block, now, 0.0, now)


class TestConfig:
    def test_default_budget_is_2mb(self):
        prefetcher = DeadBlockCorrelatingPrefetcher()
        assert prefetcher.storage_bytes() == 2 * 1024 * 1024

    def test_invalid_sets(self):
        with pytest.raises(ValueError):
            DBCPConfig(sets=100)

    def test_needs_streams(self):
        prefetcher = DeadBlockCorrelatingPrefetcher()
        assert prefetcher.needs_access_stream
        assert prefetcher.needs_eviction_stream


class TestCorrelation:
    def _generation(self, prefetcher, block, pcs, successor):
        """Simulate one life of ``block``: fill, touches, death, next miss."""
        requests = prefetcher.observe_access(touch(block, pcs[0], hit=False))
        prefetcher.observe_miss(miss(block, pcs[0]))
        for pc in pcs[1:]:
            requests = prefetcher.observe_access(touch(block, pc, hit=True))
        prefetcher.observe_eviction(evict(block))
        prefetcher.observe_access(touch(successor, 0x9999, hit=False))
        prefetcher.observe_miss(miss(successor, 0x9999))
        return requests

    def test_learns_death_to_successor(self):
        """After one generation teaching 'block 5 dies with trace T ->
        block 7 comes next', the same trace in generation two predicts
        block 7 at the death point."""
        prefetcher = DeadBlockCorrelatingPrefetcher(DBCPConfig(sets=256, ways=4))
        pcs = [0x1000, 0x1008, 0x1010]
        self._generation(prefetcher, block=5, pcs=pcs, successor=7)
        # generation two: same reference trace
        prefetcher.observe_access(touch(5, pcs[0], hit=False))
        prefetcher.observe_miss(miss(5, pcs[0]))
        prefetcher.observe_access(touch(5, pcs[1], hit=True))
        requests = prefetcher.observe_access(touch(5, pcs[2], hit=True))
        assert requests is not None
        assert [r.block for r in requests] == [7]
        assert prefetcher.dead_predictions >= 1

    def test_different_trace_no_prediction(self):
        prefetcher = DeadBlockCorrelatingPrefetcher(DBCPConfig(sets=256, ways=4))
        self._generation(prefetcher, block=5, pcs=[0x1000, 0x1008], successor=7)
        prefetcher.observe_access(touch(5, 0x1000, hit=False))
        prefetcher.observe_miss(miss(5, 0x1000))
        # a different PC touches the block: signature diverges
        requests = prefetcher.observe_access(touch(5, 0xBEEF, hit=True))
        assert not requests

    def test_signature_is_per_block(self):
        prefetcher = DeadBlockCorrelatingPrefetcher(DBCPConfig(sets=256, ways=4))
        self._generation(prefetcher, block=5, pcs=[0x1000, 0x1008], successor=7)
        # same PCs on a different block: different signature, no prediction
        prefetcher.observe_access(touch(1029, 0x1000, hit=False))
        prefetcher.observe_miss(miss(1029, 0x1000))
        requests = prefetcher.observe_access(touch(1029, 0x1008, hit=True))
        assert not requests

    def test_self_successor_suppressed(self):
        prefetcher = DeadBlockCorrelatingPrefetcher(DBCPConfig(sets=256, ways=4))
        self._generation(prefetcher, block=5, pcs=[0x1000], successor=5)
        prefetcher.observe_access(touch(5, 0x1000, hit=False))
        requests = prefetcher.observe_access(touch(5, 0x1000, hit=False))
        assert not requests

    def test_table_sets_are_built_on_first_write(self):
        """The 2 MB table starts empty; a probe of an unwritten set
        predicts nothing and builds nothing; learning builds one set."""
        prefetcher = DeadBlockCorrelatingPrefetcher()
        assert prefetcher._table == {}
        assert not prefetcher.observe_access(touch(5, 0x1000, hit=False))
        prefetcher.observe_miss(miss(5, 0x1000))
        assert prefetcher._table == {}
        prefetcher.observe_eviction(evict(5))
        prefetcher.observe_access(touch(7, 0x9999, hit=False))
        prefetcher.observe_miss(miss(7, 0x9999))
        (lru,) = prefetcher._table.values()
        assert list(lru.items()) == [((5 + 0x1000) >> 15, 7)]

    def test_reset(self):
        prefetcher = DeadBlockCorrelatingPrefetcher(DBCPConfig(sets=256, ways=4))
        self._generation(prefetcher, block=5, pcs=[0x1000, 0x1008], successor=7)
        prefetcher.reset()
        assert prefetcher._table == {}
        prefetcher.observe_access(touch(5, 0x1000, hit=False))
        prefetcher.observe_miss(miss(5, 0x1000))
        requests = prefetcher.observe_access(touch(5, 0x1008, hit=True))
        assert not requests
        assert prefetcher.dead_predictions == 0
