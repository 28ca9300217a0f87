"""Miss-path edge cases, differential between the C loop and the reference.

The native backend transcribes the reference miss path into C — the
inlined MSHR, L2, bus and prefetch-issue logic plus the TCP fast path
(THT running sums, PHT truncated-add indexing).  These tests aim
adversarial traces at the three mechanisms most likely to diverge
between the Python and C versions:

* the MSHR's lazy-deletion ready heap under merge storms — repeated
  same-block misses merging into in-flight entries while a tiny MSHR
  forces full-stall reaping of stale heap entries;
* the THT running-sum update at history length ``k`` — the sum is
  maintained incrementally (``sum - oldest + newest``) and must stay
  exact as tags rotate out of the window, for any ``k``;
* PHT truncated-add collisions — a tiny PHT where distinct tag
  sequences alias onto the same set, exercising eviction, successor
  MRU rotation, and collision-polluted predictions.

Each test also asserts the targeted machinery actually engaged on the
reference run, so a regression that silently bypasses the mechanism
(rather than diverging on it) still fails.
"""

import warnings

import numpy as np
import pytest

from repro.backend import get_backend
from repro.backend.native import build as native_build
from repro.core.pht import PHTConfig
from repro.core.tcp import TCPConfig, TagCorrelatingPrefetcher
from repro.cpu.core import CoreParams
from repro.memory import MemoryHierarchy
from repro.memory.hierarchy import HierarchyParams
from repro.sim.config import SimulationConfig
from repro.workloads import Trace

CONTENDERS = ("native",)


def _require(contender: str) -> None:
    if contender == "native" and native_build.load() is None:
        pytest.skip(f"native extension unavailable ({native_build.load_error()})")


def _trace(addrs, pcs=None, loads=None, gaps=None, deps=None, name="edge"):
    n = len(addrs)
    return Trace(
        name=name,
        addrs=np.asarray(addrs, dtype=np.uint64),
        pcs=(
            np.asarray(pcs, dtype=np.uint64)
            if pcs is not None
            else np.zeros(n, dtype=np.uint64)
        ),
        is_load=(
            np.asarray(loads, dtype=bool)
            if loads is not None
            else np.ones(n, dtype=bool)
        ),
        gaps=(
            np.asarray(gaps, dtype=np.int64)
            if gaps is not None
            else np.zeros(n, dtype=np.int64)
        ),
        deps=(
            np.asarray(deps, dtype=np.int64)
            if deps is not None
            else np.zeros(n, dtype=np.int64)
        ),
    )


def _run(backend_name, trace, hierarchy_params, make_prefetcher, params=None):
    machine = MemoryHierarchy(hierarchy_params)
    machine.attach_prefetcher(make_prefetcher())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = get_backend(backend_name).run(
            trace, machine, params or CoreParams()
        )
    return result, machine


def _assert_parity(contender, trace, hierarchy_params, make_prefetcher,
                   params=None):
    """Run reference + contender; return the reference machine (for
    engagement assertions)."""
    ref, ref_machine = _run(
        "python", trace, hierarchy_params, make_prefetcher, params
    )
    new, new_machine = _run(
        contender, trace, hierarchy_params, make_prefetcher, params
    )
    assert new == ref
    assert new_machine.stats == ref_machine.stats
    return ref_machine


def _null_prefetcher():
    config = SimulationConfig.for_prefetcher("none")
    return config.build_prefetcher()


def _nextline_prefetcher():
    config = SimulationConfig.for_prefetcher("nextline")
    return config.build_prefetcher()


class TestMSHRMergeStorms:
    """The lazy-deletion ready heap: stale entries accumulate as blocks
    are merged into and deleted from the MSHR dict; a full MSHR must
    reap them in exactly the reference order."""

    @pytest.mark.parametrize("contender", CONTENDERS)
    @pytest.mark.parametrize("mshr_entries", (2, 3, 4))
    def test_merge_storm_with_tiny_mshr(self, contender, mshr_entries):
        _require(contender)
        # Same-set tag ping-pong: each fill conflict-evicts the other
        # tag, which re-misses while its original fetch is still in
        # flight — an MSHR merge (the MSHR is keyed by L1 block).
        # Every non-merged miss acquires an entry, so a tiny MSHR also
        # full-stalls and reaps, leaving dict deletions ahead of lazy
        # heap deletions.
        rng = np.random.default_rng(11)
        n = 3000
        sets = rng.integers(0, 4, n).astype(np.uint64)
        tags = rng.integers(0, 2, n).astype(np.uint64)
        addrs = (tags << np.uint64(15)) | (sets << np.uint64(5))
        trace = _trace(addrs, gaps=np.zeros(n, dtype=np.int64))
        hp = HierarchyParams(mshr_entries=mshr_entries)
        machine = _assert_parity(contender, trace, hp, _null_prefetcher)
        assert machine.stats.mshr_merges > 0
        assert machine.stats.mshr_full_stalls > 0

    @pytest.mark.parametrize("contender", CONTENDERS)
    def test_merge_storm_with_prefetch_traffic(self, contender):
        """Prefetch fills race demand misses for the same blocks while
        the MSHR thrashes — in-flight prefetch expiry and MSHR reaping
        interleave."""
        _require(contender)
        rng = np.random.default_rng(13)
        n = 4000
        sets = rng.integers(0, 16, n).astype(np.uint64)
        tags = rng.integers(0, 2, n).astype(np.uint64)
        addrs = (tags << np.uint64(15)) | (sets << np.uint64(5))
        trace = _trace(addrs)
        hp = HierarchyParams(mshr_entries=2, max_outstanding_prefetches=4)
        machine = _assert_parity(contender, trace, hp, _nextline_prefetcher)
        assert machine.stats.mshr_merges > 0
        assert machine.stats.mshr_full_stalls > 0
        assert machine.stats.prefetches_issued > 0


def _tcp_prefetcher(history_length, pht_sets=256, pht_ways=8):
    def make():
        pht = PHTConfig(sets=pht_sets, ways=pht_ways, miss_index_bits=0)
        return TagCorrelatingPrefetcher(
            TCPConfig(history_length=history_length, pht=pht)
        )

    return make


def _tag_rotation_trace(n_tags, n=4000, sets=3):
    """Misses rotating through ``n_tags`` distinct L1 tags over a few
    sets: every miss pushes a tag out of the THT window, so the
    running sum is exercised at each length-``k`` boundary."""
    i = np.arange(n, dtype=np.uint64)
    tag = (i * np.uint64(7)) % np.uint64(n_tags)
    index = i % np.uint64(sets)
    # L1 is 32 KB direct-mapped, 32 B blocks: 1024 sets, tag above bit 15.
    addrs = (tag << np.uint64(15)) | (index << np.uint64(5))
    return _trace(addrs, gaps=np.full(n, 1, dtype=np.int64))


class TestTHTRunningSum:
    """The incremental THT row sum must stay exact while tags rotate
    through the length-``k`` history window."""

    @pytest.mark.parametrize("contender", CONTENDERS)
    @pytest.mark.parametrize("history_length", (1, 2, 4, 7))
    def test_rotation_at_history_length_k(self, contender, history_length):
        _require(contender)
        trace = _tag_rotation_trace(n_tags=max(history_length + 1, 5))
        machine = _assert_parity(
            contender,
            trace,
            HierarchyParams(),
            _tcp_prefetcher(history_length),
        )
        prefetcher = machine.prefetcher
        assert prefetcher.stats.updates > 0
        assert prefetcher.stats.predictions > 0

    @pytest.mark.parametrize("contender", CONTENDERS)
    def test_repeating_pair_saturates_window(self, contender):
        """Exactly k distinct tags cycling: after warmup every push
        re-inserts a tag that just left the window — the running sum
        must land back on the same value, never drift."""
        _require(contender)
        trace = _tag_rotation_trace(n_tags=2, n=3000, sets=1)
        machine = _assert_parity(
            contender, trace, HierarchyParams(), _tcp_prefetcher(2)
        )
        assert machine.prefetcher.stats.predictions > 0


class TestPHTTruncatedAdd:
    """Truncated-add indexing into a deliberately tiny PHT: distinct
    sequences alias onto the same set, forcing evictions, successor
    rotation, and collision-polluted predictions — all of which must
    stay bit-identical."""

    @pytest.mark.parametrize("contender", CONTENDERS)
    @pytest.mark.parametrize("pht_sets,pht_ways", ((2, 2), (4, 1), (8, 4)))
    def test_collisions_in_tiny_pht(self, contender, pht_sets, pht_ways):
        _require(contender)
        rng = np.random.default_rng(17)
        n = 4000
        tag = rng.integers(0, 40, n).astype(np.uint64)
        index = rng.integers(0, 4, n).astype(np.uint64)
        addrs = (tag << np.uint64(15)) | (index << np.uint64(5))
        trace = _trace(addrs, gaps=np.full(n, 1, dtype=np.int64))
        machine = _assert_parity(
            contender,
            trace,
            HierarchyParams(),
            _tcp_prefetcher(2, pht_sets=pht_sets, pht_ways=pht_ways),
        )
        prefetcher = machine.prefetcher
        assert prefetcher.stats.updates > 0
        assert prefetcher.stats.predictions > 0

    @pytest.mark.parametrize("contender", CONTENDERS)
    def test_colliding_sums_same_set(self, contender):
        """Tag pairs chosen so different sequences share a truncated
        sum modulo the set count: successor lists for distinct
        sequences interleave in one PHT set."""
        _require(contender)
        # With sets=2, sequences whose tag-sums differ by 2 collide.
        pattern = np.array([1, 3, 5, 7, 2, 4, 6, 8], dtype=np.uint64)
        tag = np.tile(pattern, 500)
        addrs = (tag << np.uint64(15)) | (np.uint64(1) << np.uint64(5))
        trace = _trace(addrs, gaps=np.ones(len(tag), dtype=np.int64))
        machine = _assert_parity(
            contender,
            trace,
            HierarchyParams(),
            _tcp_prefetcher(2, pht_sets=2, pht_ways=2),
        )
        assert machine.prefetcher.stats.predictions > 0
