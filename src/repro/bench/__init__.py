"""Performance harness for the simulator's per-access hot path.

The engine refactor (slotted events, precomputed geometry, the flat
:meth:`~repro.memory.hierarchy.MemoryHierarchy.access_time` fast path,
bulk ``tolist`` trace conversion) is a pure performance change — every
simulated number is bit-identical — so it needs its own measurement to
exist as a result.  This package provides it:

:mod:`repro.bench.legacy`
    A reference driver that replays the *seed tree's* per-access call
    pattern (per-element numpy scalar indexing, ``int()`` conversions,
    the outcome-allocating structured ``access()`` wrapper, inline
    mark bookkeeping) against the same hierarchy.  Timing the same
    machine under both drivers yields a speedup ratio that is
    meaningful across hosts, unlike raw accesses/sec.
:mod:`repro.bench.hotpath`
    The benchmark proper: times the engine loop and the legacy driver
    over the Figure 11 workload mix for a set of prefetchers and emits
    ``BENCH_hotpath.json``.
:mod:`repro.bench.backend`
    The backend-layer benchmark: pits the compiled ``native`` backend
    against the ``python`` reference per (workload, prefetcher) cell,
    enforces bit-identical results, and emits ``BENCH_backend.json``.

Run them with ``repro-tcp bench`` / ``repro-tcp bench --backend
native`` (see ``docs/usage.md``) or ``python -m repro.bench``.  The
campaign layer is timed end to end by the ledger (``python3 -m
ledger``: the ``fig11`` and ``campaign-tiny`` workloads).
"""

from repro.bench.backend import run_backend_bench
from repro.bench.hotpath import run_hotpath_bench

__all__ = ["run_backend_bench", "run_hotpath_bench"]
