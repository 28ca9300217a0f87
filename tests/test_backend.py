"""The backend layer: selection, parity, and span-boundary behaviour.

The backend contract (:mod:`repro.backend.base`) is strict
bit-identity: any backend, any configuration, same
:class:`~repro.sim.results.SimResult` and same hierarchy counters.
This module exercises the contract where it is most likely to break:

* selection precedence (config field > ``REPRO_BACKEND`` > default),
  unknown names, and the invariant that the choice never enters result
  fingerprints;
* golden-corpus cells replayed under the native backend;
* the native run's structure — one C range per span, window and LSQ
  stalls, MSHR merges into in-flight misses, warmup snapshots landing
  mid-run, probes observing identical progress marks, probe marks
  leaving results untouched, the in-C null-prefetcher path;
* composition with the sanitizer (``REPRO_SANITIZE=full`` and injected
  state corruptions) — checking runs bit-identical to unchecked ones,
  corruption still caught behind the C loop's mirrored state;
* the fallbacks to the reference loop (unmodelled configurations, no
  extension), and the single-slot plane cache across config switches.

``tests/test_backend_fuzz.py`` adds the randomized differential; the
speed gate (native at least 3x the python loop) lives in
``benchmarks/test_backend_perf.py``.
"""

import dataclasses
import types
import warnings

import numpy as np
import pytest

from repro.backend import (
    BACKEND_ENV,
    NativeBackend,
    available_backends,
    backend_name,
    get_backend,
    resolve_backend,
)
from repro.backend import native as native_mod
from repro.backend.native import build as native_build
from repro.cpu.core import CoreParams, OutOfOrderCore
from repro.engine.probes import ProgressProbe
from repro.memory import MemoryHierarchy
from repro.prefetchers.null import NullPrefetcher
from repro.sim import SimulationConfig, sanitizer as sanitizer_mod, simulate
from repro.sim.resilience import InvariantViolation
from repro.sim.runner import clear_cache
from repro.sim.sanitizer import schedule_state_corruption
from repro.sim.store import config_fingerprint
from repro.workloads import Scale, Trace, generate


@pytest.fixture(autouse=True)
def _clean_state(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    monkeypatch.delenv(sanitizer_mod.SANITIZE_ENV, raising=False)
    clear_cache()
    yield
    clear_cache()
    sanitizer_mod.consume_scheduled_corruption()


#: every backend the differential tests compare against the reference.
#: Without the compiled extension the native arm runs its reference-
#: loop fallback, which must agree just the same.
CONTENDERS = ("native",)


def _run_pair(trace, config, params=None, warmup=0, probes=None):
    """One trace under the reference and every contender backend;
    returns (results, machines)."""
    params = params or config.core
    results, machines = {}, {}
    for name in ("python",) + CONTENDERS:
        machine = MemoryHierarchy(config.hierarchy)
        machine.attach_prefetcher(config.build_prefetcher())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            results[name] = get_backend(name).run(
                trace, machine, params, warmup=warmup,
                probes=probes[name] if probes else None,
            )
        machines[name] = machine
    return results, machines


def _assert_identical(results, machines):
    for name in CONTENDERS:
        assert results[name] == results["python"], name
        assert machines[name].stats == machines["python"].stats, name


def _loop_trace(n=6000, blocks=8, name="loop"):
    """A tight loop over a few blocks: all hits after the first touch."""
    addrs = (np.arange(n, dtype=np.uint64) % blocks) * np.uint64(64)
    pcs = np.arange(n, dtype=np.uint64) % np.uint64(4) * np.uint64(4)
    return Trace(
        name=name,
        addrs=addrs,
        pcs=pcs,
        is_load=np.ones(n, dtype=bool),
        gaps=np.full(n, 3, dtype=np.int64),
        deps=np.zeros(n, dtype=np.int64),
    )


class TestSelection:
    def test_registry_lists_all_backends(self):
        names = available_backends()
        assert "python" in names and "native" in names

    def test_default_is_python(self):
        assert backend_name() == "python"
        assert resolve_backend(None).name == "python"

    def test_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "native")
        assert backend_name() == "native"
        assert resolve_backend(None).name == "native"

    def test_explicit_config_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "native")
        assert backend_name("python") == "python"

    def test_unknown_backend_lists_choices(self):
        with pytest.raises(ValueError, match="python"):
            get_backend("fortran")

    def test_numpy_is_an_unknown_backend(self):
        """``numpy`` names no backend (and is no alias of another)."""
        assert "numpy" not in available_backends()
        config = dataclasses.replace(SimulationConfig.baseline(), backend="numpy")
        with pytest.raises(ValueError, match="unknown backend 'numpy'"):
            simulate("swim", config, Scale.QUICK, use_cache=False)

    def test_config_validates_backend_type(self):
        with pytest.raises(ValueError, match="backend"):
            dataclasses.replace(SimulationConfig.baseline(), backend=3)

    def test_fingerprint_ignores_backend(self):
        """Backends are interchangeable, so a checkpoint produced under
        one must be a valid cache hit for the other."""
        base = SimulationConfig.for_prefetcher("tcp-8k")
        as_native = dataclasses.replace(base, backend="native")
        assert config_fingerprint(base) == config_fingerprint(as_native)


class TestGoldenParity:
    """The golden-corpus cells, replayed under ``backend="native"``.

    ``tests/test_golden.py`` freezes these cells against the reference
    backend; asdict-equality between backend selections extends the
    freeze to the native engine (including its fallback configs).
    """

    CELLS = (
        ("swim", "tcp-8k"),
        ("mcf", "tcp-8m"),
        ("gcc", "dbcp-2m"),
        ("swim", "nextline"),
        ("mcf", "nextline"),
        ("mcf", "hybrid-8k"),
    )

    @pytest.mark.parametrize("contender", CONTENDERS)
    @pytest.mark.parametrize("bench,label", CELLS)
    def test_simresults_match_bit_for_bit(self, bench, label, contender):
        config = SimulationConfig.for_prefetcher(label)
        ref = simulate(bench, config, Scale.QUICK, use_cache=False)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            new = simulate(
                bench,
                dataclasses.replace(config, backend=contender),
                Scale.QUICK,
                use_cache=False,
            )
        assert dataclasses.asdict(new) == dataclasses.asdict(ref)

    def test_env_selection_reaches_the_runner(self, monkeypatch):
        ref = simulate("swim", SimulationConfig.baseline(), Scale.QUICK,
                       use_cache=False)
        seen = {}
        original = NativeBackend.run

        def spying(self, *args, **kwargs):
            result = original(self, *args, **kwargs)
            seen["stats"] = self.last_engine_stats
            return result

        monkeypatch.setattr(NativeBackend, "run", spying)
        monkeypatch.setenv(BACKEND_ENV, "native")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            new = simulate("swim", SimulationConfig.baseline(), Scale.QUICK,
                           use_cache=False)
        assert seen, "REPRO_BACKEND did not route the run to NativeBackend"
        assert dataclasses.asdict(new) == dataclasses.asdict(ref)


def _record_steps(monkeypatch):
    """Route NativeCore through a recorder of every ``Engine.step``
    range; returns the (list-valued) record."""
    real = native_build.load()
    if real is None:
        pytest.skip(f"native extension unavailable ({native_build.load_error()})")
    ranges = []

    class Recorder:
        def __init__(self, spec):
            self._engine = real.Engine(spec)

        def step(self, i, stop, *state):
            ranges.append((i, stop))
            return self._engine.step(i, stop, *state)

        def __getattr__(self, name):
            return getattr(self._engine, name)

    monkeypatch.setattr(native_build, "load", lambda: types.SimpleNamespace(Engine=Recorder))
    return ranges


def _reference(trace, config, warmup=0):
    machine = MemoryHierarchy(config.hierarchy)
    machine.attach_prefetcher(config.build_prefetcher())
    result = OutOfOrderCore(config.core).run(trace, machine, warmup=warmup)
    return result, machine


class TestBatchBoundaries:
    """Where the native run splits: spans between marks and the warmup
    point, structural stalls, and merges into in-flight misses."""

    def test_loop_trace_runs_as_one_c_range(self, monkeypatch):
        """Without probes or warmup the whole trace is one C call."""
        ranges = _record_steps(monkeypatch)
        trace = _loop_trace()
        config = SimulationConfig.baseline()
        backend = NativeBackend()
        machine = MemoryHierarchy(config.hierarchy)
        machine.attach_prefetcher(config.build_prefetcher())
        result = backend.run(trace, machine, config.core)
        assert ranges == [(0, len(trace))]
        assert "fallback" not in backend.last_engine_stats
        assert backend.last_engine_stats["epilogue_ns"] > 0
        ref, ref_machine = _reference(trace, config)
        assert result == ref
        assert machine.stats == ref_machine.stats

    @pytest.mark.parametrize("window,lsq", ((4, 128), (128, 2), (3, 3)))
    def test_window_and_lsq_cuts(self, window, lsq):
        """Tiny window/LSQ force structural stalls on almost every
        access; the C loop must not drift from the reference."""
        trace = _loop_trace()
        config = SimulationConfig.baseline()
        params = CoreParams(window=window, lsq=lsq)
        results, machines = _run_pair(trace, config, params=params)
        _assert_identical(results, machines)

    def test_mshr_merge_into_inflight_miss(self):
        """Back-to-back accesses to the same cold block: the second
        merges into the first's in-flight MSHR entry without an L1
        fill."""
        n = 4000
        base = np.repeat(np.arange(n // 2, dtype=np.uint64), 2)
        addrs = base * np.uint64(64)
        trace = Trace(
            name="merge",
            addrs=addrs,
            pcs=np.zeros(n, dtype=np.uint64),
            is_load=np.ones(n, dtype=bool),
            gaps=np.zeros(n, dtype=np.int64),
            deps=np.zeros(n, dtype=np.int64),
        )
        results, machines = _run_pair(
            trace, SimulationConfig.for_prefetcher("nextline")
        )
        _assert_identical(results, machines)

    def test_stores_and_dependences(self):
        """Store overrides and pointer-chasing deps inside hit runs."""
        n = 5000
        rng = np.random.default_rng(7)
        deps = np.where(rng.random(n) < 0.2, 1, 0).astype(np.int64)
        deps[0] = 0  # a dependence cannot point before the trace start
        trace = Trace(
            name="mix",
            addrs=(rng.integers(0, 64, n).astype(np.uint64)) * np.uint64(64),
            pcs=rng.integers(0, 16, n).astype(np.uint64) * np.uint64(4),
            is_load=rng.random(n) < 0.7,
            gaps=rng.integers(0, 6, n).astype(np.int64),
            deps=deps,
        )
        results, machines = _run_pair(
            trace, SimulationConfig.for_prefetcher("tcp-8k")
        )
        _assert_identical(results, machines)

    def test_warmup_snapshot_mid_run(self):
        """The warmup boundary splits the run mid-trace; the
        measured-window bookkeeping must still agree."""
        trace = _loop_trace()
        results, machines = _run_pair(
            trace, SimulationConfig.for_prefetcher("tcp-8k"),
            warmup=len(trace) // 3,
        )
        _assert_identical(results, machines)
        assert (
            machines["native"].warmup_stats == machines["python"].warmup_stats
        )

    def test_probes_see_identical_marks(self):
        """Progress probes fire at the shared periodic marks with the
        same (done, total, sim_time) under either backend."""
        trace = generate("fma3d", Scale.QUICK)
        marks = {name: [] for name in ("python",) + CONTENDERS}
        probes = {
            name: [ProgressProbe(
                lambda done, total, sim_time, _n=name:
                    marks[_n].append((done, total, sim_time))
            )]
            for name in marks
        }
        results, machines = _run_pair(
            trace, SimulationConfig.for_prefetcher("tcp-8k"), probes=probes
        )
        _assert_identical(results, machines)
        for name in CONTENDERS:
            assert marks[name] == marks["python"], name
        assert marks["python"], "no progress marks fired at all"

    def test_probe_every_64_accesses_changes_nothing(self, monkeypatch):
        """Marks split the run into 64-access C ranges and sync state
        out and back in at each; the result must not move a bit."""
        ranges = _record_steps(monkeypatch)
        trace = generate("fma3d", Scale.QUICK)
        config = SimulationConfig.for_prefetcher("tcp-8k")
        warmup = 1000
        outcomes = []
        for probes in (None, [ProgressProbe(lambda *_: None, interval=64)]):
            ranges.clear()
            machine = MemoryHierarchy(config.hierarchy)
            machine.attach_prefetcher(config.build_prefetcher())
            result = NativeBackend().run(
                trace, machine, config.core, warmup=warmup, probes=probes
            )
            outcomes.append((result, machine, list(ranges)))
        (plain, plain_m, plain_r), (probed, probed_m, probed_r) = outcomes
        n = len(trace)
        assert plain_r == [(0, warmup), (warmup, n)]
        assert [i for i, _ in probed_r] == [0] + [stop for _, stop in probed_r[:-1]]
        assert {stop for _, stop in probed_r} == set(range(64, n + 1, 64)) | {warmup, n}
        assert probed == plain
        assert probed_m.stats == plain_m.stats
        assert probed_m.warmup_stats == plain_m.warmup_stats
        assert probed_m.prefetcher.stats == plain_m.prefetcher.stats
        assert probed_m.prefetcher.tht._history == plain_m.prefetcher.tht._history


class TestNullPrefetcherPath:
    """Baseline cells: the null prefetcher is counted in C."""

    def test_base_cell_matches_python_including_lookups(self):
        trace = generate("mcf", Scale.QUICK)
        results, machines = _run_pair(trace, SimulationConfig.baseline())
        _assert_identical(results, machines)
        lookups = machines["python"].prefetcher.stats.lookups
        assert lookups > 0
        assert machines["native"].prefetcher.stats == machines["python"].prefetcher.stats

    def test_base_cell_never_calls_observe_miss(self, monkeypatch):
        if native_build.load() is None:
            pytest.skip(f"native extension unavailable ({native_build.load_error()})")

        def refuse(self, miss):
            raise AssertionError("NullPrefetcher.observe_miss re-entered")

        monkeypatch.setattr(NullPrefetcher, "observe_miss", refuse)
        trace = generate("mcf", Scale.QUICK)
        config = SimulationConfig.baseline()
        machine = MemoryHierarchy(config.hierarchy)
        machine.attach_prefetcher(config.build_prefetcher())
        NativeBackend().run(trace, machine, config.core)
        assert machine.prefetcher.stats.lookups == machine.stats.l1_misses - machine.stats.mshr_merges


class TestSanitizerComposition:
    """``--sanitize full`` + ``--backend native`` compose."""

    def test_full_sanitize_matches_unsanitized(self):
        config = SimulationConfig.for_prefetcher("tcp-8k")
        plain = simulate("fma3d", config, Scale.QUICK, use_cache=False)
        checked = simulate(
            "fma3d",
            dataclasses.replace(config, sanitize="full", backend="native"),
            Scale.QUICK,
            use_cache=False,
        )
        assert dataclasses.asdict(checked) == dataclasses.asdict(plain)

    @pytest.mark.parametrize("kind,invariant", (
        ("stats-drift", "stats-l1-conservation"),
        ("cache-dup", "cache-set-duplicate"),
        ("tht-shape", "tht-history-length"),
    ))
    def test_corruption_still_caught_under_native(self, kind, invariant):
        """An injected state corruption must not hide behind the C
        loop's mirrors of hierarchy state."""
        config = dataclasses.replace(
            SimulationConfig.for_prefetcher("tcp-8k"),
            sanitize="full",
            backend="native",
        )
        schedule_state_corruption(kind)
        with pytest.raises(InvariantViolation) as excinfo:
            simulate("fma3d", config, Scale.QUICK, use_cache=False)
        assert excinfo.value.invariant == invariant


class TestFallbacks:
    """Configurations the C loop does not model run on the reference
    loop — with a one-line warning, never a wrong result."""

    @pytest.mark.parametrize("label,reason", (
        ("dbcp-2m", "prefetcher observes the access stream"),
        ("hybrid-8k", "gated L1 promotions"),
    ))
    def test_fallback_reason_reported(self, label, reason, monkeypatch):
        """Through the runner: warned, recorded on the SimResult, and
        bit-identical to the reference."""
        monkeypatch.setattr(native_mod, "_WARNED_FALLBACKS", set())
        config = SimulationConfig.for_prefetcher(label)
        ref = simulate("swim", config, Scale.QUICK, use_cache=False)
        with pytest.warns(RuntimeWarning, match=reason):
            new = simulate(
                "swim",
                dataclasses.replace(config, backend="native"),
                Scale.QUICK,
                use_cache=False,
            )
        assert new.backend_fallback == reason
        assert dataclasses.asdict(new) == dataclasses.asdict(ref)

    def test_fallback_warns_once_per_process(self, monkeypatch):
        monkeypatch.setattr(native_mod, "_WARNED_FALLBACKS", set())
        trace = generate("swim", Scale.QUICK)
        config = SimulationConfig.for_prefetcher("hybrid-8k")
        backend = NativeBackend()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(3):
                machine = MemoryHierarchy(config.hierarchy)
                machine.attach_prefetcher(config.build_prefetcher())
                backend.run(trace, machine, config.core)
        relevant = [w for w in caught if "native backend" in str(w.message)]
        assert len(relevant) == 1


class TestNativeFallbacks:
    """The native backend's single fallback tier: configurations the C
    loop does not model and a missing extension both run the reference
    loop — loud once, then silent, never wrong."""

    @pytest.mark.parametrize("label,reason", (
        ("dbcp-2m", "prefetcher observes the access stream"),
        ("hybrid-8k", "gated L1 promotions"),
    ))
    def test_config_fallback_reason_reported(self, label, reason, monkeypatch):
        monkeypatch.setattr(native_mod, "_WARNED_FALLBACKS", set())
        trace = generate("swim", Scale.QUICK)
        config = SimulationConfig.for_prefetcher(label)
        machine = MemoryHierarchy(config.hierarchy)
        machine.attach_prefetcher(config.build_prefetcher())
        backend = NativeBackend()
        with pytest.warns(RuntimeWarning, match=reason):
            backend.run(trace, machine, config.core)
        assert backend.last_engine_stats == {"fallback": reason}

    def test_unavailable_extension_falls_back_to_python(self, monkeypatch):
        """With the extension refused (``REPRO_NATIVE=0``) the native
        backend runs the reference loop, warns once, and records why —
        and the results are still bit-identical to the reference."""
        monkeypatch.setenv(native_build.NATIVE_ENV, "0")
        monkeypatch.setattr(native_build, "_MODULE", None)
        monkeypatch.setattr(native_build, "_ERROR", None)
        monkeypatch.setattr(native_build, "_TRIED", False)
        monkeypatch.setattr(native_mod, "_WARNED_FALLBACKS", set())
        try:
            trace = generate("swim", Scale.QUICK)
            config = SimulationConfig.for_prefetcher("tcp-8k")
            machine = MemoryHierarchy(config.hierarchy)
            machine.attach_prefetcher(config.build_prefetcher())
            backend = NativeBackend()
            with pytest.warns(RuntimeWarning, match="native extension "
                                                    "unavailable"):
                result = backend.run(trace, machine, config.core)
            stats = backend.last_engine_stats
            assert stats == {
                "fallback": "native extension unavailable "
                            "(disabled by REPRO_NATIVE=0)"
            }
            ref_machine = MemoryHierarchy(config.hierarchy)
            ref_machine.attach_prefetcher(config.build_prefetcher())
            ref = get_backend("python").run(trace, ref_machine, config.core)
            assert result == ref
            assert machine.stats == ref_machine.stats
        finally:
            # un-memoise the refused probe so later tests see the real
            # availability again (monkeypatch restores the env var)
            native_build.reset()

    def test_unavailable_warns_once_per_process(self, monkeypatch):
        monkeypatch.setenv(native_build.NATIVE_ENV, "0")
        monkeypatch.setattr(native_build, "_MODULE", None)
        monkeypatch.setattr(native_build, "_ERROR", None)
        monkeypatch.setattr(native_build, "_TRIED", False)
        monkeypatch.setattr(native_mod, "_WARNED_FALLBACKS", set())
        try:
            trace = generate("swim", Scale.QUICK)
            config = SimulationConfig.for_prefetcher("nextline")
            backend = NativeBackend()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                for _ in range(3):
                    machine = MemoryHierarchy(config.hierarchy)
                    machine.attach_prefetcher(config.build_prefetcher())
                    backend.run(trace, machine, config.core)
            relevant = [
                w for w in caught
                if "native extension unavailable" in str(w.message)
            ]
            assert len(relevant) == 1
        finally:
            native_build.reset()

    def test_fallback_recorded_in_simresult(self, monkeypatch):
        """The runner copies the engine's fallback reason into
        ``SimResult.backend_fallback`` (provenance metadata only — it
        stays out of equality and asdict fingerprints)."""
        config = dataclasses.replace(
            SimulationConfig.for_prefetcher("hybrid-8k"), backend="native"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = simulate("swim", config, Scale.QUICK, use_cache=False)
        assert result.backend_fallback == "gated L1 promotions"
        payload = result.to_dict()
        assert payload["backend_fallback"] == "gated L1 promotions"
        from repro.sim.results import SimResult

        rebuilt = SimResult.from_dict(payload)
        assert rebuilt.backend_fallback == "gated L1 promotions"
        assert rebuilt == result
        # a non-degraded run records nothing
        clean_backend = "native" if native_build.load() is not None else "python"
        clean = simulate(
            "swim",
            dataclasses.replace(
                SimulationConfig.for_prefetcher("tcp-8k"), backend=clean_backend
            ),
            Scale.QUICK,
            use_cache=False,
        )
        assert clean.backend_fallback is None
        assert "backend_fallback" not in clean.to_dict()


class TestPlaneCache:
    """The single-slot per-trace plane memo must never leak state
    between configurations or traces."""

    def test_reuse_across_configs_and_back(self):
        trace = _loop_trace()
        for label in ("tcp-8k", "nextline", "tcp-8k", "none"):
            config = SimulationConfig.for_prefetcher(label)
            results, machines = _run_pair(trace, config)
            _assert_identical(results, machines)

    def test_slot_eviction_on_new_trace(self):
        first = _loop_trace(name="first")
        second = _loop_trace(n=4096, blocks=5, name="second")
        config = SimulationConfig.for_prefetcher("tcp-8k")
        for trace in (first, second, first):
            results, machines = _run_pair(trace, config)
            _assert_identical(results, machines)
