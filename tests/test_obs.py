"""Tests for the observability layer (repro.obs).

Covers the metrics primitives, span tracing, trace analysis, the
profiling hooks, and — most importantly — the differential guarantee:
enabling observability must never change a simulation result.
"""

import os

import pytest

from repro.obs import metrics as obs_metrics
from repro.obs import profile as obs_profile
from repro.obs import spans as obs_spans
from repro.obs import trace as obs_trace
from repro.sim import SimulationConfig, prewarm, simulate
from repro.sim import resilience, store as store_mod
from repro.sim.runner import clear_cache
from repro.workloads import Scale

# The fig11 QUICK mix from the issue: three benchmarks crossed with the
# paper's headline configurations.
DIFF_BENCHES = ("swim", "mcf", "gcc")
DIFF_CONFIGS = ("base", "tcp-8k", "tcp-8m", "dbcp-2m")


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Observability globals must never leak between tests."""
    yield
    obs_spans.set_span_sink(None)
    obs_metrics.set_active_registry(None)
    resilience.set_fault_injector(None)
    # Tests that simulate crashes enter spans without exiting them;
    # drop those entries or they would parent later tests' spans.
    del obs_spans._OPEN_STACK[:]
    clear_cache()


def _config(label):
    if label == "base":
        return SimulationConfig.baseline()
    return SimulationConfig.for_prefetcher(label)


# ---------------------------------------------------------------------------
# Metrics primitives
# ---------------------------------------------------------------------------


class TestCounter:
    def test_accumulates(self):
        c = obs_metrics.Counter("c")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_rejects_negative(self):
        c = obs_metrics.Counter("c")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_to_dict(self):
        c = obs_metrics.Counter("c")
        c.inc(3)
        assert c.to_dict() == {"type": "counter", "value": 3}


class TestGauge:
    def test_envelope(self):
        g = obs_metrics.Gauge("g")
        for v in (5, -2, 9):
            g.set(v)
        d = g.to_dict()
        assert d["last"] == 9
        assert d["min"] == -2
        assert d["max"] == 9
        assert d["samples"] == 3

    def test_empty_envelope_is_none(self):
        d = obs_metrics.Gauge("g").to_dict()
        assert d["samples"] == 0
        assert d["min"] is None and d["max"] is None


class TestHistogram:
    def test_bucketing(self):
        h = obs_metrics.Histogram("h", buckets=(1, 10, 100))
        for v in (0.5, 5, 50, 500):
            h.observe(v)
        d = h.to_dict()
        assert d["count"] == 4
        assert d["sum"] == pytest.approx(555.5)
        # One value per bucket plus one overflow.
        assert d["counts"] == [1, 1, 1, 1]
        assert d["min"] == 0.5 and d["max"] == 500

    def test_mean(self):
        h = obs_metrics.Histogram("h", buckets=(1,))
        h.observe(2)
        h.observe(4)
        assert h.mean == pytest.approx(3.0)

    def test_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            obs_metrics.Histogram("h", buckets=())
        with pytest.raises(ValueError):
            obs_metrics.Histogram("h", buckets=(1, 1))


class TestRegistry:
    def test_get_or_create(self):
        r = obs_metrics.MetricsRegistry()
        assert r.counter("a") is r.counter("a")
        assert len(r) == 1
        assert "a" in r

    def test_type_clash_raises(self):
        r = obs_metrics.MetricsRegistry()
        r.counter("x")
        with pytest.raises(TypeError):
            r.gauge("x")

    def test_to_dict_sorted(self):
        r = obs_metrics.MetricsRegistry()
        r.counter("z.last")
        r.counter("a.first")
        assert list(r.to_dict()) == ["a.first", "z.last"]

    def test_merge_adds_counters_and_widens_gauges(self):
        r = obs_metrics.MetricsRegistry()
        r.counter("hits").inc(2)
        r.gauge("depth").set(5)
        snap = {
            "hits": {"type": "counter", "value": 3},
            "depth": {"type": "gauge", "last": 9, "min": 1, "max": 9, "samples": 2},
            "junk": "not-a-metric",  # malformed entries are skipped
        }
        r.merge(snap)
        assert r.counter("hits").value == 5
        d = r.gauge("depth").to_dict()
        assert d["min"] == 1 and d["max"] == 9 and d["samples"] == 3

    def test_merge_histograms(self):
        r = obs_metrics.MetricsRegistry()
        h = r.histogram("wall", buckets=(1, 2))
        h.observe(0.5)
        other = obs_metrics.Histogram("h", buckets=(1, 2))
        other.observe(1.5)
        r.merge({"wall": other.to_dict()})
        assert r.histogram("wall", buckets=(1, 2)).to_dict()["count"] == 2


class TestResolveObs:
    def test_default_off(self, monkeypatch):
        monkeypatch.delenv(obs_metrics.OBS_ENV, raising=False)
        mode = obs_metrics.resolve_obs()
        assert not mode.enabled

    @pytest.mark.parametrize(
        "value,metrics,trace",
        [
            ("metrics", True, False),
            ("trace", False, True),
            ("all", True, True),
            ("metrics,trace", True, True),
            ("off", False, False),
        ],
    )
    def test_modes(self, monkeypatch, value, metrics, trace):
        monkeypatch.setenv(obs_metrics.OBS_ENV, value)
        mode = obs_metrics.resolve_obs()
        assert mode.metrics is metrics
        assert mode.trace is trace

    def test_unknown_raises(self, monkeypatch):
        monkeypatch.setenv(obs_metrics.OBS_ENV, "verbose")
        with pytest.raises(ValueError):
            obs_metrics.resolve_obs()

    def test_choices_cover_cli(self):
        assert set(obs_metrics.OBS_CHOICES) == {"off", "metrics", "trace", "all"}


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


class TestSpans:
    def test_noop_without_sink(self):
        assert obs_spans.span_sink() is None
        with obs_spans.span("anything") as s:
            # The shared no-op span: no events, no allocation per call.
            with obs_spans.span("inner") as s2:
                assert s2 is s

    def test_begin_end_events(self):
        collector = obs_spans.TraceCollector()
        with obs_spans.use_span_sink(collector.sink):
            with obs_spans.span("work", workload="swim"):
                pass
        begin, end = collector.events
        assert begin["ev"] == "begin" and end["ev"] == "end"
        assert begin["schema"] == obs_spans.SCHEMA
        assert begin["span"] == end["span"]
        assert begin["name"] == "work" and begin["workload"] == "swim"
        assert end["status"] == "ok"
        assert end["dur"] >= 0

    def test_nesting_sets_parent(self):
        collector = obs_spans.TraceCollector()
        with obs_spans.use_span_sink(collector.sink):
            with obs_spans.span("outer") as outer:
                with obs_spans.span("inner"):
                    pass
        inner_begin = [
            e for e in collector.events if e["ev"] == "begin" and e["name"] == "inner"
        ][0]
        assert inner_begin["parent"] == outer.span_id

    def test_error_status(self):
        collector = obs_spans.TraceCollector()
        with obs_spans.use_span_sink(collector.sink):
            with pytest.raises(RuntimeError):
                with obs_spans.span("doomed"):
                    raise RuntimeError("boom")
        end = collector.events[-1]
        assert end["ev"] == "end" and end["status"] == "error"

    def test_synthesize_abort(self):
        collector = obs_spans.TraceCollector()
        with obs_spans.use_span_sink(collector.sink):
            span = obs_spans.span("orphan")
            span.__enter__()  # deliberately never exited (simulated crash)
        begin = collector.events[0]
        aborted = obs_spans.synthesize_abort(begin)
        assert aborted["ev"] == "end"
        assert aborted["span"] == begin["span"]
        assert aborted["status"] == "aborted"
        assert aborted["synthesized"] is True
        assert aborted["dur"] >= 0

    def test_collector_close_aborted(self):
        collector = obs_spans.TraceCollector()
        with obs_spans.use_span_sink(collector.sink):
            obs_spans.span("lost").__enter__()
        assert len(collector.open_spans()) == 1
        assert collector.close_aborted() == 1
        assert collector.open_spans() == {}

    def test_emit_metrics(self):
        collector = obs_spans.TraceCollector()
        with obs_spans.use_span_sink(collector.sink):
            obs_spans.emit_metrics("run:test", {"hits": {"type": "counter", "value": 1}})
        (event,) = collector.events
        assert event["ev"] == "metrics"
        assert event["name"] == "run:test"
        assert event["metrics"]["hits"]["value"] == 1

    def test_write_load_roundtrip(self, tmp_path):
        collector = obs_spans.TraceCollector()
        with obs_spans.use_span_sink(collector.sink):
            with obs_spans.span("a"):
                with obs_spans.span("b"):
                    pass
        path = collector.write(tmp_path / "trace.jsonl")
        events = obs_trace.load_events(path)
        assert events == collector.sorted_events()


# ---------------------------------------------------------------------------
# Trace analysis
# ---------------------------------------------------------------------------


def _collect(body):
    collector = obs_spans.TraceCollector()
    with obs_spans.use_span_sink(collector.sink):
        body()
    return collector.sorted_events()


class TestTraceAnalysis:
    def test_validate_rejects_garbage(self):
        with pytest.raises(ValueError):
            obs_trace.validate_event([])
        with pytest.raises(ValueError):
            obs_trace.validate_event({"ev": "begin"})  # missing span/name/t

    def test_pair_spans(self):
        def body():
            with obs_spans.span("root"):
                with obs_spans.span("leaf"):
                    pass
            obs_spans.span("dangler").__enter__()

        events = _collect(body)
        closed, dangling = obs_trace.pair_spans(events)
        assert len(closed) == 2
        assert len(dangling) == 1
        assert dangling[0]["name"] == "dangler"

    def test_end_without_begin_raises(self):
        events = _collect(lambda: None)
        bogus = {
            "schema": obs_spans.SCHEMA,
            "ev": "end",
            "span": "99-1",
            "name": "ghost",
            "t": 0.0,
            "pid": 99,
            "dur": 1.0,
            "status": "ok",
        }
        with pytest.raises(ValueError):
            obs_trace.pair_spans(events + [bogus])

    def test_summarize_stage_breakdown(self):
        def body():
            with obs_spans.span("campaign"):
                for _ in range(3):
                    with obs_spans.span("simulate"):
                        pass

        summary = obs_trace.summarize(_collect(body))
        assert summary["spans"] == 4
        assert summary["dangling"] == 0
        # Only leaves are stages: the root must not appear.
        assert set(summary["stages"]) == {"simulate"}
        assert summary["stages"]["simulate"]["count"] == 3
        assert summary["wall"] >= summary["stages"]["simulate"]["total"]

    def test_render_summary_smoke(self):
        def body():
            with obs_spans.span("generate"):
                pass

        text = obs_trace.render_summary(obs_trace.summarize(_collect(body)))
        assert "generate" in text
        assert "wall" in text


# ---------------------------------------------------------------------------
# The differential guarantee (the headline satellite)
# ---------------------------------------------------------------------------


class TestDifferential:
    """Observability on vs off must be bit-identical per simulation."""

    @pytest.mark.parametrize("bench", DIFF_BENCHES)
    @pytest.mark.parametrize("label", DIFF_CONFIGS)
    def test_enabled_matches_disabled(self, bench, label):
        config = _config(label)
        baseline = simulate(bench, config, Scale.QUICK, use_cache=False)

        registry = obs_metrics.MetricsRegistry()
        collector = obs_spans.TraceCollector()
        with obs_metrics.use_registry(registry):
            with obs_spans.use_span_sink(collector.sink):
                observed = simulate(bench, config, Scale.QUICK, use_cache=False)

        assert observed == baseline
        assert observed.to_dict() == baseline.to_dict()
        # And the observation actually happened: counters recorded,
        # spans closed cleanly.
        assert len(registry) > 0
        assert collector.open_spans() == {}
        names = {e["name"] for e in collector.events if e["ev"] == "begin"}
        assert "simulate" in names

    def test_metrics_agree_with_hierarchy_stats(self):
        # warmup_fraction=0 so the probe's full-run counters and the
        # measured (post-warmup) stats describe the same interval.
        registry = obs_metrics.MetricsRegistry()
        with obs_metrics.use_registry(registry):
            result = simulate(
                "swim", SimulationConfig.for_prefetcher("tcp-8k"),
                Scale.QUICK, use_cache=False, warmup_fraction=0.0,
            )
        snap = registry.to_dict()
        mem = result.memory
        assert snap["l1.hits"]["value"] == mem.l1_hits
        assert snap["l1.misses"]["value"] == mem.l1_misses
        assert snap["l2.hits"]["value"] == mem.l2_demand_hits
        assert snap["l2.misses"]["value"] == mem.l2_demand_misses
        assert snap["prefetch.issued"]["value"] == mem.prefetches_issued


# ---------------------------------------------------------------------------
# Campaign integration
# ---------------------------------------------------------------------------


def _campaign(tmp_path, monkeypatch, obs="all", jobs=1, **kwargs):
    monkeypatch.setenv(obs_metrics.OBS_ENV, obs)
    clear_cache()
    store = store_mod.ResultStore(tmp_path / "store")
    with store_mod.use_store(store):
        report = prewarm(
            kwargs.pop("configs", [SimulationConfig.baseline()]),
            Scale.QUICK,
            kwargs.pop("benchmarks", ("swim",)),
            jobs=jobs,
            **kwargs,
        )
    return report


class TestCampaignTrace:
    def test_serial_campaign_coverage(self, tmp_path, monkeypatch):
        """The acceptance bound: stage totals track wall time closely
        for a serial campaign (no parallel overlap to inflate them)."""
        report = _campaign(
            tmp_path, monkeypatch, jobs=1,
            benchmarks=("swim", "mcf"),
        )
        assert report.ok
        assert report.trace_path is not None
        events = obs_trace.load_events(report.trace_path)
        summary = obs_trace.summarize(events)
        assert summary["dangling"] == 0
        assert summary["aborted"] == 0
        # Stage totals should account for all campaign wall time, to 5%.
        assert abs(summary["coverage"] - 1.0) <= 0.05
        assert {"generate", "simulate"} <= set(summary["stages"])

    def test_pool_campaign_merges_worker_spans(self, tmp_path, monkeypatch):
        report = _campaign(
            tmp_path, monkeypatch, jobs=2,
            configs=[SimulationConfig.baseline(),
                     SimulationConfig.for_prefetcher("tcp-8k")],
            benchmarks=("swim", "mcf"),
        )
        assert report.ok
        events = obs_trace.load_events(report.trace_path)
        summary = obs_trace.summarize(events)
        assert summary["dangling"] == 0
        # Parent + at least one worker pid in one merged trace.
        assert summary["pids"] >= 2
        # Worker spans were re-rooted under the campaign span: exactly
        # one root in the whole trace.
        closed, _ = obs_trace.pair_spans(events)
        roots = [s for s in closed if s["parent"] is None]
        assert len(roots) == 1
        assert roots[0]["name"] == "campaign"

    def test_campaign_metrics_snapshot(self, tmp_path, monkeypatch):
        report = _campaign(tmp_path, monkeypatch, jobs=2,
                           benchmarks=("swim", "mcf"))
        events = obs_trace.load_events(report.trace_path)
        snaps = [e for e in events if e["ev"] == "metrics" and e["name"] == "campaign"]
        assert len(snaps) == 1
        metrics = snaps[0]["metrics"]
        assert metrics["campaign.jobs"]["value"] == 2
        assert metrics["campaign.completed"]["value"] == 2
        assert metrics["campaign.job_wall_s"]["count"] == 2
        # Simulator metrics folded back from the workers.
        assert metrics["l1.hits"]["value"] > 0

    def test_crash_synthesizes_aborted_span(self, tmp_path, monkeypatch):
        """A worker crash mid-span must close the span as aborted, not
        leave it dangling (the bug this PR fixes)."""
        resilience.set_fault_injector(
            lambda key, attempt: "crash" if attempt == 1 else None
        )
        report = _campaign(tmp_path, monkeypatch, jobs=2, retries=2,
                           benchmarks=("swim", "mcf"))
        assert report.ok  # retried to success
        events = obs_trace.load_events(report.trace_path)
        summary = obs_trace.summarize(events)
        assert summary["dangling"] == 0
        aborted = [
            e for e in events
            if e["ev"] == "end" and e["status"] == "aborted"
        ]
        assert aborted and all(e.get("synthesized") for e in aborted)

    def test_disabled_campaign_writes_nothing(self, tmp_path, monkeypatch):
        report = _campaign(tmp_path, monkeypatch, obs="off")
        assert report.ok
        assert report.trace_path is None
        obs_dir = tmp_path / "store" / "obs"
        assert not obs_dir.exists() or not list(obs_dir.iterdir())


# ---------------------------------------------------------------------------
# Profiling hooks
# ---------------------------------------------------------------------------


class TestProfile:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv(obs_profile.PROFILE_ENV, raising=False)
        assert obs_profile.profile_mode() is None
        with obs_profile.maybe_profile("job") as path:
            assert path is None

    def test_unknown_mode_raises(self, monkeypatch):
        monkeypatch.setenv(obs_profile.PROFILE_ENV, "flamegraph")
        with pytest.raises(ValueError):
            obs_profile.profile_mode()

    def test_cprofile_writes_prof(self, tmp_path, monkeypatch):
        monkeypatch.setenv(obs_profile.PROFILE_ENV, "cprofile")
        with obs_profile.maybe_profile("swim_base", out_dir=tmp_path) as path:
            sum(range(1000))
        assert path is not None and path.suffix == ".prof"
        assert path.exists()
        import pstats

        stats = pstats.Stats(str(path))
        assert stats.total_calls >= 1

    def test_interval_writes_stacks(self, tmp_path, monkeypatch):
        monkeypatch.setenv(obs_profile.PROFILE_ENV, "interval")
        monkeypatch.setenv(obs_profile.PROFILE_INTERVAL_ENV, "1")
        with obs_profile.maybe_profile("swim_base", out_dir=tmp_path) as path:
            deadline = 0
            for _ in range(200_000):
                deadline += 1
        assert path is not None and path.suffix == ".stacks"
        assert path.exists()

    def test_dir_resolution_env_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv(obs_profile.PROFILE_DIR_ENV, str(tmp_path / "p"))
        assert obs_profile.profile_dir() == tmp_path / "p"

    def test_dir_resolution_store_relative(self, tmp_path, monkeypatch):
        monkeypatch.delenv(obs_profile.PROFILE_DIR_ENV, raising=False)
        store = store_mod.ResultStore(tmp_path / "s")
        with store_mod.use_store(store):
            assert obs_profile.profile_dir() == tmp_path / "s" / "profiles"

    def test_campaign_profiles_jobs(self, tmp_path, monkeypatch):
        monkeypatch.setenv(obs_profile.PROFILE_ENV, "cprofile")
        report = _campaign(tmp_path, monkeypatch, obs="off", jobs=2,
                           benchmarks=("swim", "mcf"))
        assert report.ok
        assert report.profile_dir is not None
        profs = list(os.scandir(report.profile_dir))
        assert len(profs) == 2
        assert all(entry.name.endswith(".prof") for entry in profs)
