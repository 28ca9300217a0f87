"""Differential and property tests for the multicore mix front end.

The multicore engine is new simulated behavior with no external
oracle, so its correctness case is differential: a 1-core mix must be
*bit-identical* to the single-core path for every registered
prefetcher (same scheduler, same hierarchy maths, zero relocation on
core 0), determinism and core-permutation equivariance must hold
exactly, and randomized small mixes must satisfy the per-core
conservation laws and shared-L2 occupancy invariants under the full
sanitizer tier.  The store/campaign integration test proves mix cells
checkpoint and resume across a kill -9 with nothing lost or
duplicated.
"""

import os
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.multicore import (
    MIXES,
    MixResult,
    MixSpec,
    canonical_mix_name,
    mix_config,
    resolve_mix,
)
from repro.sim import SimulationConfig, prewarm, simulate
from repro.sim import store as store_mod
from repro.sim.config import PREFETCHERS
from repro.sim.results import SimResult
from repro.sim.runner import clear_cache
from repro.sim.sanitizer import schedule_state_corruption
from repro.sim.store import ResultStore, config_fingerprint
from repro.workloads import BENCHMARK_ORDER, Scale, Trace, generate

#: small raw scales keep the 26-cell differential sweep fast; bit
#: identity does not need long traces.
SMALL = 6000
TINY = 3000


@pytest.fixture(autouse=True)
def _clean_state():
    clear_cache()
    yield
    clear_cache()
    store_mod.clear_active_store()


class TestDifferentialOracle:
    @pytest.mark.parametrize("prefetcher", sorted(PREFETCHERS))
    def test_one_core_mix_bit_identical_to_single_core(self, prefetcher):
        """ISSUE 10 acceptance: N=1 removes every multicore ingredient
        (no relocation on core 0, one-runner scheduler, sole owner of
        the shared L2), so the mix path must reproduce the single-core
        result exactly — cycles and the full stats dict."""
        solo = simulate(
            "swim", SimulationConfig.for_prefetcher(prefetcher), SMALL,
            use_cache=False,
        )
        mix = simulate(
            "swim", mix_config(("swim",), prefetcher=prefetcher), SMALL,
            use_cache=False,
        )
        assert isinstance(mix, MixResult)
        assert mix.backend_fallback == "multicore"
        core = mix.per_core[0]
        solo_dict = solo.to_dict()
        core_dict = core.to_dict()
        assert core_dict["core"] == solo_dict["core"]  # cycles included
        assert core_dict["memory"] == solo_dict["memory"]
        assert core.prefetcher_name == solo.prefetcher_name
        assert core.prefetcher_storage_bytes == solo.prefetcher_storage_bytes
        assert core.prefetcher_predictions == solo.prefetcher_predictions
        assert core.ipc == solo.ipc

    def test_identical_cores_have_identical_stats_without_prefetch(self):
        """Two copies of the same benchmark on a no-prefetch machine
        see the same demand stream and a capacity-symmetric L2, so the
        full per-core stats dicts must be identical (cycles may skew
        marginally from bus serialization order)."""
        result = simulate(
            "swim+swim", mix_config(("swim", "swim")), SMALL, use_cache=False
        )
        first, second = (core.to_dict() for core in result.per_core)
        assert first["memory"] == second["memory"]
        assert first["core"]["instructions"] == second["core"]["instructions"]
        assert first["core"]["accesses"] == second["core"]["accesses"]
        c0, c1 = (core.core.cycles for core in result.per_core)
        assert c1 == pytest.approx(c0, rel=5e-3)

    def test_identical_cores_are_demand_symmetric_with_prefetch(self):
        """With a prefetcher the cores' *demand-side* stats stay
        identical (private L1s, same stream); timing-coupled prefetch
        counters may differ because bus serialization shifts which
        core's prefetches land first, but each core's request-side
        prefetch taxonomy must still partition exactly."""
        result = simulate(
            "swim+swim",
            mix_config(("swim", "swim"), prefetcher="tcp-8k"),
            SMALL,
            use_cache=False,
        )
        first, second = (core.memory for core in result.per_core)
        for field in (
            "demand_accesses", "loads", "stores", "l1_hits", "l1_misses",
            "ifetch_accesses", "ifetch_misses",
        ):
            assert getattr(first, field) == getattr(second, field), field
        for stats in (first, second):
            assert stats.prefetches_requested == (
                stats.prefetches_issued
                + stats.prefetch_redundant
                + stats.prefetch_dropped_queue
                + stats.prefetch_dropped_busy
            )
        c0, c1 = (core.core.cycles for core in result.per_core)
        assert c1 == pytest.approx(c0, rel=1e-2)


class TestDeterminismAndPermutation:
    def test_same_mix_twice_is_identical(self):
        config = mix_config(("gzip", "swim"), prefetcher="tcp-8k")
        first = simulate("gzip+swim", config, SMALL, use_cache=False)
        second = simulate("gzip+swim", config, SMALL, use_cache=False)
        assert first.to_dict() == second.to_dict()

    def test_core_permutation_permutes_per_core_stats(self):
        """Swapping which core a benchmark runs on must swap its stats
        verbatim (tie-breaks depend on the stream, not the slot), so
        there is no hidden order dependence in the scheduler."""
        forward = simulate(
            "gzip+swim", mix_config(("gzip", "swim")), SMALL, use_cache=False
        )
        backward = simulate(
            "swim+gzip", mix_config(("swim", "gzip")), SMALL, use_cache=False
        )
        by_bench_fwd = {c.workload: c.to_dict() for c in forward.per_core}
        by_bench_bwd = {c.workload: c.to_dict() for c in backward.per_core}
        for name in ("gzip", "swim"):
            fwd, bwd = by_bench_fwd[name], by_bench_bwd[name]
            fwd.pop("core_id"), bwd.pop("core_id")
            assert fwd == bwd

    def test_shared_pht_mode_runs_and_is_a_distinct_cell(self):
        config = mix_config(("gzip", "swim"), prefetcher="tcp-8k",
                            shared_pht=True)
        result = simulate("gzip+swim", config, SMALL, use_cache=False)
        result.validate()
        assert result.shared_pht
        private = mix_config(("gzip", "swim"), prefetcher="tcp-8k")
        assert config_fingerprint(config) != config_fingerprint(private)


class TestMixProbes:
    def test_injected_corruption_lands_on_core_0(self):
        """Heartbeat and fault-injection hooks ride core 0's marks, so a
        scheduled stats drift must hit core 0's counters and leave
        core 1's untouched."""
        config = mix_config(("gzip", "swim"), sanitize="off")
        clean = simulate("gzip+swim", config, TINY, use_cache=False)
        schedule_state_corruption("stats-drift")
        drifted = simulate("gzip+swim", config, TINY, use_cache=False)
        hits = [
            (d.memory.l1_hits - c.memory.l1_hits)
            for c, d in zip(clean.per_core, drifted.per_core)
        ]
        assert hits == [1, 0]


class TestMixProperties:
    @given(
        benchmarks=st.lists(
            st.sampled_from(["swim", "gzip", "mcf", "gcc"]),
            min_size=1, max_size=3,
        ),
        prefetcher=st.sampled_from(["none", "stride", "tcp-8k"]),
    )
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_random_small_mixes_conserve_under_full_sanitize(
        self, benchmarks, prefetcher
    ):
        """Fuzzed mixes under the full sanitizer tier (the config-level
        equivalent of REPRO_SANITIZE=full): the run itself asserts the
        shared-L2 occupancy/ownership invariants at every mark, and the
        result must satisfy the per-core conservation laws."""
        config = mix_config(
            tuple(benchmarks), prefetcher=prefetcher, sanitize="full"
        )
        result = simulate(
            canonical_mix_name(benchmarks), config, TINY, use_cache=False
        )
        result.validate()
        share_total = 0.0
        for core in result.per_core:
            stats = core.memory
            assert stats.demand_accesses == stats.l1_hits + stats.l1_misses
            assert stats.l2_demand_accesses == stats.l1_misses
            assert stats.l2_demand_accesses == (
                stats.l2_demand_hits + stats.l2_demand_misses
            )
            # The request-side taxonomy is counted atomically, so it
            # partitions exactly even across the warmup snapshot (the
            # issue-side one does not: a warmup-issued prefetch can
            # become useful inside the measured window).
            assert stats.prefetches_requested == (
                stats.prefetches_issued
                + stats.prefetch_redundant
                + stats.prefetch_dropped_queue
                + stats.prefetch_dropped_busy
            )
            assert 0.0 <= core.attribution.l2_occupancy_share <= 1.0
            assert core.attribution.bus_stall_cycles >= 0.0
            share_total += core.attribution.l2_occupancy_share
        assert share_total <= 1.0 + 1e-9


class TestMixSpecsAndFingerprints:
    def test_named_mixes_cover_the_suite_in_mpki_order(self):
        assert sorted(MIXES) == [f"mix{i}" for i in range(1, 8)]
        covered = set()
        for spec in MIXES.values():
            assert spec.cores == 4
            covered.update(spec.benchmarks)
        assert covered == set(BENCHMARK_ORDER)
        assert MIXES["mix1"].benchmarks == tuple(BENCHMARK_ORDER[:4])
        assert MIXES["mix7"].benchmarks == tuple(BENCHMARK_ORDER[-4:])

    def test_resolve_mix_forms(self):
        assert resolve_mix("mix2") is MIXES["mix2"]
        assert resolve_mix("swim+mcf").benchmarks == ("swim", "mcf")
        assert resolve_mix("swim, mcf").benchmarks == ("swim", "mcf")
        assert resolve_mix(["swim"]).benchmarks == ("swim",)
        spec = MixSpec("custom", ("gzip", "swim"))
        assert resolve_mix(spec) is spec
        with pytest.raises(KeyError):
            resolve_mix("mix9")
        with pytest.raises(KeyError):
            MixSpec("bad", ("swim", "nosuch"))

    def test_single_core_fingerprints_are_unchanged(self):
        """The mix dimension must not shift any pre-existing cell key:
        the store would otherwise silently orphan every checkpoint."""
        assert (
            config_fingerprint(SimulationConfig.baseline())
            == "f1c38689d0e5ec14"
        )

    def test_mix_fingerprints_are_stable_and_distinct(self):
        mix = mix_config("mix2", prefetcher="tcp-8k")
        solo = SimulationConfig.for_prefetcher("tcp-8k")
        assert config_fingerprint(mix) == "0ac5436cdeac0f89"
        assert config_fingerprint(mix) != config_fingerprint(solo)
        orders = {
            config_fingerprint(mix_config(("gzip", "swim"))),
            config_fingerprint(mix_config(("swim", "gzip"))),
        }
        assert len(orders) == 2  # core slots are part of the experiment

    def test_mix_workload_name_must_match_the_config(self):
        config = mix_config(("gzip", "swim"))
        with pytest.raises(ValueError, match="does not match"):
            simulate("swim+gzip", config, SMALL, use_cache=False)
        with pytest.raises(ValueError, match="canonical mix name"):
            simulate(generate("swim", TINY), config, use_cache=False)

    def test_mix_result_round_trips_through_the_generic_decoder(self):
        result = simulate(
            "gzip+swim", mix_config(("gzip", "swim")), SMALL, use_cache=False
        )
        decoded = SimResult.from_dict(result.to_dict())
        assert isinstance(decoded, MixResult)
        assert decoded.to_dict() == result.to_dict()
        assert decoded.backend_fallback == "multicore"


_CAMPAIGN_SCRIPT = """\
import sys
from repro.multicore import mix_config
from repro.sim import prewarm
from repro.sim import store as store_mod
from repro.sim.store import ResultStore

store_dir, accesses = sys.argv[1], int(sys.argv[2])
configs = [
    mix_config(("gzip", "swim"), prefetcher=p)
    for p in ("none", "nextline", "stride", "tcp-8k")
]

def progress(done, total, key, status):
    print(f"[{done}/{total}] {key}: {status}", flush=True)

with store_mod.use_store(ResultStore(store_dir)):
    # Fleet mode: each agent checkpoints every finished cell to its own
    # store shard *before* reporting ok, so a kill -9 of the whole
    # process group leaves the finished work durable on disk.
    report = prewarm(
        configs, scale=accesses, jobs=1, hosts="local:2", progress=progress
    )
print("campaign-finished", flush=True)
"""


class TestMixCampaignResume:
    def test_kill_9_mid_campaign_loses_and_duplicates_nothing(self, tmp_path):
        """ISSUE 10 satellite: a mix campaign killed with SIGKILL
        mid-flight resumes from its checkpoints — every cell finished
        before the kill is skipped on resume, the rest re-run, and the
        final store holds exactly one live record per mix cell."""
        store_dir = tmp_path / "store"
        configs = [
            mix_config(("gzip", "swim"), prefetcher=p)
            for p in ("none", "nextline", "stride", "tcp-8k")
        ]
        env = dict(
            os.environ,
            PYTHONPATH=os.path.join(
                os.path.dirname(__file__), os.pardir, "src"
            ),
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", _CAMPAIGN_SCRIPT, str(store_dir),
             str(Scale.QUICK.accesses)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env, start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                line = proc.stdout.readline()
                if not line:
                    raise AssertionError(
                        "campaign exited before it could be killed"
                    )
                if ": ok" in line:
                    break
            else:
                raise AssertionError("campaign made no progress in time")
            os.killpg(proc.pid, signal.SIGKILL)
            proc.stdout.read()
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()

        # Fold the orphaned host shards (the coordinator died before
        # merging) and count the unique cells that survived the kill.
        crashed = ResultStore(store_dir)
        store_mod.merge_shards(crashed)
        checkpointed = crashed.verify()["live"]
        assert checkpointed >= 1

        clear_cache()
        with store_mod.use_store(ResultStore(store_dir)):
            report = prewarm(configs, scale=Scale.QUICK, jobs=1)
        assert report.ok
        assert report.skipped == checkpointed  # nothing finished was lost
        assert report.executed == len(configs) - checkpointed

        store = ResultStore(store_dir)
        verdict = store.verify()
        assert not verdict["bad"]
        assert verdict["live"] == len(configs)  # no duplicated cells
        for config in configs:
            result = store.get("gzip+swim", Scale.QUICK.accesses, config)
            assert isinstance(result, MixResult)
            assert result.backend_fallback == "multicore"
            result.validate()
