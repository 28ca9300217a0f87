"""Tests for the multi-host campaign fabric.

These prove the fleet acceptance paths: the host-spec grammar; the
JSONL wire codec round-trips configurations to the same store
fingerprint; a LocalTransport agent speaks the protocol end to end;
and fleet campaigns survive lost, partitioned, and slow hosts with
zero lost results — the merged store is cell-for-cell identical to a
single-host run of the same sweep.
"""

import json
import os

import pytest

from repro.sim import SimulationConfig, prewarm
from repro.sim import store as store_mod
from repro.sim.config import PREFETCHERS
from repro.sim.fabric import (
    HostSpec,
    LocalTransport,
    SSHTransport,
    config_from_wire,
    config_to_wire,
    fleet_status,
    job_from_wire,
    job_to_wire,
    parse_hosts,
    run_fleet,
)
from repro.sim.parallel import _job_key
from repro.sim.resilience import (
    HOST_FAULT_KINDS,
    RetryPolicy,
    maybe_inject_fault,
    maybe_inject_host_fault,
    set_fault_injector,
    set_host_fault_injector,
)
from repro.sim.results import SimResult
from repro.sim.runner import clear_cache, simulate
from repro.sim.store import ResultStore, config_fingerprint, list_shards, merge_shards
from repro.workloads import Scale

BASE = SimulationConfig.baseline()
TCP = SimulationConfig.for_prefetcher("tcp-8k")
QUICK = Scale.QUICK.accesses


@pytest.fixture(autouse=True)
def _clean_state():
    clear_cache()
    yield
    clear_cache()
    set_fault_injector(None)
    set_host_fault_injector(None)
    store_mod.clear_active_store()


def _solo_results(store_dir, configs, benchmarks):
    """Single-host reference run of the sweep (fresh caches)."""
    clear_cache()
    with store_mod.use_store(ResultStore(store_dir)):
        report = prewarm(configs, scale=QUICK, benchmarks=benchmarks, jobs=1)
    assert report.ok
    clear_cache()
    return dict(report.completed)


class TestParseHosts:
    def test_local_single(self):
        assert parse_hosts("local") == [HostSpec("local", "", "local")]

    def test_local_count_gets_numbered_ids(self):
        assert [h.id for h in parse_hosts("local:3")] == [
            "local-1",
            "local-2",
            "local-3",
        ]

    def test_ssh_explicit_and_bare(self):
        explicit = parse_hosts("ssh:node-a:2")
        assert [(h.kind, h.address, h.id) for h in explicit] == [
            ("ssh", "node-a", "node-a-1"),
            ("ssh", "node-a", "node-a-2"),
        ]
        assert parse_hosts("node-b") == [HostSpec("ssh", "node-b", "node-b")]

    def test_mixed_separators(self):
        ids = [h.id for h in parse_hosts("local:2, node-a node-b")]
        assert ids == ["local-1", "local-2", "node-a", "node-b"]

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_HOSTS", "local:2")
        assert len(parse_hosts(None)) == 2
        monkeypatch.delenv("REPRO_HOSTS")
        assert parse_hosts(None) == []

    @pytest.mark.parametrize(
        "bad", ["local:0", "ssh:", "node:x", "a:1:2", "local,local"]
    )
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_hosts(bad)

    def test_transport_commands_target_the_agent_module(self):
        host = parse_hosts("local")[0]
        cmd = LocalTransport().command(host, "/tmp/store")
        assert "repro.sim.fabric" in cmd and "--agent" in cmd
        ssh = SSHTransport(python="python3").command(
            HostSpec("ssh", "node-a", "node-a"), None
        )
        assert ssh[:3] == ["ssh", "-o", "BatchMode=yes"]
        assert "node-a" in ssh and "repro.sim.fabric" in ssh


class TestWireCodec:
    def test_config_round_trip_preserves_fingerprint(self):
        for name in PREFETCHERS:
            config = SimulationConfig.for_prefetcher(name)
            wired = json.loads(json.dumps(config_to_wire(config)))
            rebuilt = config_from_wire(wired)
            assert rebuilt == config
            assert config_fingerprint(rebuilt) == config_fingerprint(config)

    def test_non_default_fields_cross_the_wire(self):
        config = SimulationConfig.ideal_l2().with_hierarchy(mshr_entries=4)
        rebuilt = config_from_wire(config_to_wire(config))
        assert rebuilt.hierarchy.ideal_l2 is True
        assert rebuilt.hierarchy.mshr_entries == 4
        assert rebuilt.label == "ideal-l2"

    def test_job_round_trip(self):
        job = ("swim", TCP, 12345)
        assert job_from_wire(json.loads(json.dumps(job_to_wire(job)))) == job


class TestHostFaultInjection:
    def test_host_kinds_never_reach_job_injection(self, monkeypatch):
        # REPRO_FAULT_KIND=host-lost must not crash ordinary workers:
        # the fleet's local fallback depends on this.
        for kind in HOST_FAULT_KINDS:
            monkeypatch.setenv("REPRO_FAULT_KIND", kind)
            monkeypatch.setenv("REPRO_FAULT_RATE", "1.0")
            assert maybe_inject_fault("swim/base@1", 1) is None
            assert maybe_inject_host_fault("local-1", 1) == kind

    def test_deterministic_per_host_dispatch(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_KIND", "host-lost")
        monkeypatch.setenv("REPRO_FAULT_RATE", "0.5")
        first = [maybe_inject_host_fault("a", d) for d in range(1, 20)]
        again = [maybe_inject_host_fault("a", d) for d in range(1, 20)]
        other = [maybe_inject_host_fault("b", d) for d in range(1, 20)]
        assert first == again
        assert first != other  # keyed by host, not just dispatch

    def test_injector_hook_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_KIND", "host-lost")
        monkeypatch.setenv("REPRO_FAULT_RATE", "1.0")
        set_host_fault_injector(lambda host, dispatch: None)
        assert maybe_inject_host_fault("a", 1) is None


class TestAgentProtocol:
    def test_agent_runs_a_job_and_shards_the_result(self, tmp_path):
        host = parse_hosts("local")[0]
        proc = LocalTransport().launch(host, str(tmp_path))
        try:
            ready = json.loads(proc.stdout.readline())
            assert ready[0] == "ready" and ready[1]["host"] == "local"
            job = ("swim", BASE, QUICK)
            proc.stdin.write(
                json.dumps(["job", _job_key(job), job_to_wire(job), 1]) + "\n"
            )
            proc.stdin.flush()
            saw_heartbeat = False
            while True:
                message = json.loads(proc.stdout.readline())
                if message[0] == "hb":
                    saw_heartbeat = True
                    continue
                break
            assert message[0] == "ok" and message[1] == _job_key(job)
            assert saw_heartbeat
            result = SimResult.from_dict(message[2])
            assert result == simulate("swim", BASE, QUICK, use_cache=False)
            # The shard holds the result too: coordinator-crash safety.
            shard = ResultStore(tmp_path, results_name="shard-local.jsonl")
            assert shard.get("swim", QUICK, BASE) == result
            proc.stdin.write(json.dumps(["stop"]) + "\n")
            proc.stdin.flush()
            assert proc.wait(timeout=10) == 0
        finally:
            proc.kill()
            proc.wait()

    def test_agent_reports_bad_payload_as_err(self, tmp_path):
        proc = LocalTransport().launch(parse_hosts("local")[0], None)
        try:
            json.loads(proc.stdout.readline())  # ready
            proc.stdin.write(json.dumps(["job", "k", {"nope": 1}, 1]) + "\n")
            proc.stdin.flush()
            message = json.loads(proc.stdout.readline())
            assert message[0] == "err" and message[1] == "k"
            proc.stdin.close()
            assert proc.wait(timeout=10) == 0
        finally:
            proc.kill()
            proc.wait()


class TestFleetCampaigns:
    CONFIGS = [BASE, TCP]
    BENCH = ["swim", "mcf"]

    def test_two_host_campaign_matches_single_host(self, tmp_path):
        solo = _solo_results(tmp_path / "solo", self.CONFIGS, self.BENCH)
        store = ResultStore(tmp_path / "fleet")
        with store_mod.use_store(store):
            report = prewarm(
                self.CONFIGS, scale=QUICK, benchmarks=self.BENCH,
                jobs=1, hosts="local:2",
            )
        assert report.ok and report.executed == len(solo)
        assert sum(report.per_host.values()) == len(solo)
        for key, result in report.completed.items():
            assert result == solo[key]
        verdict = store.verify()
        assert verdict["live"] == len(solo) and not verdict["bad"]
        assert list_shards(store) == []  # shards merged and removed

    def test_acceptance_host_lost_loses_nothing(self, tmp_path, monkeypatch):
        """ISSUE 7 acceptance: 2 hosts + REPRO_FAULT_KIND=host-lost →
        campaign completes, merged store cell-for-cell identical to a
        single-host run, store verify clean."""
        solo = _solo_results(tmp_path / "solo", self.CONFIGS, self.BENCH)
        monkeypatch.setenv("REPRO_FAULT_KIND", "host-lost")
        monkeypatch.setenv("REPRO_FAULT_RATE", "0.4")
        store = ResultStore(tmp_path / "fleet")
        with store_mod.use_store(store):
            report = prewarm(
                self.CONFIGS, scale=QUICK, benchmarks=self.BENCH,
                jobs=1, hosts="local:2",
            )
        assert report.ok and report.executed == len(solo)
        assert report.hosts_lost >= 1
        for key, result in report.completed.items():
            assert result == solo[key]
        verdict = store.verify()
        assert verdict["live"] == len(solo) and not verdict["bad"]

    def test_survivor_absorbs_a_lost_hosts_work(self, tmp_path):
        solo = _solo_results(tmp_path / "solo", self.CONFIGS, self.BENCH)
        set_host_fault_injector(
            lambda host, dispatch: "host-lost"
            if host == "local-1" and dispatch == 2
            else None
        )
        store = ResultStore(tmp_path / "fleet")
        with store_mod.use_store(store):
            report = prewarm(
                self.CONFIGS, scale=QUICK, benchmarks=self.BENCH,
                jobs=1, hosts="local:2",
            )
        assert report.ok and report.executed == len(solo)
        assert report.hosts_lost == 1
        assert report.fleet_degraded is None  # the fleet itself finished
        assert report.reassigned >= 1
        assert report.per_host.get("local-2", 0) >= 2
        for key, result in report.completed.items():
            assert result == solo[key]

    def test_all_hosts_lost_degrades_but_completes(self, tmp_path, monkeypatch):
        solo = _solo_results(tmp_path / "solo", self.CONFIGS, self.BENCH)
        monkeypatch.setenv("REPRO_FAULT_KIND", "host-lost")
        monkeypatch.setenv("REPRO_FAULT_RATE", "1.0")
        store = ResultStore(tmp_path / "fleet")
        with store_mod.use_store(store):
            report = prewarm(
                self.CONFIGS, scale=QUICK, benchmarks=self.BENCH,
                jobs=1, hosts="local:2",
            )
        assert report.ok and report.executed == len(solo)
        assert report.hosts_lost == 2
        assert report.fleet_degraded is not None  # the nonzero-exit signal
        for key, result in report.completed.items():
            assert result == solo[key]

    def test_partitioned_host_is_reclaimed(self, tmp_path):
        set_host_fault_injector(
            lambda host, dispatch: "host-partition"
            if host == "local-1" and dispatch == 1
            else None
        )
        store = ResultStore(tmp_path / "fleet")
        with store_mod.use_store(store):
            report = prewarm(
                [BASE], scale=QUICK, benchmarks=self.BENCH,
                jobs=1, hosts="local:2", stall_timeout=2.0,
            )
        assert report.ok and report.executed == 2
        assert report.hosts_lost == 1  # the muted host stalled out

    def test_slow_host_survives(self, tmp_path):
        set_host_fault_injector(
            lambda host, dispatch: "host-slow" if dispatch == 1 else None
        )
        store = ResultStore(tmp_path / "fleet")
        with store_mod.use_store(store):
            report = prewarm(
                [BASE], scale=QUICK, benchmarks=self.BENCH,
                jobs=1, hosts="local:2", stall_timeout=10.0,
            )
        assert report.ok and report.executed == 2
        assert report.hosts_lost == 0  # slow is not dead

    def test_fig13_sweep_cell_runs_on_a_fleet(self, tmp_path):
        """A Figure 13 design point resolves by name on a fleet agent."""
        config = SimulationConfig(prefetcher="tcp-sweep-32k-n0")
        expected = simulate("swim", config, QUICK, use_cache=False)
        with store_mod.use_store(ResultStore(tmp_path)):
            report = prewarm(
                [config], scale=QUICK, benchmarks=["swim"], jobs=1, hosts="local:1",
            )
        assert report.ok and report.fleet_degraded is None
        assert sum(report.per_host.values()) == 1
        assert list(report.completed.values()) == [expected]

    def test_run_fleet_without_fallback_fails_leftovers(self):
        report = run_fleet(
            [("swim", BASE, QUICK)],
            hosts=[],  # nothing launches
            key=_job_key,
            policy=RetryPolicy(retries=0),
        )
        assert report.failed == 1
        assert report.fleet_degraded is not None


class TestShardMerging:
    def _result(self, name="swim"):
        return simulate(name, BASE, QUICK, use_cache=False)

    def test_merge_shards_dedupes_and_removes(self, tmp_path):
        result = self._result()
        store = ResultStore(tmp_path)
        store.put("swim", QUICK, BASE, result)
        for host in ("a", "b"):
            shard = ResultStore(tmp_path, results_name=f"shard-{host}.jsonl")
            shard.put("swim", QUICK, BASE, result)  # duplicate of main
            shard.put("mcf", QUICK, BASE, self._result("mcf"))
        merged, adopted = merge_shards(store)
        assert merged == 2
        assert adopted == 1  # mcf once; swim and the second mcf deduped
        assert list_shards(store) == []
        assert len(store) == 2
        verdict = store.verify()
        assert verdict["live"] == 2 and not verdict["bad"]

    def test_merge_is_idempotent(self, tmp_path):
        store = ResultStore(tmp_path)
        shard = ResultStore(tmp_path, results_name="shard-a.jsonl")
        shard.put("swim", QUICK, BASE, self._result())
        assert merge_shards(store) == (1, 1)
        assert merge_shards(store) == (0, 0)  # nothing left to do

    def test_prewarm_resumes_from_orphan_shards(self, tmp_path):
        # A fleet coordinator died after its hosts finished some jobs:
        # the shards alone must make those jobs resume as skipped.
        result = self._result()
        shard = ResultStore(tmp_path, results_name="shard-node-a.jsonl")
        shard.put("swim", QUICK, BASE, result)
        clear_cache()
        store = ResultStore(tmp_path)
        with store_mod.use_store(store):
            report = prewarm([BASE], scale=QUICK, benchmarks=["swim"], jobs=1)
        assert report.skipped == 1 and report.executed == 0
        assert store.get("swim", QUICK, BASE) == result

    def test_fleet_status_lists_shards(self, tmp_path):
        shard = ResultStore(tmp_path, results_name="shard-node-a.jsonl")
        shard.put("swim", QUICK, BASE, self._result())
        status = fleet_status(tmp_path)
        assert status["main_live"] == 0
        assert [s["host"] for s in status["shards"]] == ["node-a"]
        assert status["shards"][0]["live"] == 1


class TestFallbackProvenance:
    """ISSUE 10 satellite: ``backend_fallback`` provenance must survive
    every fleet path a result can take — the agent's ``ok`` frame, the
    host store shard, the shard merge into the main log, and
    ``merge_from``'s re-frame fallback (which used to emit records
    without a ``config_label``)."""

    def test_fallback_crosses_the_agent_ok_frame_and_shard(self, tmp_path):
        from repro.multicore import mix_config

        config = mix_config(("swim",), prefetcher="none")
        host = parse_hosts("local")[0]
        proc = LocalTransport().launch(host, str(tmp_path))
        try:
            json.loads(proc.stdout.readline())  # ready
            job = ("swim", config, QUICK)
            proc.stdin.write(
                json.dumps(["job", _job_key(job), job_to_wire(job), 1]) + "\n"
            )
            proc.stdin.flush()
            while True:
                message = json.loads(proc.stdout.readline())
                if message[0] != "hb":
                    break
            assert message[0] == "ok"
            result = SimResult.from_dict(message[2])
            assert result.backend_fallback == "multicore"
            shard = ResultStore(tmp_path, results_name="shard-local.jsonl")
            stored = shard.get("swim", QUICK, config)
            assert stored is not None
            assert stored.backend_fallback == "multicore"
            proc.stdin.write(json.dumps(["stop"]) + "\n")
            proc.stdin.flush()
            assert proc.wait(timeout=10) == 0
        finally:
            proc.kill()
            proc.wait()

    def test_fleet_mix_campaign_preserves_fallback(self, tmp_path):
        from repro.multicore import mix_config

        config = mix_config(("gzip", "swim"), prefetcher="none")
        store = ResultStore(tmp_path)
        with store_mod.use_store(store):
            report = prewarm([config], scale=QUICK, jobs=1, hosts="local:2")
        assert report.ok
        for result in report.completed.values():
            assert result.backend_fallback == "multicore"
        reloaded = ResultStore(tmp_path)  # fresh scan of the merged log
        stored = reloaded.get("gzip+swim", QUICK, config)
        assert stored.backend_fallback == "multicore"

    def test_merge_from_reframe_keeps_fallback_and_config_label(
        self, tmp_path
    ):
        from repro.multicore import mix_config

        config = mix_config(("swim",), prefetcher="none")
        result = simulate("swim", config, QUICK, use_cache=False)
        assert result.backend_fallback == "multicore"
        shard = ResultStore(tmp_path / "shard")
        shard.put("swim", QUICK, config, result)
        # Drop the shard's cached frames so merge_from must re-frame
        # each record from the decoded result (the path that used to
        # lose the record-level config_label).
        shard._latest.clear()
        main = ResultStore(tmp_path / "main")
        assert main.merge_from(shard) == 1
        records = [
            json.loads(line)
            for line in main.path.read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
        assert records[-1]["config_label"] == config.resolved_label()
        reloaded = ResultStore(tmp_path / "main")
        stored = reloaded.get("swim", QUICK, config)
        assert stored.backend_fallback == "multicore"
        assert stored.config_label == config.resolved_label()
        assert not reloaded.verify()["bad"]
