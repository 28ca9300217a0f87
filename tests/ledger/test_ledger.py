"""Self-tests of the performance ledger (``python -m ledger``).

The end-to-end checks drive ``--smoke`` runs (tiny grids, one pass), so
the whole module takes a few seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

from ledger import ROOT, golden
from ledger.cli import child_env
from ledger.stats import tail_percentile
from ledger.workloads import WORKLOADS, accesses_for, cell_key

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _ledger(*args: str, env_extra=None, cwd=ROOT) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-m", "ledger", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


#: ambient settings a caller might have exported; none may reach a
#: workload process.
AMBIENT = {"REPRO_BACKEND": "python", "REPRO_OBS": "all", "REPRO_SANITIZE": "full"}


@pytest.fixture(scope="module")
def smoke_runs():
    """One untraced and one traced smoke run under a polluted environment."""
    return {
        trace: _ledger("--workload", "cells", "--smoke", "--trace", trace, env_extra=AMBIENT)
        for trace in ("0", "1")
    }


@pytest.mark.parametrize("trace,tier", [("0", "end_to_end"), ("1", "per_layer")])
def test_emits_exactly_the_declared_metrics(smoke_runs, trace, tier):
    proc = smoke_runs[trace]
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {entry["name"]: entry["unit"] for entry in BENCHMARK[tier]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_ambient_settings_do_not_reach_workload_processes(smoke_runs):
    for proc in smoke_runs.values():
        env_line = next(l for l in proc.stderr.splitlines() if "REPRO_* environment" in l)
        assert "REPRO_BACKEND=native" in env_line
        assert "REPRO_OBS=all" not in env_line and "REPRO_SANITIZE" not in env_line
        assert "golden digests for seed 0" in proc.stderr


def test_child_env_drops_every_ambient_repro_variable(monkeypatch, tmp_path):
    for key, value in dict(AMBIENT, REPRO_FAULT_RATE="1.0", REPRO_HOSTS="local:4").items():
        monkeypatch.setenv(key, value)
    native = child_env(WORKLOADS["cells"], tmp_path)
    assert {k for k in native if k.startswith("REPRO_")} == {"REPRO_BACKEND", "REPRO_STORE_DIR"}
    assert native["REPRO_BACKEND"] == "native"
    default = child_env(WORKLOADS["campaign-tiny"], tmp_path)
    assert "REPRO_BACKEND" not in default


def test_tampered_result_counts_as_wrong():
    from repro.sim.config import SimulationConfig
    from repro.sim.runner import simulate

    config = SimulationConfig.for_prefetcher("tcp-8k")
    result = simulate("swim", config, 1_000, use_cache=False)
    key = cell_key("swim", config, 1_000)
    expected = {key: golden.digest(result)}
    result.backend_fallback = "provenance never changes a digest"
    assert golden.mismatches({key: golden.digest(result)}, expected) == []
    tampered = replace(result, memory=replace(result.memory, l1_misses=result.memory.l1_misses + 1))
    assert golden.mismatches({key: golden.digest(tampered)}, expected) == [key]


def test_percentile_steps_down_and_reports_n():
    assert tail_percentile([float(i) for i in range(200)])["tail_pct"] == 90
    stepped = tail_percentile([float(i) for i in range(50)])
    assert stepped["tail_pct"] == 75 and stepped["n"] == 50
    sparse = tail_percentile([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0])
    assert sparse["tail_pct"] is None and sparse["tail"] == sparse["p50"] == 6.0
    assert sparse["n"] == 11


def test_held_out_seed_changes_access_counts_and_digests():
    from repro.sim.config import SimulationConfig
    from repro.sim.runner import simulate
    from repro.workloads import generate

    for workload in WORKLOADS.values():
        assert workload.accesses(1, False) != workload.accesses(0, False)
        assert workload.base < workload.accesses(12345, False) <= workload.base * 1.08
    seed0, seed1 = accesses_for(2_000, 0), accesses_for(2_000, 1)
    assert len(generate("gcc", seed0)) != len(generate("gcc", seed1))
    config = SimulationConfig.baseline()
    digests = [golden.digest(simulate("gcc", config, n, use_cache=False)) for n in (seed0, seed1)]
    assert digests[0] != digests[1]
    for section in golden.load().values():
        assert set(section["0"].values()).isdisjoint(section["1"].values())


def test_injected_crashes_fail_every_cell_and_the_run():
    proc = _ledger("--workload", "campaign-tiny", "--smoke", "--fault", "crash")
    assert proc.returncode != 0
    result = _result(proc)
    assert result["correct"] is False
    assert result["attempted"] > 0 and result["failed"] == result["attempted"]
    assert "failed_ratio" in proc.stderr and "1 (" in proc.stderr


def test_checkout_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _ledger("--workload", "cells", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
