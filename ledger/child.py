"""One workload in one hermetic process: warm up, time passes, check.

The ledger's driving process runs ``python -m ledger.child '<request>'``
with a cleaned environment (see :func:`ledger.cli.child_env`) and reads
the JSON document this process writes to ``request["out"]``.  The
program is called only through its public entry points: ``prewarm``
for campaign workloads, ``simulate`` for in-process ones,
``ResultStore`` for the store and resume measurements.

A run is one untimed warm-up pass (caches fill, lazy imports finish),
then timed passes until ``request["seconds"]`` have elapsed and at
least :data:`MIN_PASSES` have run.  Every pass simulates the whole grid
cold: campaign passes get a fresh store and trace-cache directory and
a cleared process result cache.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.backend.native import build as native_build
from repro.obs import spans as obs_spans
from repro.obs.profile import maybe_profile
from repro.obs.trace import load_events
from repro.sim import runner
from repro.sim.parallel import prewarm
from repro.sim.runner import simulate
from repro.sim.store import ResultStore, use_store
from repro.util.stats import geometric_mean
from repro.workloads import generate

from ledger import SCHEMA, golden, layers
from ledger.stats import tail_percentile
from ledger.workloads import WORKLOADS, cell_key, trace_names

#: timed passes a run makes however long they take (``--smoke``: 1).
MIN_PASSES = 3

#: resume and store-read measurements after each timed pass.
RESUME_PER_PASS = 3

#: cells re-run on the python reference loop when a seed has no golden
#: digests.
REFERENCE_SAMPLE = 4

#: ``SimResult.backend_fallback`` reasons, by the class the ledger
#: counts them under.
FALLBACK_CLASSES = {
    "prefetcher observes the access stream": "access-observer",
    "gated L1 promotions": "gated-promotion",
    "multicore": "multicore",
}

#: HierarchyStats counters summed into the ``memory.*`` metrics.
MEMORY_COUNTERS = ("l1_misses", "l2_demand_misses", "prefetches_issued", "mshr_full_stalls")

#: packages whose share of interval samples is always reported.
PROFILE_PACKAGES = (
    "backend", "core", "cpu", "deadblock", "memory", "multicore",
    "obs", "prefetchers", "sim", "util", "workloads", "other",
)


class LedgerError(RuntimeError):
    """The run cannot produce a trustworthy measurement."""


@dataclass
class Context:
    name: str
    campaign: bool
    cells: list
    configs: list
    benchmarks: tuple
    accesses: int
    jobs: int
    retries: int
    traced: bool


@dataclass
class Pass:
    directory: Path
    wall: float
    results: Dict[str, object]
    failed: List[str]
    cell_s: List[float] = field(default_factory=list)
    retried: int = 0
    recycled: int = 0
    events: Optional[List[dict]] = None
    profile: Counter = field(default_factory=Counter)


def campaign_pass(ctx: Context, directory: Path) -> Pass:
    """One cold ``prewarm`` campaign over the grid."""
    runner.clear_cache()
    if ctx.traced:
        os.environ["REPRO_PROFILE_DIR"] = str(directory / "profiles")
    with use_store(ResultStore(directory / "store")):
        started = time.perf_counter()
        report = prewarm(
            ctx.configs,
            ctx.accesses,
            ctx.benchmarks,
            jobs=ctx.jobs,
            retries=ctx.retries,
            trace_cache=directory / "traces",
        )
        wall = time.perf_counter() - started
    return Pass(
        directory,
        wall,
        dict(report.completed),
        [failure.describe() for failure in report.failures],
        retried=report.retried,
        recycled=report.recycled,
        events=load_events(report.trace_path) if report.trace_path else None,
    )


def inprocess_pass(ctx: Context, directory: Path) -> Pass:
    """``simulate`` every cell in this process, uncached."""
    results: Dict[str, object] = {}
    failed: List[str] = []
    cell_s: List[float] = []
    collector = obs_spans.TraceCollector() if ctx.traced else None
    with ExitStack() as stack:
        if collector is not None:
            stack.enter_context(obs_spans.use_span_sink(collector.sink))
            stack.enter_context(maybe_profile("pass", out_dir=directory / "profiles"))
            stack.enter_context(obs_spans.span("pass", workload=ctx.name))
        started = time.perf_counter()
        for name, config in ctx.cells:
            key = cell_key(name, config, ctx.accesses)
            with obs_spans.span("cell", workload=name, config=config.resolved_label()):
                cell_started = time.perf_counter()
                try:
                    results[key] = simulate(name, config, ctx.accesses, use_cache=False)
                except Exception as exc:  # noqa: BLE001 - a failed cell is counted
                    failed.append(f"{key}: {type(exc).__name__}: {exc}")
                cell_s.append(time.perf_counter() - cell_started)
        wall = time.perf_counter() - started
    events = collector.events if collector is not None else None
    return Pass(directory, wall, results, failed, cell_s=cell_s, events=events)


def reference_check(ctx: Context, digests: Dict[str, str], seed: int) -> List[str]:
    """Re-run sampled single-core cells on the python reference loop;
    return the keys whose digest differs."""
    single = [(name, config) for name, config in ctx.cells if config.mix is None]
    sample = random.Random(seed).sample(single, min(REFERENCE_SAMPLE, len(single)))
    wrong = []
    for name, config in sample:
        key = cell_key(name, config, ctx.accesses)
        if key not in digests:
            continue
        reference = simulate(name, replace(config, backend="python"), ctx.accesses, use_cache=False)
        if golden.digest(reference) != digests[key]:
            wrong.append(key)
    return wrong


def simulated(ctx: Context, results: Dict[str, object]) -> Dict[str, Optional[float]]:
    """Simulated-hardware outcomes of one pass; they repeat exactly."""
    totals: Counter = Counter()
    fallbacks: Counter = Counter()
    for result in results.values():
        stats = [core.memory for core in result.per_core] if hasattr(result, "per_core") else [result.memory]
        for memory in stats:
            for counter in MEMORY_COUNTERS + ("useful_prefetches",):
                totals[counter] += getattr(memory, counter)
        if result.backend_fallback:
            fallbacks[FALLBACK_CLASSES.get(result.backend_fallback, "other")] += 1
    out: Dict[str, Optional[float]] = {f"memory.{c}": totals[c] for c in MEMORY_COUNTERS}
    useful, issued = totals["useful_prefetches"], totals["prefetches_issued"]
    out["memory.prefetch_accuracy"] = useful / issued if issued else 0.0
    demand = useful + totals["l2_demand_misses"]
    out["memory.prefetch_coverage"] = useful / demand if demand else 0.0
    for reason in ("access-observer", "gated-promotion", "multicore", "other"):
        out[f"backend.fallback_cells.{reason}"] = fallbacks[reason]

    def result(name: str, label: str):
        return results.get(f"{name}/{label}@{ctx.accesses}")

    singles = [name for name in ctx.benchmarks if result(name, "base") is not None]
    for label in ("tcp-8k", "tcp-8m", "dbcp-2m"):
        ratios = [
            result(name, label).ipc / result(name, "base").ipc
            for name in singles
            if result(name, label) is not None
        ]
        out[f"prefetchers.ipc_gain_pct.{label}"] = (
            (geometric_mean(ratios) - 1.0) * 100.0 if ratios else None
        )
    mixes = [name for name, config in ctx.cells if config.mix is not None]
    for label in ("tcp-8k", "tcp-8k-shared"):
        mix = result(mixes[0], label) if mixes else None
        solos = {name: result(name, "tcp-8k") for name in ctx.benchmarks}
        out[f"multicore.weighted_speedup.{label}"] = (
            mix.weighted_speedup(solos) if mix is not None and all(solos.values()) else None
        )
    return out


def write_store(ctx: Context, results: Dict[str, object], store_dir: Path) -> dict:
    """Time ``ResultStore.put`` of one pass's results into a fresh store."""
    store = ResultStore(store_dir)
    started = time.perf_counter()
    for name, config in ctx.cells:
        store.put(name, ctx.accesses, config, results[cell_key(name, config, ctx.accesses)])
    return {
        "store_put_s": time.perf_counter() - started,
        "store_puts": len(ctx.cells),
        "store_bytes": store.path.stat().st_size,
    }


def time_resume(ctx: Context, resume_dir: Path, store_dir: Path, repeats: int) -> Tuple[List[float], List[float]]:
    """Resume and store-read timings, ``repeats`` of each.

    A resume is a ``prewarm`` of the whole grid from a freshly opened
    complete store (``resume_dir``) with a cleared process cache; a
    store read opens ``store_dir`` and gets every cell.
    """
    resume_s: List[float] = []
    open_get_s: List[float] = []
    for _ in range(repeats):
        runner.clear_cache()
        gc.collect()
        started = time.perf_counter()
        with use_store(ResultStore(resume_dir)):
            report = prewarm(ctx.configs, ctx.accesses, ctx.benchmarks, jobs=ctx.jobs)
        resume_s.append(time.perf_counter() - started)
        if report.executed or report.skipped != len(ctx.cells):
            raise LedgerError(
                f"resume ran {report.executed} cell(s) and skipped {report.skipped} "
                f"of {len(ctx.cells)}: the store was not complete"
            )
        gc.collect()
        started = time.perf_counter()
        reopened = ResultStore(store_dir)
        for name, config in ctx.cells:
            reopened.get(name, ctx.accesses, config)
        open_get_s.append(time.perf_counter() - started)
    return resume_s, open_get_s


def grid_wall(passes: List[Pass], cells: int, campaign: bool) -> float:
    """Host seconds for one pass over the grid, best of the timed passes.

    On a shared host, interference only ever adds time, and it comes in
    phases of a fraction of a second to several seconds.  A campaign
    pass is one indivisible measurement, so its fastest pass counts; an
    in-process pass is the sum of its cells, so each cell's fastest time
    counts, which needs a quiet moment per cell rather than per pass.
    """
    if campaign:
        return min(p.wall for p in passes)
    return sum(min(p.cell_s[index] for p in passes) for index in range(cells))


def run(request: dict) -> dict:
    workload = WORKLOADS[request["workload"]]
    smoke, seed, traced = request["smoke"], request["seed"], request["traced"]
    tmp = Path(request["tmp"])
    ctx = Context(
        name=workload.name,
        campaign=workload.campaign,
        cells=workload.cells(smoke),
        configs=workload.configs(),
        benchmarks=workload.benchmarks(smoke),
        accesses=workload.accesses(seed, smoke),
        jobs=request["jobs"] if workload.campaign else 1,
        retries=request["retries"],
        traced=traced,
    )
    if workload.backend == "native" and native_build.load() is None:
        raise LedgerError(f"the native backend is unavailable: {native_build.load_error()}")
    if traced:
        layers.install_backend_timer()

    run_pass = campaign_pass if workload.campaign else inprocess_pass
    numbers = itertools.count()

    def one_pass() -> Pass:
        directory = tmp / f"pass{next(numbers)}"
        directory.mkdir(parents=True)
        # Every pass starts from the same collector state: what earlier
        # passes left behind is frozen out of the cyclic GC's scans, so
        # a later pass does not pay for a heap a user's run never has.
        gc.collect()
        gc.freeze()
        done = run_pass(ctx, directory)
        if traced:
            done.profile = layers.profile_tally(directory / "profiles")
        return done

    if not smoke:
        shutil.rmtree(one_pass().directory)
    passes: List[Pass] = []
    digests: Dict[str, str] = {}
    wrong = set()
    store_dir = tmp / "ledger-store"
    stored: dict = {}
    resume_s: List[float] = []
    open_get_s: List[float] = []
    deadline = time.perf_counter() + request["seconds"]
    while True:
        done = one_pass()
        passes.append(done)
        for key, result in done.results.items():
            value = golden.digest(result)
            if digests.setdefault(key, value) != value:
                wrong.add(key)  # a pass disagrees with the first one
        if done.failed:
            break
        if len(passes) == 1:
            stored = write_store(ctx, done.results, store_dir)
        else:
            done.results = {}  # only the first pass's results are kept
            shutil.rmtree(passes[-2].directory)
        # Resume reads the store the campaign itself wrote; in-process
        # workloads have only the one the ledger wrote.  Measuring after
        # every pass spreads the samples over the whole run.
        resume_dir = done.directory / "store" if ctx.campaign else store_dir
        timings = time_resume(ctx, resume_dir, store_dir, RESUME_PER_PASS)
        resume_s += timings[0]
        open_get_s += timings[1]
        if len(passes) >= (1 if smoke else MIN_PASSES) and time.perf_counter() >= deadline:
            break
    # Read before the checks below, which simulate in this process.
    usage = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    failures = [message for p in passes for message in p.failed]
    if not failures:
        # The last resume left every cell in the process cache: these
        # calls are served from it, so they return what the store held.
        for name, config in ctx.cells:
            key = cell_key(name, config, ctx.accesses)
            if golden.digest(simulate(name, config, ctx.accesses)) != digests.get(key):
                wrong.add(key)

    first = passes[0]
    expected = golden.expected(workload.name, seed, smoke)
    if expected is not None:
        wrong.update(golden.mismatches(digests, expected))
        check = f"golden digests for seed {seed}"
    else:
        wrong.update(reference_check(ctx, digests, seed))
        check = (
            f"unchecked: no golden digests for seed {seed}; "
            f"{min(REFERENCE_SAMPLE, len(ctx.cells))} sampled cells re-run "
            "on the python reference loop instead"
        )

    lengths = {name: len(generate(name, ctx.accesses)) for name in trace_names(ctx.cells)}
    cell_accesses = {
        cell_key(name, config, ctx.accesses): sum(lengths[p] for p in name.split("+"))
        for name, config in ctx.cells
    }
    doc = {
        "schema": SCHEMA,
        "workload": workload.name,
        "seed": seed,
        "accesses": ctx.accesses,
        "jobs": ctx.jobs,
        "backend": workload.backend or "default",
        "traced": traced,
        "cells": len(ctx.cells),
        "trace_accesses": sum(cell_accesses.values()),
        "passes": [p.wall for p in passes],
        "wall_s": grid_wall(passes, len(ctx.cells), ctx.campaign),
        "attempted": len(ctx.cells) * len(passes),
        "failed": len(failures),
        "errors": failures[:5],
        "cell_s": [s for p in passes for s in p.cell_s],
        "check": check,
        "digests": digests,
        "simulated": simulated(ctx, first.results),
        "env": sorted(f"{k}={v}" for k, v in os.environ.items() if k.startswith("REPRO_")),
        "resume_s": resume_s,
        "open_get_s": open_get_s,
        **stored,
    }
    doc["wrong"] = sorted(wrong)
    if traced:
        doc["layers"] = layer_metrics(ctx, passes, cell_accesses, doc, request)
    doc["peak_rss_mb"] = usage / 1024.0
    return doc


def layer_metrics(ctx: Context, passes: List[Pass], cell_accesses: Dict[str, int], doc: dict, request: dict) -> dict:
    """Every per-layer number of the traced run (``None``: not applicable)."""
    per_pass = [layers.pass_layers(p.events or [], p.wall, ctx.jobs, ctx.campaign) for p in passes]

    def per_pass_median(key: str) -> float:
        return statistics.median(p[key] for p in per_pass)

    engines: Dict[str, Counter] = {}
    for p in per_pass:
        for engine, numbers in p["engines"].items():
            engines.setdefault(engine, Counter()).update(numbers)
    run_s = sum(e["run_s"] for e in engines.values())
    accesses = sum(e["accesses"] for e in engines.values())
    misses = sum(e["l1_misses"] for e in engines.values())
    native = engines.get("native", Counter())
    n = len(passes)
    out: Dict[str, Optional[float]] = {
        "backend.run_s": run_s / n,
        "backend.ns_per_access": run_s / max(accesses, 1) * 1e9,
        "backend.ns_per_l1_miss": run_s / max(misses, 1) * 1e9,
        "backend.native.batched_fraction": (
            native["batched_accesses"] / native["accesses"] if native["accesses"] else 0.0
        ),
        "backend.native.epilogue_share": (
            native["epilogue_ns"] / 1e9 / native["run_s"] if native["run_s"] else 0.0
        ),
        "backend.native.epilogue_s": native["epilogue_ns"] / 1e9 / n if native else None,
        "backend.native.outside_epilogue_s": (
            (native["run_s"] - native["epilogue_ns"] / 1e9) / n if native else None
        ),
    }
    for engine in ("native", "numpy", "python"):
        numbers = engines.get(engine)
        out[f"backend.run_s.{engine}"] = numbers["run_s"] / n if numbers else None
        out[f"backend.ns_per_access.{engine}"] = (
            numbers["run_s"] / numbers["accesses"] * 1e9 if numbers else None
        )
        out[f"backend.ns_per_l1_miss.{engine}"] = (
            numbers["run_s"] / max(numbers["l1_misses"], 1) * 1e9 if numbers else None
        )

    tally: Counter = Counter()
    for p in passes:
        tally.update(p.profile)
    samples = sum(tally.values())
    out["profile.samples"] = samples
    for package in sorted(set(tally) | set(PROFILE_PACKAGES)):
        out[f"profile.self_share.{package}"] = tally[package] / samples if samples else 0.0

    for label, ns in layers.replay(trace_names(ctx.cells), ctx.accesses).items():
        out[f"prefetchers.replay_ns_per_miss.{label}"] = ns

    mix_accesses = sum(v for k, v in cell_accesses.items() if "+" in k.split("/", 1)[0])
    multicore_s = per_pass_median("multicore_s")
    out["multicore.run_s"] = multicore_s if mix_accesses else None
    out["multicore.ns_per_access"] = multicore_s / mix_accesses * 1e9 if mix_accesses else None

    cells = tail_percentile([s for p in per_pass for s in p["cell_s"]])
    out["runner.overhead_s"] = per_pass_median("runner_overhead_s")
    out["runner.cell_p50_s"] = cells["p50"]
    out["runner.cell_tail_s"] = cells["tail"]
    out["runner.cell_tail_pct"] = cells["tail_pct"]
    out["runner.cell_samples"] = cells["n"]

    busy = per_pass_median("busy_s")
    wall = statistics.median(p.wall for p in passes)
    out["campaign.busy_s"] = busy
    out["campaign.idle_s"] = wall * ctx.jobs - busy
    out["campaign.utilisation"] = busy / (wall * ctx.jobs)
    out["campaign.retried"] = sum(p.retried for p in passes)
    out["campaign.recycled"] = sum(p.recycled for p in passes)
    out["campaign.precache_s"] = per_pass_median("precache_s") if ctx.campaign else None
    out["campaign.install_s"] = per_pass_median("install_s") if ctx.campaign else None

    out["store.put_s"] = doc.get("store_put_s")
    out["store.puts"] = doc.get("store_puts")
    out["store.bytes"] = doc.get("store_bytes")
    out["store.open_get_s"] = min(doc["open_get_s"]) if doc["open_get_s"] else None
    out.update(doc["simulated"])

    layer_names = sorted({name for p in per_pass for name in p["layers"]})
    out["layer_self_s"] = {
        name: statistics.median(p["layers"].get(name, 0.0) for p in per_pass) for name in layer_names
    }
    out["traced_wall_s"] = wall
    if request.get("spans_out"):
        collector = obs_spans.TraceCollector()
        for p in passes:
            for event in p.events or []:
                collector.add(event)
        collector.write(request["spans_out"])
    return out


def main(argv: List[str]) -> int:
    request = json.loads(argv[0])
    doc = run(request)
    with open(request["out"], "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
