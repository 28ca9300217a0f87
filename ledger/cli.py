"""``python -m ledger``: run the workloads, print the ledger.

Modes (they combine):

* no ``--workload``: every workload in turn; the last stdout line is a
  JSON object keyed by workload;
* ``--workload NAME``: one workload; the last stdout line is the
  benchmark result ``{"correct", "attempted", "failed", "metrics"}``
  with the end-to-end metrics of ``BENCHMARK.json`` (``--trace 0``) or
  its per-layer metrics (``--trace 1``);
* ``--traced`` (same as ``--trace 1``): each workload also runs once
  more under tracing; the per-layer table goes to stderr, the per-layer
  JSON and span JSONL to ``.ledger/out/``;
* ``--repeat N``: N runs per workload, then the median, quartiles and
  sample count of every metric, flagging host-time metrics whose spread
  exceeds their bound and simulated metrics that do not repeat exactly;
* ``--regen-golden``: recompute ``ledger/golden.json``;
* ``--smoke``: tiny grids and one pass, for the self-tests.

The human-readable report always goes to stderr.  Exit status: 0 when
every cell ran and matched, 1 when a cell failed or was wrong or a step
of the run failed, 2 on bad arguments or a checkout without the program.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from ledger import ROOT, SCHEMA, SRC, WORK
from ledger.stats import quartiles, spread, tail_percentile
from ledger.workloads import WORKLOADS, Workload, cell_key

BENCHMARK = ROOT / "BENCHMARK.json"

#: fresh-process set-up probes per run; ``setup_s`` is their median.
PROBES = 5

#: campaign worker processes: two, or fewer on a smaller machine, so
#: one coordinating process plus its workers never oversubscribe the cores.
JOBS = min(2, os.cpu_count() or 1)

PROBE_TIMEOUT = 60.0
CHILD_TIMEOUT = 150.0

#: the paper's Fig. 11 suite-wide IPC gains (percent over no prefetching).
PAPER_GAIN_PCT = {"tcp-8k": 14.0, "tcp-8m": 15.0, "dbcp-2m": 7.0}


class Failure(RuntimeError):
    """A step of the run failed; the message says which."""


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------


def child_env(workload: Workload, tmp: Path, extra: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """The environment of a workload or probe process.

    Every ``REPRO_*`` variable of the caller is dropped, so an ambient
    backend, sanitizer, tracing, profiling, fault, worker-mode, store,
    trace-cache or host setting cannot change what is measured; the
    ledger then sets its own.  Caches and temporary files stay inside
    the checkout.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(ROOT), os.environ.get("PYTHONPATH")) if p
    )
    env["XDG_CACHE_HOME"] = str(WORK / "cache")  # the native extension's build cache
    env["TMPDIR"] = str(tmp)
    env["REPRO_STORE_DIR"] = str(tmp / "default-store")
    if workload.backend:
        env["REPRO_BACKEND"] = workload.backend
    env.update(extra or {})
    return env


def _reap_group(pgid: int) -> None:
    """Kill what is left of a process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_process(args: List[str], env: Dict[str, str], timeout: float) -> subprocess.CompletedProcess:
    """Run ``python <args>`` in its own process group, which is reaped
    afterwards however the process ended (campaign workers included)."""
    proc = subprocess.Popen(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _reap_group(proc.pid)
        proc.communicate()
        raise Failure(f"{' '.join(args[:2])} did not finish within {timeout:.0f} s") from None
    finally:
        _reap_group(proc.pid)
    return subprocess.CompletedProcess(args, proc.returncode, out, err)


def probe(workload: Workload, args: argparse.Namespace, env: Dict[str, str]) -> dict:
    """One fresh-process set-up probe; ``total_s`` is spawn to exit."""
    started = time.perf_counter()
    proc = run_process(
        ["-m", "ledger.probe", workload.name, str(args.seed), "1" if args.smoke else "0"],
        env,
        PROBE_TIMEOUT,
    )
    total = time.perf_counter() - started
    if proc.returncode != 0:
        raise Failure(f"set-up probe failed: {proc.stderr.strip()[-1500:]}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    doc["total_s"] = total
    return doc


def run_child(workload: Workload, args: argparse.Namespace, tmp: Path, traced: bool) -> dict:
    """One workload process; returns its result document."""
    tag = f"{workload.name}-{'traced' if traced else 'untraced'}"
    child_tmp = tmp / tag
    child_tmp.mkdir()
    out_dir = WORK / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    request = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "traced": traced,
        "jobs": JOBS,
        "retries": 0 if args.fault else 2,
        "tmp": str(child_tmp),
        "out": str(tmp / f"{tag}.json"),
        "spans_out": str(out_dir / f"{workload.name}-spans.jsonl") if traced else None,
    }
    extra: Dict[str, str] = {}
    if traced:
        extra.update(REPRO_OBS="trace", REPRO_PROFILE="interval")
    if args.fault:
        extra.update(REPRO_FAULT_RATE="1.0", REPRO_FAULT_KIND=args.fault)
    proc = run_process(
        ["-m", "ledger.child", json.dumps(request)],
        child_env(workload, child_tmp, extra),
        CHILD_TIMEOUT,
    )
    if proc.returncode != 0:
        raise Failure(
            f"the {tag} workload process failed (exit {proc.returncode}):\n"
            + proc.stderr.strip()[-3000:]
        )
    with open(request["out"], encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def end_to_end(probes: List[dict], doc: dict) -> Dict[str, float]:
    """The user-visible numbers of one untraced run.

    Set-up is the median of the probes.  Host times of the grid and of
    resume are best-of (see :func:`ledger.child.grid_wall`): on a
    shared host, interference only adds time.
    """
    wall = doc["wall_s"]
    return {
        "setup_s": statistics.median(p["total_s"] for p in probes),
        "wall_s": wall,
        "cells_per_s": doc["cells"] / wall,
        "sim_accesses_per_s": doc["trace_accesses"] / wall,
        "resume_s": min(doc["resume_s"]),
        "peak_rss_mb": doc["peak_rss_mb"],
    }


def per_layer(probes: List[dict], untraced: dict, traced: dict) -> Dict[str, object]:
    out = dict(traced["layers"])
    out["setup.import_s"] = statistics.median(p["import_s"] for p in probes)
    out["backend.load_s"] = statistics.median(p["backend_s"] for p in probes)
    out["workloads.generate_s"] = statistics.median(p["generate_s"] for p in probes)
    out["workloads.accesses_generated"] = probes[0]["accesses"]
    untraced_wall = statistics.median(untraced["passes"])
    out["obs.trace_overhead_pct"] = (out["traced_wall_s"] / untraced_wall - 1.0) * 100.0
    return out


def declared(bench: dict, tier: str) -> Dict[str, str]:
    """``{metric name: unit}`` of one tier of ``BENCHMARK.json``."""
    return {entry["name"]: entry["unit"] for entry in bench[tier]}


def select(metrics: Dict[str, object], names: Dict[str, str]) -> Dict[str, dict]:
    """The declared metrics, each with its unit; all must be measured."""
    missing = [name for name in names if metrics.get(name) is None]
    if missing:
        raise Failure(f"metrics not measured: {', '.join(missing)}")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in names.items()}


def run_workload(name: str, args: argparse.Namespace, tmp: Path) -> dict:
    """Probes, the untraced run and (``--trace 1``) the traced run of
    one workload; returns the outcome the reports and the JSON use."""
    workload = WORKLOADS[name]
    env = child_env(workload, tmp)
    probe(workload, args, env)  # untimed: builds the native extension on a cold cache
    probes = [probe(workload, args, env) for _ in range(1 if args.smoke else PROBES)]
    untraced = run_child(workload, args, tmp, traced=False)
    traced = run_child(workload, args, tmp, traced=True) if args.trace else None
    docs = [doc for doc in (untraced, traced) if doc is not None]
    outcome = {
        "workload": name,
        "untraced": untraced,
        "traced": traced,
        "attempted": sum(doc["attempted"] for doc in docs),
        "failed": sum(doc["failed"] for doc in docs),
        "wrong": sorted({key for doc in docs for key in doc["wrong"]}),
        "end_to_end": {},
        "per_layer": {},
    }
    outcome["correct"] = outcome["failed"] == 0 and not outcome["wrong"]
    if untraced["failed"] == 0:
        outcome["end_to_end"] = end_to_end(probes, untraced)
    if traced is not None and traced["failed"] == 0:
        outcome["per_layer"] = per_layer(probes, untraced, traced)
        with open(WORK / "out" / f"{name}-layers.json", "w", encoding="utf-8") as handle:
            json.dump({"schema": SCHEMA, "workload": name, "layers": outcome["per_layer"]}, handle, indent=1)
    return outcome


def result_line(outcome: dict, bench: dict, trace: bool) -> dict:
    """The benchmark result object of one workload run."""
    metrics: Dict[str, dict] = {}
    if outcome["correct"]:
        if trace:
            metrics = select(outcome["per_layer"], declared(bench, "per_layer"))
        else:
            metrics = select(outcome["end_to_end"], declared(bench, "end_to_end"))
    return {
        "correct": outcome["correct"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report(outcome: dict, bench: dict, out=sys.stderr) -> None:
    doc = outcome["untraced"]
    write = functools.partial(print, file=out)
    write(
        f"== {doc['workload']}: {doc['cells']} cells x {len(doc['passes'])} timed pass(es), "
        f"{doc['accesses']} accesses per trace (seed {doc['seed']}), "
        f"backend {doc['backend']}, jobs {doc['jobs']}"
    )
    bounds = {entry["name"]: entry for entry in bench["end_to_end"]}
    for name, value in outcome["end_to_end"].items():
        entry = bounds.get(name, {})
        write(f"  {name:<22} {_fmt(value):>14} {entry.get('unit', ''):<6} bound {entry.get('bound', '-')}")
    write(
        "  timed passes (s): " + " ".join(f"{wall:.3f}" for wall in doc["passes"])
        + f" (median {statistics.median(doc['passes']):.3f}); "
        + f"{len(doc['resume_s'])} resumes, median {_fmt(statistics.median(doc['resume_s']) if doc['resume_s'] else None)} s"
    )
    attempted = outcome["attempted"]
    write(f"  {'failed_ratio':<22} {_fmt(outcome['failed'] / attempted):>14} ({outcome['failed']}/{attempted} cells)")
    write(f"  {'wrong_results':<22} {len(outcome['wrong']):>14} ({doc['check']})")
    for error in doc["errors"]:
        write(f"    failed: {error}")
    for key in outcome["wrong"][:5]:
        write(f"    wrong: {key}")
    if doc["cell_s"]:
        cells = tail_percentile(doc["cell_s"])
        tail = f"p{cells['tail_pct']}" if cells["tail_pct"] else "no tail percentile has 10 samples beyond it"
        write(f"  cell time: p50 {_fmt(cells['p50'])} s, {tail} {_fmt(cells['tail'])} s, n={cells['n']}")
    sim = doc["simulated"]
    for label, paper in PAPER_GAIN_PCT.items():
        gain = sim.get(f"prefetchers.ipc_gain_pct.{label}")
        if gain is not None:
            write(
                f"  ipc_gain_pct.{label:<8} {gain:+8.2f} % simulated "
                f"(paper {paper:.0f} %, error {gain - paper:+.2f} points)"
            )
    for label in ("tcp-8k", "tcp-8k-shared"):
        speedup = sim.get(f"multicore.weighted_speedup.{label}")
        if speedup is not None:
            write(f"  weighted_speedup.{label:<14} {speedup:.4f} (simulated)")
    write(f"  workload process REPRO_* environment: {' '.join(doc['env'])}")
    if outcome["per_layer"]:
        layer_report(outcome, write)


def layer_report(outcome: dict, write) -> None:
    layers = outcome["per_layer"]
    traced = outcome["traced"]
    capacity = layers["traced_wall_s"] * traced["jobs"]
    write(
        f"  -- traced: wall {layers['traced_wall_s']:.3f} s x {traced['jobs']} job(s); "
        f"tracing overhead {layers['obs.trace_overhead_pct']:+.1f} %"
    )
    self_s = layers["layer_self_s"]
    idle = {"sim.parallel", "ledger"}
    for name, seconds in sorted(self_s.items(), key=lambda kv: -kv[1]):
        note = " (dispatch, pickling and waiting)" if name == "sim.parallel" else ""
        note = " (the ledger's own loop)" if name == "ledger" else note
        write(f"     {name:<14} self {seconds:9.4f} s  {seconds / capacity:7.1%}{note}")
    covered = sum(s for n, s in self_s.items() if n not in idle) / capacity
    wall_layer = max(self_s, key=self_s.get)
    write(f"     layer self times cover {covered:.1%} of wall x jobs; the wall is {wall_layer}")
    shares = {
        k.rsplit(".", 1)[1]: v for k, v in layers.items() if k.startswith("profile.self_share.") and v
    }
    write(
        "     interval samples by leaf package: "
        + ", ".join(f"{k} {v:.0%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1]))
        + f" (n={layers['profile.samples']})"
    )
    write(
        "     backend.native.outside_epilogue_s is derived (native run time minus the C "
        "epilogue clock) until the engine exports per-component counters"
    )
    for name in sorted(k for k in layers if k != "layer_self_s"):
        write(f"     {name:<44} {_fmt(layers[name])}")


def stability_report(name: str, outcomes: List[dict], bench: dict, trace: bool, out=sys.stderr) -> bool:
    """Median, quartiles and n per metric over repeated runs; returns
    False when a bound is exceeded or a simulated metric differs."""
    ok = True
    write = functools.partial(print, file=out)
    write(f"== {name}: {len(outcomes)} run(s)")
    tiers = [("end_to_end", "end_to_end")] + ([("per_layer", "per_layer")] if trace else [])
    for tier, key in tiers:
        for entry in bench[tier]:
            values = [o[key][entry["name"]] for o in outcomes if o[key].get(entry["name"]) is not None]
            if not values:
                continue
            q1, median, q3 = quartiles(values)
            line = (
                f"  {entry['name']:<40} median {_fmt(median):>12} {entry['unit']:<6} "
                f"q1 {_fmt(q1):>12} q3 {_fmt(q3):>12} n={len(values)}"
            )
            if "bound" in entry:
                share = spread(values)
                flag = share > entry["bound"]
                ok = ok and not flag
                line += f"  spread {share:.1%} (bound {entry['bound']:.0%}){'  EXCEEDS BOUND' if flag else ''}"
            write(line)
    for key in ("simulated", "digests"):
        identical = all(o["untraced"][key] == outcomes[0]["untraced"][key] for o in outcomes)
        ok = ok and identical
        write(f"  {key}: {'identical in every run' if identical else 'DIFFER between runs'}")
    return ok


# ----------------------------------------------------------------------
# Golden digests
# ----------------------------------------------------------------------


def regen_golden() -> int:
    """Recompute every workload's golden digests on the python loop.

    Also asserts that the native backend matches the reference on every
    ``cells`` cell, the grid that runs on it in-process.
    """
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["XDG_CACHE_HOME"] = str(WORK / "cache")
    sys.path.insert(0, str(SRC))
    from dataclasses import replace

    from repro.backend.native import build
    from repro.sim.runner import simulate

    from ledger import golden

    if build.load() is None:
        raise Failure(f"the native backend is unavailable: {build.load_error()}")
    cells: Dict[str, Dict[str, Dict[str, str]]] = {}
    for smoke in (False, True):
        for workload in WORKLOADS.values():
            section = cells.setdefault(golden.section(workload.name, smoke), {})
            for seed in golden.GOLDEN_SEEDS:
                accesses = workload.accesses(seed, smoke)
                digests = section.setdefault(str(seed), {})
                for name, config in workload.cells(smoke):
                    key = cell_key(name, config, accesses)
                    reference = simulate(name, replace(config, backend="python"), accesses, use_cache=False)
                    digests[key] = golden.digest(reference)
                    if workload.name == "cells":
                        native = simulate(name, replace(config, backend="native"), accesses, use_cache=False)
                        if golden.digest(native) != digests[key]:
                            raise Failure(f"native differs from the reference loop on {key}")
                print(f"{golden.section(workload.name, smoke)} seed {seed}: {len(digests)} cells", file=sys.stderr)
    print(f"wrote {golden.save(cells)}", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python -m ledger", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0, help="input seed; 0 and 1 have golden digests")
    parser.add_argument("--seconds", type=float, help="measuring time per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: report per-layer metrics")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1, help="same as --trace 1")
    parser.add_argument("--repeat", type=int, default=0, metavar="N", help="stability mode: N runs")
    parser.add_argument("--regen-golden", action="store_true", help="recompute ledger/golden.json")
    parser.add_argument("--smoke", action="store_true", help="tiny grids, one pass (self-tests)")
    parser.add_argument("--fault", metavar="KIND", help="inject KIND into every campaign attempt, no retries")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"ledger: the program is not in this checkout (no {SRC / 'repro'})", file=sys.stderr)
        return 2
    if args.regen_golden:
        return regen_golden()
    with open(BENCHMARK, encoding="utf-8") as handle:
        bench = json.load(handle)
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(bench["run_seconds"])
    names = [args.workload] if args.workload else list(WORKLOADS)
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=WORK / "tmp") as tmp:
            if args.repeat:
                ok = True
                for name in names:
                    outcomes = []
                    for index in range(args.repeat):
                        run_dir = Path(tmp) / f"{name}-{index}"
                        run_dir.mkdir()
                        outcomes.append(run_workload(name, args, run_dir))
                    ok = stability_report(name, outcomes, bench, bool(args.trace)) and ok
                    ok = ok and all(o["correct"] for o in outcomes)
                return 0 if ok else 1
            outcomes = {}
            for name in names:
                run_dir = Path(tmp) / name
                run_dir.mkdir()
                outcomes[name] = run_workload(name, args, run_dir)
                report(outcomes[name], bench)
            lines = {name: result_line(o, bench, bool(args.trace)) for name, o in outcomes.items()}
    except Failure as exc:
        print(f"ledger: {exc}", file=sys.stderr)
        return 1
    if args.workload:
        print(json.dumps(lines[args.workload]))
    else:
        print(json.dumps({"schema": SCHEMA, "seed": args.seed, "workloads": lines}))
    return 0 if all(o["correct"] for o in outcomes.values()) else 1
