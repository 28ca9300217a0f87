"""``repro-tcp``: the command-line front end for the reproduction.

Examples
--------
List everything::

    repro-tcp list

Regenerate one figure at the standard scale::

    repro-tcp run fig11

Regenerate the whole evaluation at full scale (what EXPERIMENTS.md
records)::

    repro-tcp run all --scale full

Simulate one benchmark under one prefetcher::

    repro-tcp simulate swim --prefetcher tcp-8k --scale quick

Resumable campaigns: ``--resume`` checkpoints every finished
simulation to an on-disk store and, on restart, re-runs only the
missing (workload, configuration) pairs::

    repro-tcp run all --scale full --jobs 8 --resume --retries 3 --timeout 600
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from repro.backend import BACKEND_ENV, available_backends
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.obs import metrics as obs_metrics
from repro.sim import (
    PREFETCHERS,
    SimulationConfig,
    SimulationError,
    simulate,
)
from repro.sim import sanitizer as sanitizer_mod
from repro.sim import store as store_mod
from repro.workloads import BENCHMARK_ORDER, SUITE, Scale

__all__ = ["main"]


def _parse_scale(text: str) -> Scale:
    try:
        return Scale[text.upper()]
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"unknown scale {text!r}; choose from "
            + ", ".join(s.name.lower() for s in Scale)
        )


def _parse_retries(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"retries must be an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"retries must be >= 0, got {value}")
    return value


def _parse_max_failures(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"max-failures must be an integer, got {text!r}"
        )
    if value < 1:
        raise argparse.ArgumentTypeError(f"max-failures must be >= 1, got {value}")
    return value


def _parse_timeout(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"timeout must be a number, got {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"timeout must be positive, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-tcp",
        description="Reproduction of 'TCP: Tag Correlating Prefetchers' (HPCA 2003)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    listing = sub.add_parser("list", help="list experiments, benchmarks, prefetchers")
    listing.set_defaults(func=_cmd_list)

    run = sub.add_parser("run", help="regenerate a paper table/figure")
    run.add_argument("experiment", help="fig1..fig15, table1, or 'all'")
    run.add_argument("--scale", type=_parse_scale, default=Scale.STANDARD,
                     help="quick | standard | full (default standard)")
    run.add_argument("--benchmarks", nargs="*", default=None,
                     help="subset of benchmarks (default: whole suite)")
    run.add_argument("--mix", default=None, metavar="MIX",
                     help="workload mix for the 'mix' experiment: a named "
                          "mix (mix1..mix7) or benchmarks joined with '+' "
                          "(default mix2)")
    run.add_argument("--jobs", type=int, default=1,
                     help="parallel workers to pre-warm simulations (0 = cpus)")
    run.add_argument("--resume", action="store_true",
                     help="checkpoint results to the on-disk store and "
                          "re-run only the missing (workload, config) pairs")
    run.add_argument("--store-dir", default=None, metavar="DIR",
                     help="store directory (implies --resume; default "
                          "$REPRO_STORE_DIR or ~/.cache/repro-tcp)")
    run.add_argument("--no-store", action="store_true",
                     help="disable result persistence entirely")
    run.add_argument("--retries", type=_parse_retries, default=None, metavar="N",
                     help="extra attempts per failed simulation (default 2)")
    run.add_argument("--timeout", type=_parse_timeout, default=None,
                     metavar="SECONDS",
                     help="per-simulation wall-clock budget (default none)")
    run.add_argument("--stall-timeout", type=_parse_timeout, default=None,
                     metavar="SECONDS",
                     help="kill a worker that emits no progress heartbeat "
                          "for this long (a slow-but-progressing job is "
                          "never killed; default off)")
    run.add_argument("--max-failures", type=_parse_max_failures, default=None,
                     metavar="N",
                     help="abort the campaign once N jobs have permanently "
                          "failed instead of draining the whole sweep "
                          "(default: drain)")
    run.add_argument("--hosts", default=None, metavar="SPEC",
                     help="shard the campaign across a host fleet: "
                          "'local[:N]' or '[ssh:]host[:N]', comma separated "
                          "(default: $REPRO_HOSTS, else single-host)")
    run.add_argument("--backend", choices=available_backends(), default=None,
                     help="simulation backend for every run in the campaign "
                          "(workers inherit it; default: REPRO_BACKEND or "
                          "'python'; results are bit-identical either way)")
    run.add_argument("--sanitize", choices=sanitizer_mod.LEVELS, default=None,
                     help="runtime invariant checking tier (default: "
                          "$REPRO_SANITIZE or off)")
    run.add_argument("--obs", choices=obs_metrics.OBS_CHOICES, default=None,
                     help="observability: metrics, span tracing, or both "
                          "(default: $REPRO_OBS or off)")
    run.set_defaults(func=_cmd_run)

    simulate_cmd = sub.add_parser(
        "simulate", help="simulate one benchmark or one workload mix"
    )
    simulate_cmd.add_argument("benchmark", nargs="?", default=None,
                              choices=sorted(SUITE))
    simulate_cmd.add_argument("--mix", default=None, metavar="MIX",
                              help="co-schedule a workload mix instead of one "
                                   "benchmark: a named mix (mix1..mix7) or "
                                   "benchmarks joined with '+' (one core "
                                   "each, shared L2/bus/DRAM)")
    simulate_cmd.add_argument("--prefetcher", default="none",
                              choices=sorted(PREFETCHERS))
    simulate_cmd.add_argument("--shared-pht", action="store_true",
                              help="with --mix: all cores share core 0's "
                                   "pattern history table")
    simulate_cmd.add_argument("--scale", type=_parse_scale, default=Scale.STANDARD)
    simulate_cmd.add_argument("--backend", choices=available_backends(),
                              default=None,
                              help="simulation backend (default: REPRO_BACKEND "
                                   "or 'python'; results are bit-identical "
                                   "either way)")
    simulate_cmd.add_argument("--sanitize", choices=sanitizer_mod.LEVELS,
                              default=None,
                              help="runtime invariant checking tier (default: "
                                   "$REPRO_SANITIZE or off)")
    simulate_cmd.add_argument("--obs", choices=obs_metrics.OBS_CHOICES,
                              default=None,
                              help="observability: metrics, span tracing, or "
                                   "both (default: $REPRO_OBS or off)")
    simulate_cmd.set_defaults(func=_cmd_simulate)

    trace_cmd = sub.add_parser(
        "trace",
        help="export a benchmark's memory trace, or summarize an "
             "observability span trace",
    )
    trace_cmd.add_argument(
        "target",
        metavar="BENCHMARK|summarize",
        help="a benchmark name (export its memory trace to .npz) or "
             "'summarize' (per-stage breakdown of a span-trace .jsonl)",
    )
    trace_cmd.add_argument(
        "path", nargs="?", default=None,
        help="with 'summarize': the trace file (default: the newest "
             "trace under the store's obs directory)",
    )
    trace_cmd.add_argument("--scale", type=_parse_scale, default=Scale.STANDARD)
    trace_cmd.add_argument("--output", default=None,
                           help="output path (default <benchmark>-<scale>.npz)")
    trace_cmd.add_argument("--top", type=int, default=5, metavar="N",
                           help="with 'summarize': slowest spans to show "
                                "(default 5)")
    trace_cmd.set_defaults(func=_cmd_trace)

    store_cmd = sub.add_parser(
        "store", help="inspect and maintain the on-disk result store"
    )
    store_cmd.add_argument(
        "action",
        choices=("status", "verify", "compact", "repair"),
        help="status: read-only overview; verify: read-only integrity "
             "scan (exit 1 on bad records); compact: drop superseded "
             "duplicate records; repair: quarantine bad records and "
             "truncate any torn tail",
    )
    store_cmd.add_argument("--store-dir", default=None, metavar="DIR",
                           help="store directory (default $REPRO_STORE_DIR "
                                "or ~/.cache/repro-tcp)")
    store_cmd.set_defaults(func=_cmd_store)

    fleet_cmd = sub.add_parser(
        "fleet", help="inspect and merge multi-host campaign shards"
    )
    fleet_cmd.add_argument(
        "action",
        choices=("status", "merge"),
        help="status: list per-host store shards and their record "
             "counts; merge: fold every shard into the main result log "
             "(deduped by config fingerprint) and remove it",
    )
    fleet_cmd.add_argument("--store-dir", default=None, metavar="DIR",
                           help="store directory (default $REPRO_STORE_DIR "
                                "or ~/.cache/repro-tcp)")
    fleet_cmd.set_defaults(func=_cmd_fleet)
    return parser


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.multicore import MIXES

    print("experiments:")
    for name in EXPERIMENTS:
        print(f"  {name}")
    print("\nbenchmarks (paper's Figure 1 order):")
    for name in BENCHMARK_ORDER:
        print(f"  {name:10s} {SUITE[name].summary}")
    print("\nprefetchers:")
    for name in sorted(PREFETCHERS):
        print(f"  {name}")
    print("\nmixes (ascending aggregate MPKI; one core per benchmark):")
    for spec in MIXES.values():
        print(f"  {spec.name:6s} {'+'.join(spec.benchmarks)}")
    return 0


def _resolve_store(args: argparse.Namespace) -> Optional[store_mod.ResultStore]:
    """Map the store flags onto a (possibly absent) result store.

    ``--no-store`` wins over everything; ``--store-dir`` and
    ``--resume`` enable persistence explicitly; otherwise the
    environment decides (``REPRO_STORE_DIR`` / ``REPRO_NO_STORE``).
    """
    if args.no_store:
        return None
    if args.store_dir:
        return store_mod.ResultStore(args.store_dir)
    if args.resume:
        return store_mod.ResultStore(store_mod.default_store_dir())
    return store_mod.store_from_env()


def _cmd_store(args: argparse.Namespace) -> int:
    root = args.store_dir or store_mod.default_store_dir()
    store = store_mod.ResultStore(root)

    if args.action in ("status", "verify"):
        report = store.verify()  # read-only scan, never repairs
        print(f"store:       {report['path']} ({report['size_bytes']} bytes)")
        print(
            f"records:     {report['records']} "
            f"({report['live']} live, {report['garbage']} superseded)"
        )
        print(
            f"integrity:   {report['checksummed']} checksummed, "
            f"{report['legacy']} legacy (pre-checksum), "
            f"{report['stale']} foreign-schema"
        )
        if report["torn_tail"]:
            print(
                "torn tail:   yes — a partial record from an interrupted "
                "write; truncated automatically on the next load (or by "
                "'store repair')"
            )
        if args.action == "status":
            markers = store.progress_entries()
            if markers:
                print(f"in-progress: {len(markers)} incomplete job marker(s)")
            if store.quarantine_path.exists():
                count = sum(
                    1
                    for line in store.quarantine_path.read_text(
                        encoding="utf-8"
                    ).splitlines()
                    if line.strip()
                )
                print(f"quarantine:  {count} record(s) in {store.quarantine_path}")
        if report["bad"]:
            print(f"bad records: {len(report['bad'])}")
            for entry in report["bad"]:
                print(f"  - {entry}")
            if args.action == "verify":
                print(
                    "verify: FAILED — run 'repro-tcp store repair' to "
                    "quarantine these records",
                    file=sys.stderr,
                )
                return 1
        elif args.action == "verify":
            print("verify: OK")
        return 0

    if args.action == "compact":
        before = len(store)
        dropped = store.compact(force=True)
        print(
            f"compacted {store.path}: dropped {dropped} superseded "
            f"record(s), {before} live record(s) kept"
        )
        return 0

    # repair: a forced repairing load — quarantines bad records,
    # truncates any torn tail, then reports the resulting health.
    health = store.repair()
    print(
        f"repaired {store.path}: {health['records']} live record(s), "
        f"{health['quarantined']} quarantined, "
        f"{health['torn_truncated']} torn tail(s) truncated"
    )
    if health["quarantined"]:
        print(f"quarantine:  {store.quarantine_path}")
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.sim import fabric as fabric_mod

    root = args.store_dir or store_mod.default_store_dir()
    status = fabric_mod.fleet_status(root)
    print(
        f"store:  {status['root']} ({status['main_live']} live record(s) "
        f"in the main log)"
    )
    if not status["shards"]:
        print("shards: none")
        return 0
    for shard in status["shards"]:
        line = (
            f"  shard {shard['host']}: {shard['live']} live record(s) "
            f"({shard['records']} total)"
        )
        if shard["bad"]:
            line += f", {shard['bad']} bad"
        print(line)
    if args.action == "status":
        return 0

    store = store_mod.ResultStore(root)
    merged, adopted = store_mod.merge_shards(store)
    print(
        f"merged {merged} shard(s): adopted {adopted} new record(s) "
        f"into {store.path}"
    )
    if store.degraded:
        print(
            f"error: StoreDegraded: merge fell back to in-memory-only "
            f"({store.degraded_reason}); shards were kept on disk",
            file=sys.stderr,
        )
        return 1
    return 0


def _campaign_progress(done: int, total: int, key: str, status: str) -> None:
    print(f"  [{done}/{total}] {key}: {status}", flush=True)


def _apply_sanitize(level: Optional[str]) -> None:
    """Install a ``--sanitize`` choice for this process *and* workers.

    Experiments build their configurations internally, so the tier is
    carried by the environment (which worker processes inherit) rather
    than by threading a flag through every experiment.
    """
    if level is not None:
        os.environ[sanitizer_mod.SANITIZE_ENV] = level


def _apply_obs(value: Optional[str]) -> None:
    """Install an ``--obs`` choice for this process *and* workers.

    Carried by the environment for the same reason as ``--sanitize``:
    campaign workers inherit it without threading a flag through every
    layer.
    """
    if value is not None:
        os.environ[obs_metrics.OBS_ENV] = value


def _apply_backend(name: Optional[str]) -> None:
    """Install a ``--backend`` choice for this process *and* workers.

    Carried by the environment for the same reason as ``--sanitize``:
    campaign workers inherit it without threading a flag through every
    layer.  Safe precisely because backends are bit-identical by
    contract — the selection can never change a result, only its cost.
    """
    if name is not None:
        os.environ[BACKEND_ENV] = name


def _cmd_run(args: argparse.Namespace) -> int:
    names: List[str] = (
        list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    )
    for name in names:
        if name not in EXPERIMENTS:
            print(f"error: unknown experiment {name!r}", file=sys.stderr)
            return 2

    mix_spec = None
    if "mix" in names:
        from repro.experiments.figure_mix import DEFAULT_MIX
        from repro.multicore import resolve_mix

        if args.experiment == "mix" and args.benchmarks:
            print(
                "error: the 'mix' experiment draws its benchmarks from "
                "--mix, not --benchmarks",
                file=sys.stderr,
            )
            return 2
        try:
            mix_spec = resolve_mix(args.mix or DEFAULT_MIX)
        except (KeyError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    elif args.mix is not None:
        print(
            "error: --mix only applies to the 'mix' experiment",
            file=sys.stderr,
        )
        return 2

    hosts = args.hosts if args.hosts is not None else os.environ.get("REPRO_HOSTS")
    if args.jobs == 1 and not hosts:
        # A single-job run stays in-process, outside the campaign layer
        # that enforces these flags: refuse them rather than ignore them.
        for flag in ("retries", "timeout", "stall_timeout", "max_failures"):
            if getattr(args, flag) is not None:
                print(
                    f"error: --{flag.replace('_', '-')} needs --jobs other "
                    f"than 1 or --hosts (a single-job run is in-process)",
                    file=sys.stderr,
                )
                return 2

    _apply_backend(args.backend)
    _apply_sanitize(args.sanitize)
    _apply_obs(args.obs)
    store = _resolve_store(args)
    store_mod.set_active_store(store)
    if store is not None:
        print(f"result store: {store.root} ({len(store)} checkpointed result(s))")
        if store.quarantined:
            print(
                f"warning: quarantined {store.quarantined} corrupt store "
                f"record(s) to {store.quarantine_path}; they will be re-run",
                file=sys.stderr,
            )
        if store.torn_truncated:
            print(
                f"note: truncated {store.torn_truncated} torn record "
                f"tail(s) left by an interrupted write; the affected "
                f"job(s) will be re-run"
            )
        for marker in store.progress_entries().values():
            done, total = marker.get("done", 0), marker.get("total", 0)
            if total:
                print(
                    f"  incomplete: {marker['workload']}@{marker['accesses']} "
                    f"reached {done}/{total} accesses "
                    f"({100.0 * done / total:.0f}%) before interruption"
                )

    failures = 0
    if args.jobs != 1 or hosts:
        from repro.sim import prewarm

        # One campaign per cell family: the standing experiment configs
        # cross the benchmark list; the mix experiment warms its solo
        # baselines (per prefetcher, mix members only) plus one mix cell
        # per prefetcher (a mix config is a single cell — see prewarm).
        campaigns = []
        if any(name != "mix" for name in names):
            campaigns.append({"benchmarks": args.benchmarks})
        if mix_spec is not None:
            from repro.multicore import mix_config

            campaigns.append({
                "configs": (
                    [SimulationConfig.for_prefetcher(p) for p in PREFETCHERS]
                    + [mix_config(mix_spec, prefetcher=p) for p in PREFETCHERS]
                ),
                "benchmarks": list(dict.fromkeys(mix_spec.benchmarks)),
            })
        for campaign in campaigns:
            started = time.time()
            report = prewarm(
                scale=args.scale,
                jobs=args.jobs,
                retries=2 if args.retries is None else args.retries,
                timeout=args.timeout,
                stall_timeout=args.stall_timeout,
                progress=_campaign_progress,
                hosts=hosts,
                max_failures=args.max_failures,
                **campaign,
            )
            recycled = (
                f", {report.recycled} worker(s) recycled" if report.recycled else ""
            )
            print(
                f"pre-warmed {report.executed} simulation(s) in "
                f"{time.time() - started:.1f}s with jobs={args.jobs} "
                f"({report.skipped} skipped, {report.retried} attempt(s) "
                f"retried{recycled})"
            )
            if report.per_host:
                shares = ", ".join(
                    f"{host}={count}" for host, count in sorted(report.per_host.items())
                )
                print(f"fleet: {shares}")
            if report.hosts_lost:
                print(
                    f"fleet losses: {report.hosts_lost} host(s) lost, "
                    f"{report.reassigned} job(s) reassigned"
                )
            health_line = report.store_health_line()
            if health_line:
                print(health_line)
            if report.trace_path:
                print(f"campaign trace: {report.trace_path}")
                print("  (inspect with: repro-tcp trace summarize)")
            if report.profile_dir:
                print(f"profiles: {report.profile_dir}")
            print()
            if report.interrupted:
                # A graceful SIGTERM/SIGINT: completed work is checkpointed;
                # resume with the same command to pick up where it stopped.
                print(report.summary(), file=sys.stderr)
                print(
                    "interrupted: campaign stopped by signal; completed results "
                    "were checkpointed — re-run with --resume to continue",
                    file=sys.stderr,
                )
                return 130
            if report.aborted is not None:
                print(report.summary(), file=sys.stderr)
                print(f"error: campaign aborted: {report.aborted}", file=sys.stderr)
                return 1
            if report.fleet_degraded is not None:
                # The campaign completed, but not on the fleet the user
                # asked for: report it under its taxonomy name and fail.
                print(
                    f"error: FleetDegraded: {report.fleet_degraded}",
                    file=sys.stderr,
                )
                failures += 1
            if not report.ok:
                print(report.summary(), file=sys.stderr)
                failures += report.failed

    for name in names:
        started = time.time()
        try:
            result = run_experiment(
                name,
                scale=args.scale,
                benchmarks=None if name == "mix" else args.benchmarks,
                mix=args.mix if name == "mix" else None,
            )
        except SimulationError as exc:
            print(
                f"error: experiment {name} failed with "
                f"{type(exc).__name__}: {exc}",
                file=sys.stderr,
            )
            failures += 1
            continue
        print(result.render())
        print(f"  ({time.time() - started:.1f}s at scale={args.scale.name.lower()})\n")

    if store is not None and store.degraded:
        # The campaign ran to completion on the in-memory fallback, but
        # results written after the degradation point were lost: report
        # it under its taxonomy name and fail the run.
        print(
            f"error: StoreDegraded: result store at {store.root} fell back "
            f"to in-memory-only ({store.degraded_reason}); "
            f"{store.lost_writes} result write(s) were not persisted and "
            f"will re-run on resume",
            file=sys.stderr,
        )
        failures += 1

    if failures:
        print(
            f"error: campaign finished with {failures} failure(s); "
            f"see the summary above",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_simulate_mix(args: argparse.Namespace) -> int:
    from repro.multicore import mix_config, resolve_mix

    if args.benchmark is not None:
        print(
            "error: pass either a benchmark or --mix, not both",
            file=sys.stderr,
        )
        return 2
    try:
        spec = resolve_mix(args.mix)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    config = mix_config(
        spec, prefetcher=args.prefetcher, shared_pht=args.shared_pht
    )
    result = simulate(spec.canonical, config, args.scale)
    solos = {
        name: simulate(
            name, SimulationConfig.for_prefetcher(args.prefetcher), args.scale
        )
        for name in dict.fromkeys(spec.benchmarks)
    }
    print(result.summary())
    for core, rel in zip(result.per_core, result.speedups(solos)):
        att = core.attribution
        print(
            f"  core {core.core_id} {core.workload:10s} "
            f"ipc {core.ipc:.3f} ({rel:.3f}x solo)  "
            f"L2 share {att.l2_occupancy_share:5.1%}  "
            f"bus stalls {att.bus_stall_cycles:,.0f}  "
            f"evicted-by-others {att.prefetches_evicted_by_others}"
        )
    print(
        f"weighted speedup {result.weighted_speedup(solos):.3f} "
        f"(max {result.cores}.0), harmonic-mean fairness "
        f"{result.hmean_fairness(solos):.3f}"
    )
    mode = obs_metrics.resolve_obs()
    if mode.metrics or mode.trace:
        print(f"observability artifacts: {store_mod.default_obs_dir()}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    _apply_backend(args.backend)
    _apply_sanitize(args.sanitize)
    _apply_obs(args.obs)
    if args.mix is not None:
        return _cmd_simulate_mix(args)
    if args.benchmark is None:
        print("error: pass a benchmark name or --mix", file=sys.stderr)
        return 2
    if args.shared_pht:
        print("error: --shared-pht requires --mix", file=sys.stderr)
        return 2
    base = simulate(args.benchmark, SimulationConfig.baseline(), args.scale)
    config = SimulationConfig.for_prefetcher(args.prefetcher)
    result = simulate(args.benchmark, config, args.scale)
    print(base.summary())
    print(result.summary())
    if args.prefetcher != "none":
        print(f"IPC improvement over baseline: {result.improvement_over(base):+.1f}%")
        breakdown = result.memory.breakdown_vs_original()
        print(
            "L2 access taxonomy: "
            + ", ".join(f"{key}={value:.1%}" for key, value in breakdown.items())
        )
    mode = obs_metrics.resolve_obs()
    if mode.metrics or mode.trace:
        print(f"observability artifacts: {store_mod.default_obs_dir()}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.target == "summarize":
        return _cmd_trace_summarize(args)
    if args.target not in SUITE:
        print(
            f"error: unknown benchmark {args.target!r}; choose from "
            + ", ".join(sorted(SUITE))
            + " (or 'summarize')",
            file=sys.stderr,
        )
        return 2
    from repro.workloads import generate, save_trace

    trace = generate(args.target, args.scale)
    output = args.output or f"{args.target}-{args.scale.name.lower()}.npz"
    path = save_trace(trace, output)
    print(f"wrote {path} ({trace.describe()})")
    return 0


def _cmd_trace_summarize(args: argparse.Namespace) -> int:
    from repro.obs import trace as obs_trace

    path = args.path
    if path is None:
        obs_dir = store_mod.default_obs_dir()
        candidates = sorted(
            obs_dir.glob("trace-*.jsonl"),
            key=lambda p: p.stat().st_mtime,
        )
        if not candidates:
            print(
                f"error: no trace files under {obs_dir}; run a campaign "
                f"with --obs trace (or REPRO_OBS=trace) first, or pass "
                f"a path",
                file=sys.stderr,
            )
            return 2
        path = candidates[-1]
    try:
        events = obs_trace.load_events(path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"file:  {path}")
    print(obs_trace.render_summary(obs_trace.summarize(events, top=args.top)))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (console script ``repro-tcp``).

    Classified campaign failures exit with a readable one-line error
    (code 1), never an unhandled traceback.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SimulationError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
