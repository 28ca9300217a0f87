"""Multi-host campaign fabric: shard a sweep across hosts, survive them.

Paper-scale regenerations (26 benchmarks x many TCP/DBCP configs) want
more than one machine.  This module treats *hosts* the way the
:mod:`repro.sim.resilience` pool treats worker processes: a coordinator
partitions the campaign's jobs by workload affinity across a set of
host agents, tracks per-host liveness through the existing heartbeat
pipeline, and when a host dies, stalls, or partitions, reassigns that
host's undispatched and in-flight jobs to the survivors with the same
attempt-numbering discipline the pool uses for its per-attempt
fallback.  Losing any host loses no results.

Pieces:

* **Transports.**  :class:`LocalTransport` launches agents as local
  subprocesses (tests and CI simulate a fleet on one machine);
  :class:`SSHTransport` remote-execs ``python -m repro.sim.fabric
  --agent`` over ``ssh -o BatchMode=yes``.  Either way the wire is
  newline-delimited JSON over the agent's stdin/stdout, mirroring the
  pool workers' tagged-tuple framing: coordinator→agent ``["job", key,
  payload, attempt]`` / ``["slow", seconds]`` / ``["stop"]``;
  agent→coordinator ``["ready", meta]`` / ``["hb", key, done, total,
  sim_time]`` / ``["ok", key, result]`` / ``["err", key, kind, msg]``
  / ``["sp", span_event]``.
* **Agents.**  One agent process per host slot
  (:func:`run_agent`).  An agent runs jobs in-process with
  ``simulate()``, streams rate-limited heartbeats, forwards span
  events when ``REPRO_OBS`` tracing is on, and — crucially — appends
  every finished result to its *own* store shard
  (``shard-<host>.jsonl``) before reporting it, so a result survives
  even if the coordinator dies the next instant.
* **Shards.**  Per-host shards are folded into the main log by
  :func:`repro.sim.store.merge_shards` through the PR 6 locking/CRC
  machinery, deduped by config fingerprint.  ``prewarm`` merges
  before its pending scan (fleet-wide resume after a coordinator
  crash) and again after the run.
* **Fault kinds.**  ``host-lost`` / ``host-partition`` / ``host-slow``
  (:data:`~repro.sim.resilience.HOST_FAULT_KINDS`) are injected at the
  coordinator, deterministically keyed by ``(host, dispatch)``, so
  fleet recovery is testable exactly like worker recovery.
* **Degradation.**  When every host is unreachable (or none launch),
  the campaign does not die: the remaining jobs run through the local
  supervisor, the report carries
  :class:`~repro.sim.resilience.FleetDegraded`'s name, and the CLI
  exits nonzero.

Remote caveats: ``SSHTransport`` assumes the repository is importable
by ``REPRO_FABRIC_PYTHON`` (default ``python3``) on the remote host
and that shard merging sees the store directory via a shared
filesystem.  Only prefetchers in the standard registry resolve by name
on a remote agent; dynamically registered factories (e.g. Figure 13
sweep points) exist only in the coordinator process.
"""

from __future__ import annotations

import dataclasses
import json
import os
import queue
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    IO,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans
from repro.sim.config import SimulationConfig
from repro.sim.resilience import (
    CampaignReport,
    CorruptResult,
    HEARTBEAT_MIN_INTERVAL,
    HostLost,
    HostPartition,
    JobFailure,
    JobTimeout,
    RetryPolicy,
    SimulationError,
    _Item,
    _pop_ready,
    is_retryable,
    maybe_inject_host_fault,
    set_heartbeat_sink,
    shutdown_requested,
)
from repro.sim.results import SimResult, validate_result

__all__ = [
    "FABRIC_PYTHON_ENV",
    "FLEET_STALL_DEFAULT",
    "HOSTS_ENV",
    "HostSpec",
    "LocalTransport",
    "SSHTransport",
    "Transport",
    "config_from_wire",
    "config_to_wire",
    "fleet_status",
    "job_from_wire",
    "job_to_wire",
    "parse_hosts",
    "run_agent",
    "run_fleet",
]

#: default host list for ``--hosts`` (same grammar), e.g.
#: ``local:2`` or ``ssh:node-a:4,ssh:node-b:4``.
HOSTS_ENV = "REPRO_HOSTS"

#: interpreter used on the far side of an SSH transport.
FABRIC_PYTHON_ENV = "REPRO_FABRIC_PYTHON"

#: a host with a job in flight that has sent *nothing* (heartbeat,
#: span, result) for this long is declared partitioned and its work is
#: reassigned.  ``RetryPolicy.stall_timeout`` overrides; the default is
#: deliberately generous because trace generation on a cold agent emits
#: no heartbeats.  A host whose agent process actually dies is detected
#: immediately via stream EOF, not via this window.
FLEET_STALL_DEFAULT = 300.0

#: how long an injected ``host-slow`` fault stretches a dispatch.
_SLOW_STRETCH = 1.0

#: (workload name, config, accesses) — the same shape parallel.py uses.
FleetJob = Tuple[str, SimulationConfig, int]


# ---------------------------------------------------------------------------
# Host specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HostSpec:
    """One host slot: a transport kind, an address, and a unique id."""

    #: ``local`` or ``ssh``.
    kind: str
    #: remote address for ``ssh`` (empty for ``local``).
    address: str
    #: unique agent/shard identity, e.g. ``local-1`` or ``node-a-2``.
    id: str


def parse_hosts(spec: Optional[str]) -> List[HostSpec]:
    """Parse a host list: ``entry[,entry...]`` (commas or whitespace).

    Each entry is ``local[:N]`` (N local agents, default 1) or
    ``[ssh:]hostname[:N]`` (N agents on that host over SSH).  Agent ids
    are ``<name>-<i>`` when N > 1, the bare name otherwise — the id is
    also the shard name (``shard-<id>.jsonl``), so it must be unique.
    """
    if spec is None:
        spec = os.environ.get(HOSTS_ENV, "")
    entries = [e for chunk in spec.split(",") for e in chunk.split()]
    hosts: List[HostSpec] = []
    seen: set = set()
    for entry in entries:
        entry = entry.strip()
        if not entry:
            continue
        parts = entry.split(":")
        if parts[0] == "local":
            kind, name, rest = "local", "local", parts[1:]
        elif parts[0] == "ssh":
            if len(parts) < 2 or not parts[1]:
                raise ValueError(f"host entry {entry!r} names no host")
            kind, name, rest = "ssh", parts[1], parts[2:]
        else:
            kind, name, rest = "ssh", parts[0], parts[1:]
        if len(rest) > 1:
            raise ValueError(f"host entry {entry!r} has too many ':' fields")
        count = 1
        if rest:
            try:
                count = int(rest[0])
            except ValueError:
                raise ValueError(
                    f"host entry {entry!r}: slot count {rest[0]!r} is not an integer"
                ) from None
            if count < 1:
                raise ValueError(f"host entry {entry!r}: slot count must be >= 1")
        address = "" if kind == "local" else name
        for i in range(1, count + 1):
            host_id = name if count == 1 else f"{name}-{i}"
            if host_id in seen:
                raise ValueError(f"duplicate host id {host_id!r} in {spec!r}")
            seen.add(host_id)
            hosts.append(HostSpec(kind=kind, address=address, id=host_id))
    return hosts


# ---------------------------------------------------------------------------
# Wire codec
# ---------------------------------------------------------------------------
#
# Jobs cross the wire as plain JSON.  SimulationConfig is a frozen
# dataclass tree of scalars, so dataclasses.asdict round-trips it
# exactly (CacheGeometry's derived attributes are computed in
# __post_init__, not stored), and the reconstructed config hashes to
# the same store fingerprint as the original.


def config_to_wire(config: SimulationConfig) -> Dict[str, Any]:
    """JSON-safe encoding of a configuration (registry prefetchers only)."""
    return {
        "prefetcher": config.prefetcher,
        "core": dataclasses.asdict(config.core),
        "hierarchy": dataclasses.asdict(config.hierarchy),
        "label": config.label,
        "sanitize": config.sanitize,
        "backend": config.backend,
        "cores": config.cores,
        "mix": list(config.mix) if config.mix is not None else None,
        "shared_pht": config.shared_pht,
    }


def config_from_wire(payload: Dict[str, Any]) -> SimulationConfig:
    """Rebuild a configuration from :func:`config_to_wire` output."""
    from repro.cpu import CoreParams
    from repro.memory import HierarchyParams
    from repro.memory.address import CacheGeometry

    hierarchy = dict(payload["hierarchy"])
    for level in ("l1d", "l1i", "l2"):
        hierarchy[level] = CacheGeometry(**hierarchy[level])
    return SimulationConfig(
        prefetcher=str(payload["prefetcher"]),
        core=CoreParams(**payload["core"]),
        hierarchy=HierarchyParams(**hierarchy),
        label=payload.get("label"),
        sanitize=payload.get("sanitize"),
        backend=payload.get("backend"),
        cores=int(payload.get("cores", 1)),
        mix=tuple(payload["mix"]) if payload.get("mix") is not None else None,
        shared_pht=bool(payload.get("shared_pht", False)),
    )


def job_to_wire(job: FleetJob) -> Dict[str, Any]:
    workload, config, accesses = job
    return {
        "workload": workload,
        "accesses": int(accesses),
        "config": config_to_wire(config),
    }


def job_from_wire(payload: Dict[str, Any]) -> FleetJob:
    return (
        str(payload["workload"]),
        config_from_wire(payload["config"]),
        int(payload["accesses"]),
    )


# ---------------------------------------------------------------------------
# Transports
# ---------------------------------------------------------------------------


def _agent_argv(host: HostSpec, store_dir: Optional[str]) -> List[str]:
    argv = ["-m", "repro.sim.fabric", "--agent", "--host-id", host.id]
    if store_dir:
        argv += ["--store-dir", str(store_dir)]
    return argv


class Transport:
    """How agent processes are launched for one kind of host."""

    kind = "base"

    def command(self, host: HostSpec, store_dir: Optional[str]) -> List[str]:
        raise NotImplementedError

    def launch(
        self, host: HostSpec, store_dir: Optional[str]
    ) -> subprocess.Popen:
        """Start one agent; stdout/stdin are the JSONL wire."""
        return subprocess.Popen(
            self.command(host, store_dir),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=None,  # agent diagnostics interleave with the parent's
            text=True,
            bufsize=1,
        )


class LocalTransport(Transport):
    """Agents as local subprocesses of this interpreter.

    Used by tests and CI to exercise the whole fleet path — dispatch,
    heartbeats, shard writes, loss recovery, merging — on one machine:
    each "host" is simply an agent process that can be killed.
    """

    kind = "local"

    def command(self, host: HostSpec, store_dir: Optional[str]) -> List[str]:
        return [sys.executable] + _agent_argv(host, store_dir)


#: environment the coordinator forwards to remote agents (everything a
#: simulation's semantics or observability can depend on).
_SSH_FORWARD_ENV = (
    "REPRO_SANITIZE",
    "REPRO_BACKEND",
    "REPRO_OBS",
    "REPRO_TRACE_CACHE",
    "REPRO_STORE_LOCK_TIMEOUT",
)


class SSHTransport(Transport):
    """Agents over ``ssh -o BatchMode=yes`` (key-based auth only).

    The remote interpreter (``REPRO_FABRIC_PYTHON``, default
    ``python3``) must be able to ``import repro``; shard merging
    assumes the store directory is on a filesystem both sides see.
    """

    kind = "ssh"

    def __init__(self, python: Optional[str] = None) -> None:
        self.python = python or os.environ.get(FABRIC_PYTHON_ENV) or "python3"

    def command(self, host: HostSpec, store_dir: Optional[str]) -> List[str]:
        forwarded = [
            f"{name}={os.environ[name]}"
            for name in _SSH_FORWARD_ENV
            if os.environ.get(name)
        ]
        remote = ["env"] + forwarded if forwarded else []
        remote += [self.python] + _agent_argv(host, store_dir)
        return ["ssh", "-o", "BatchMode=yes", host.address] + remote


def transport_for(host: HostSpec) -> Transport:
    return LocalTransport() if host.kind == "local" else SSHTransport()


# ---------------------------------------------------------------------------
# The agent
# ---------------------------------------------------------------------------


def _agent_heartbeat(
    send: Callable[[List[Any]], None], job_key: str
) -> Callable[[int, int, float], None]:
    """A rate-limited heartbeat sink writing to the protocol stream."""
    last_sent = [0.0]

    def beat(done: int, total: int, sim_time: float) -> None:
        now = time.monotonic()
        if now - last_sent[0] < HEARTBEAT_MIN_INTERVAL:
            return
        last_sent[0] = now
        send(["hb", job_key, int(done), int(total), float(sim_time)])

    return beat


def run_agent(host_id: str, store_dir: Optional[str]) -> int:
    """Agent main loop: read jobs from stdin, answer on stdout.

    Results are appended to this host's own shard
    (``shard-<host_id>.jsonl``) *before* the ``ok`` message is sent, so
    a coordinator crash after the send loses nothing — the shard merge
    recovers the result.  The main store is explicitly silenced: two
    agents writing the main log through a non-shared lock would race.
    stdout is reserved for the protocol; stray prints are re-routed to
    stderr.
    """
    from repro.sim import store as store_mod
    from repro.sim.runner import simulate
    from repro.sim.store import ResultStore

    out = sys.stdout
    sys.stdout = sys.stderr  # protect the protocol stream
    store_mod.set_active_store(None)
    shard: Optional[ResultStore] = None
    if store_dir:
        try:
            shard = ResultStore(store_dir, results_name=f"shard-{host_id}.jsonl")
        except OSError as exc:
            print(
                f"fabric agent {host_id}: cannot open shard in {store_dir}: {exc}",
                file=sys.stderr,
            )

    def send(message: List[Any]) -> None:
        try:
            out.write(json.dumps(message, separators=(",", ":")) + "\n")
            out.flush()
        except (BrokenPipeError, OSError, ValueError):
            # Coordinator gone: anything already computed is safe in the
            # shard; there is nobody left to talk to.
            raise SystemExit(0)

    if obs_metrics.resolve_obs().trace:
        obs_spans.set_span_sink(lambda event: send(["sp", event]))

    send(["ready", {"pid": os.getpid(), "host": host_id}])
    pending_slow = 0.0
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        try:
            message = json.loads(line)
        except ValueError:
            continue  # garbage on the wire; the coordinator watches liveness
        if not isinstance(message, list) or not message:
            continue
        tag = message[0]
        if tag == "stop":
            break
        if tag == "slow" and len(message) == 2:
            try:
                pending_slow = float(message[1])
            except (TypeError, ValueError):
                pending_slow = 0.0
            continue
        if tag != "job" or len(message) != 4:
            continue
        _, job_key, payload, attempt = message
        try:
            workload, config, accesses = job_from_wire(payload)
        except Exception as exc:
            send(["err", job_key, "SimulationError", f"bad job payload: {exc}"])
            continue
        if pending_slow > 0:
            # Injected host-slow: stretch turnaround, keep proving
            # liveness so the watchdog never mistakes slow for dead.
            until = time.monotonic() + pending_slow
            pending_slow = 0.0
            while time.monotonic() < until:
                send(["hb", job_key, 0, 0, 0.0])
                time.sleep(0.05)
        set_heartbeat_sink(_agent_heartbeat(send, job_key))
        try:
            with obs_spans.span(
                "host-job", key=job_key, host=host_id, attempt=attempt
            ):
                result = simulate(workload, config, accesses, use_cache=False)
            validate_result(result)
            if shard is not None:
                shard.put(workload, accesses, config, result)
            send(["ok", job_key, result.to_dict()])
        except SimulationError as exc:
            send(["err", job_key, type(exc).__name__, str(exc)])
        except BaseException as exc:  # classify unexpected agent bugs too
            send(["err", job_key, "SimulationError", f"{type(exc).__name__}: {exc}"])
        finally:
            set_heartbeat_sink(None)
    return 0


# ---------------------------------------------------------------------------
# The coordinator
# ---------------------------------------------------------------------------


@dataclass
class _FleetHost:
    spec: HostSpec
    proc: subprocess.Popen
    stdin: IO[str]
    #: this host's affinity-partitioned job queue.
    queue: List[_Item] = field(default_factory=list)
    #: in-flight job as (job, key, attempt), or None when idle.
    current: Optional[Tuple[Any, str, int]] = None
    deadline: Optional[float] = None
    last_beat: float = 0.0
    #: injected partition: the wire eats everything this host says.
    muted: bool = False
    dispatches: int = 0
    #: forwarded span begins not yet matched by an end (see _PoolWorker).
    open_spans: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    @property
    def id(self) -> str:
        return self.spec.id


def _reader(
    host_id: str, stream: IO[str], inbox: "queue.Queue[Tuple[str, Any]]"
) -> None:
    """Per-agent reader thread: parsed messages (or EOF None) → inbox."""
    try:
        for line in stream:
            line = line.strip()
            if not line:
                continue
            try:
                message = json.loads(line)
            except ValueError:
                continue
            if isinstance(message, list) and message:
                inbox.put((host_id, message))
    except (OSError, ValueError):
        pass
    finally:
        inbox.put((host_id, None))


def _count(name: str, delta: int = 1) -> None:
    registry = obs_metrics.active_registry()
    if registry is not None and delta:
        registry.counter(name).inc(delta)


def run_fleet(
    jobs: Sequence[FleetJob],
    *,
    hosts: Sequence[HostSpec],
    key: Callable[[FleetJob], str],
    store_root: Optional[Union[str, Path]] = None,
    policy: Optional[RetryPolicy] = None,
    group: Optional[Callable[[FleetJob], str]] = None,
    progress: Optional[Callable[[int, int, str, str], None]] = None,
    heartbeat: Optional[Callable[[str, int, int, float], None]] = None,
    span: Optional[Callable[[Dict[str, Any]], None]] = None,
    fallback: Optional[Callable[[List[FleetJob], int], CampaignReport]] = None,
) -> CampaignReport:
    """Supervise ``jobs`` across ``hosts``; never raises.

    The host-level mirror of :func:`repro.sim.resilience.run_supervised`:
    jobs are partitioned by affinity ``group`` (default: the workload
    name) across hosts with greedy least-loaded placement, each host
    runs one job at a time (one agent per host *slot*), idle hosts
    steal from the deepest surviving queue, and per-host liveness is
    tracked through the same heartbeat pipeline worker processes use.

    Host loss (agent EOF / injected ``host-lost``), partition (message
    silence past the stall window / injected ``host-partition``), and
    per-job wall-clock overruns all reclaim the host's work: the
    in-flight job is requeued at ``attempt + 1`` — the pool's
    attempt-numbering discipline, so retry budgets and backoff hashes
    match a single-host run — and undispatched jobs redistribute to
    survivors at their original attempt numbers.  When *every* host is
    gone with work remaining, the leftover jobs run through
    ``fallback(jobs, settled)`` (the local supervisor) and the report
    carries ``fleet_degraded``.

    ``progress`` / ``heartbeat`` / ``span`` match ``run_supervised``;
    forwarded span events additionally carry a ``host`` tag.
    """
    policy = policy or RetryPolicy()
    jobs = list(jobs)
    report = CampaignReport()
    if not jobs:
        return report
    total = len(jobs)
    group_of = group or (lambda job: job[0])
    stall_window = (
        policy.stall_timeout if policy.stall_timeout is not None else FLEET_STALL_DEFAULT
    )
    store_dir = str(store_root) if store_root is not None else None

    inbox: "queue.Queue[Tuple[str, Any]]" = queue.Queue()
    alive: Dict[str, _FleetHost] = {}
    #: reassigned / retried / stolen work any idle host may claim.
    spill: List[_Item] = []

    # -- launch -------------------------------------------------------------
    for spec in hosts:
        if spec.id in alive:
            continue
        try:
            proc = transport_for(spec).launch(spec, store_dir)
        except OSError as exc:
            print(
                f"fabric: host {spec.id} failed to launch: {exc}", file=sys.stderr
            )
            continue
        host = _FleetHost(spec=spec, proc=proc, stdin=proc.stdin)
        host.last_beat = time.monotonic()
        alive[spec.id] = host
        threading.Thread(
            target=_reader,
            args=(spec.id, proc.stdout, inbox),
            name=f"fabric-reader-{spec.id}",
            daemon=True,
        ).start()

    # -- partition: whole affinity groups, greedy least-loaded --------------
    groups: Dict[str, List[_Item]] = {}
    for job in jobs:
        groups.setdefault(group_of(job), []).append((job, key(job), 1, 0.0))
    if alive:
        ring = list(alive.values())
        for items in groups.values():  # caller pre-orders longest-first
            target = min(ring, key=lambda h: len(h.queue))
            target.queue.extend(items)
    else:
        for items in groups.values():
            spill.extend(items)

    # -- helpers ------------------------------------------------------------

    def _send(host: _FleetHost, message: List[Any]) -> bool:
        try:
            host.stdin.write(json.dumps(message, separators=(",", ":")) + "\n")
            host.stdin.flush()
            return True
        except (BrokenPipeError, OSError, ValueError):
            return False

    def _take_next(host: _FleetHost) -> Optional[_Item]:
        now = time.monotonic()
        item = _pop_ready(host.queue, now)
        if item is None:
            item = _pop_ready(spill, now)
        if item is None:
            # Tail rebalancing: steal from the deepest other queue so a
            # slow (or slow-faulted) host never serialises the finish.
            victim = max(
                (h for h in alive.values() if h is not host and h.queue),
                key=lambda h: len(h.queue),
                default=None,
            )
            if victim is not None:
                item = _pop_ready(victim.queue, now)
        return item

    def _dispatch(host: _FleetHost) -> bool:
        item = _take_next(host)
        if item is None:
            return False
        job, job_key, attempt, _ = item
        host.dispatches += 1
        fault = maybe_inject_host_fault(host.id, host.dispatches)
        if fault == "host-slow":
            _send(host, ["slow", _SLOW_STRETCH])
        if not _send(host, ["job", job_key, job_to_wire(job), attempt]):
            # Dead before we noticed: the job was never attempted; the
            # EOF sentinel path will reclaim the host.
            spill.insert(0, item)
            return False
        now = time.monotonic()
        host.current = (job, job_key, attempt)
        host.deadline = now + policy.timeout if policy.timeout else None
        host.last_beat = now
        if fault == "host-lost":
            host.proc.kill()
        elif fault == "host-partition":
            host.muted = True
        return True

    def _requeue_or_fail(
        job: Any, job_key: str, attempt: int, error: SimulationError
    ) -> bool:
        """Charge one failed attempt; True when the job was requeued."""
        if attempt <= policy.retries and is_retryable(error):
            report.retried += 1
            spill.append(
                (job, job_key, attempt + 1,
                 time.monotonic() + policy.backoff(job_key, attempt + 1))
            )
            return True
        report.failures.append(
            JobFailure(job_key, type(error).__name__, str(error), attempt)
        )
        if progress is not None:
            progress(report.executed + report.failed, total, job_key, "FAILED")
        return False

    def _abort_spans(host: _FleetHost) -> None:
        if span is not None:
            for begin in host.open_spans.values():
                span(obs_spans.synthesize_abort(begin))
        host.open_spans.clear()

    def _stop_agent(host: _FleetHost, grace: float = 2.0) -> None:
        _send(host, ["stop"])
        try:
            host.stdin.close()
        except OSError:
            pass
        try:
            host.proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            host.proc.terminate()
            try:
                host.proc.wait(timeout=grace)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck agent
                host.proc.kill()
                host.proc.wait()

    def _lose(host: _FleetHost, error: SimulationError) -> None:
        """Reclaim one dead/partitioned host: reassign all its work."""
        del alive[host.id]
        report.hosts_lost += 1
        _count("fleet.hosts_lost")
        _abort_spans(host)
        try:
            host.proc.kill()
        except OSError:
            pass
        try:
            host.stdin.close()
        except OSError:
            pass
        host.proc.wait()
        if host.current is not None:
            job, job_key, attempt = host.current
            host.current = None
            if _requeue_or_fail(job, job_key, attempt, error):
                report.reassigned += 1
                _count("fleet.reassigned")
        if host.queue:
            report.reassigned += len(host.queue)
            _count("fleet.reassigned", len(host.queue))
            spill.extend(host.queue)
            host.queue = []

    def _complete(host: _FleetHost, job_key: str, payload: Any) -> None:
        if host.current is None or host.current[1] != job_key:
            return  # stale answer for a job already reassigned elsewhere
        job, _, attempt = host.current
        try:
            result = SimResult.from_dict(payload)
            validate_result(result)
        except Exception as exc:
            host.current = None
            host.deadline = None
            _requeue_or_fail(job, job_key, attempt, CorruptResult(f"{job_key}: {exc}"))
            _dispatch(host)
            return
        host.current = None
        host.deadline = None
        report.completed[job_key] = result
        report.per_host[host.id] = report.per_host.get(host.id, 0) + 1
        _count(f"fleet.host.{host.id}.completed")
        if progress is not None:
            progress(report.executed + report.failed, total, job_key, "ok")
        _dispatch(host)

    def _fail(host: _FleetHost, job_key: str, kind: str, message: str) -> None:
        if host.current is None or host.current[1] != job_key:
            return
        from repro.sim.resilience import _rebuild_error

        job, _, attempt = host.current
        host.current = None
        host.deadline = None
        _requeue_or_fail(job, job_key, attempt, _rebuild_error(kind, message))
        _dispatch(host)

    def _work_remaining() -> bool:
        return bool(
            spill
            or any(h.queue for h in alive.values())
            or any(h.current is not None for h in alive.values())
        )

    # -- main loop ----------------------------------------------------------
    try:
        for host in list(alive.values()):
            _dispatch(host)

        while alive and _work_remaining():
            if shutdown_requested():
                report.interrupted = True
                break
            if (
                policy.max_failures is not None
                and report.failed >= policy.max_failures
            ):
                report.aborted = (
                    f"stopped after {report.failed} permanent failure(s) "
                    f"(max-failures={policy.max_failures})"
                )
                break
            now = time.monotonic()
            for host in list(alive.values()):
                if host.current is None:
                    _dispatch(host)
                    continue
                if host.deadline is not None and now > host.deadline:
                    # No way to cancel a remote job short of restarting
                    # the agent: a single-slot host *is* its attempt.
                    _lose(
                        host,
                        JobTimeout(
                            f"host {host.id}: attempt exceeded "
                            f"{policy.timeout:.3g}s (attempt {host.current[2]})"
                        ),
                    )
                elif now - host.last_beat > stall_window:
                    _lose(
                        host,
                        HostPartition(
                            f"host {host.id}: no message for "
                            f"{stall_window:.3g}s with a job in flight "
                            f"(attempt {host.current[2]})"
                        ),
                    )
            try:
                host_id, message = inbox.get(timeout=0.2)
            except queue.Empty:
                continue
            while True:
                host = alive.get(host_id)
                if host is not None:
                    if message is None:
                        code = host.proc.poll()
                        _lose(
                            host,
                            HostLost(
                                f"host {host.id}: agent exited (code {code})"
                            ),
                        )
                    elif not host.muted:
                        host.last_beat = time.monotonic()
                        tag = message[0]
                        if tag == "hb" and len(message) == 5:
                            if heartbeat is not None and host.current is not None:
                                heartbeat(
                                    message[1], message[2], message[3], message[4]
                                )
                        elif tag == "sp" and len(message) == 2:
                            event = dict(message[1])
                            event.setdefault("host", host.id)
                            if event.get("ev") == "begin":
                                host.open_spans[event["span"]] = event
                            elif event.get("ev") == "end":
                                host.open_spans.pop(event.get("span"), None)
                            if span is not None:
                                span(event)
                        elif tag == "ok" and len(message) == 3:
                            _complete(host, message[1], message[2])
                        elif tag == "err" and len(message) == 4:
                            _fail(host, message[1], message[2], message[3])
                        # "ready" and anything else: liveness only.
                try:
                    host_id, message = inbox.get_nowait()
                except queue.Empty:
                    break
    finally:
        for host in list(alive.values()):
            _abort_spans(host)
            _stop_agent(host)

    # -- degradation / leftovers -------------------------------------------
    leftover: List[_Item] = list(spill)
    for host in alive.values():
        leftover.extend(host.queue)
    if leftover and not report.interrupted and report.aborted is None:
        reason = (
            f"all {len(list(hosts))} host(s) unreachable or lost; "
            f"{len(leftover)} job(s) re-run on the local host"
            if report.hosts_lost or not alive
            else f"{len(leftover)} job(s) left unscheduled"
        )
        if fallback is not None:
            report.fleet_degraded = reason
            _count("fleet.degraded")
            settled = report.executed + report.failed
            sub = fallback([item[0] for item in leftover], settled)
            report.merge(sub)
        else:
            for job, job_key, attempt, _ in leftover:
                report.failures.append(
                    JobFailure(
                        job_key,
                        "HostLost",
                        f"no surviving host to run {job_key} and no local fallback",
                        attempt,
                    )
                )
            report.fleet_degraded = reason
    return report


# ---------------------------------------------------------------------------
# Fleet status (CLI helper)
# ---------------------------------------------------------------------------


def fleet_status(store_root: Union[str, Path]) -> Dict[str, Any]:
    """Shard inventory of a store directory, for ``repro-tcp fleet``."""
    from repro.sim.store import ResultStore, list_shards

    store = ResultStore(store_root)
    shards = []
    for path in list_shards(store):
        shard = ResultStore(store.root, results_name=path.name)
        info = shard.verify()
        shards.append(
            {
                "host": path.stem[len("shard-"):],
                "path": str(path),
                "records": info["records"],
                "live": info["live"],
                "bad": len(info["bad"]),
            }
        )
    main = store.verify()
    return {
        "root": str(store.root),
        "main_records": main["records"],
        "main_live": main["live"],
        "shards": shards,
    }


# ---------------------------------------------------------------------------
# CLI entry: python -m repro.sim.fabric --agent ...
# ---------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.sim.fabric",
        description="campaign fabric agent (launched by the fleet coordinator)",
    )
    parser.add_argument("--agent", action="store_true", help="run as a host agent")
    parser.add_argument("--host-id", default="local", help="unique agent identity")
    parser.add_argument(
        "--store-dir", default=None, help="store root for this host's shard"
    )
    args = parser.parse_args(argv)
    if not args.agent:
        parser.error("only agent mode is supported (--agent)")
    return run_agent(args.host_id, args.store_dir)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
