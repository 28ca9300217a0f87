"""Worker supervision for fault-tolerant simulation campaigns.

A full regeneration of the paper's evaluation is ~150 independent
(workload, configuration) simulations.  At that scale, "one worker
died" must mean "one job retries", not "the whole pool is lost" — the
failure mode real SPEC-campaign infrastructure is built around.

This module provides the campaign resilience primitives:

* a structured error taxonomy (:class:`SimulationError`,
  :class:`WorkerCrash`, :class:`JobTimeout`, :class:`CorruptResult`)
  so every failure is classified, never a bare traceback;
* :func:`run_supervised` — a supervisor over a *warm pool* of
  long-lived workers draining a job queue: interpreter spawn, imports,
  and each worker's in-process trace cache are amortised across jobs,
  and jobs sharing an affinity ``group`` (e.g. one benchmark's trace)
  stay on the same worker.  A dead worker is recycled and only its
  in-flight job is charged an attempt; per-job timeouts and a
  heartbeat stall watchdog kill stuck attempts, and failed attempts
  go back into the queue with deterministic exponential backoff +
  jitter.  Where no start method exists (or ``in_process=True``) the
  jobs run serially in this process instead;
* :class:`CampaignReport` — successes and failures counted separately,
  with a human-readable failure summary;
* a deterministic fault-injection hook (``REPRO_FAULT_RATE`` /
  ``REPRO_FAULT_KIND`` or :func:`set_fault_injector`) that the tests
  use to prove every failure path actually recovers;
* platform probes: :func:`supervision_context` falls back
  ``fork`` → ``spawn`` → in-process, and :func:`default_workers`
  survives platforms where ``multiprocessing.cpu_count()`` raises.

Everything is deterministic: whether attempt *k* of job *j* faults, and
how long its backoff sleeps, derive from SHA-256 of ``(job key,
attempt)`` — two runs of a faulty campaign fail and recover
identically.
"""

from __future__ import annotations

import gc
import hashlib
import multiprocessing
import multiprocessing.connection
import os
import time
from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.obs import metrics as obs_metrics
from repro.obs import profile as obs_profile
from repro.obs import spans as obs_spans

__all__ = [
    "CampaignInterrupted",
    "CampaignReport",
    "CorruptResult",
    "FleetDegraded",
    "HOST_FAULT_KINDS",
    "HostLost",
    "HostPartition",
    "IO_FAULT_KINDS",
    "InvariantViolation",
    "JobFailure",
    "JobTimeout",
    "RetryPolicy",
    "SimulationError",
    "StallTimeout",
    "StoreDegraded",
    "WorkerCrash",
    "default_workers",
    "emit_heartbeat",
    "graceful_shutdown",
    "heartbeat_active",
    "is_retryable",
    "maybe_inject_fault",
    "maybe_inject_host_fault",
    "maybe_inject_io_fault",
    "request_shutdown",
    "run_supervised",
    "set_fault_injector",
    "set_heartbeat_sink",
    "set_host_fault_injector",
    "set_io_fault_injector",
    "shutdown_requested",
    "shutdown_watch_active",
    "supervision_context",
]


# ---------------------------------------------------------------------------
# Error taxonomy
# ---------------------------------------------------------------------------


class SimulationError(RuntimeError):
    """Base class for classified campaign failures."""


class WorkerCrash(SimulationError):
    """A worker process died without reporting a result."""


class JobTimeout(SimulationError):
    """A job exceeded its per-attempt time budget."""


class StallTimeout(JobTimeout):
    """A job stopped emitting heartbeats for longer than the stall window.

    Distinct from :class:`JobTimeout`: a slow-but-progressing job keeps
    heartbeating and is left alone; a stalled one is killed even when no
    wall-clock budget is set.
    """


class CorruptResult(SimulationError):
    """A result (from a worker or the on-disk store) failed validation."""


class StoreDegraded(SimulationError):
    """The persistent result store fell back to in-memory-only operation.

    Raised nowhere in the hot path — the store *never* kills a campaign
    over I/O trouble.  After bounded write retries fail persistently
    (ENOSPC, EIO, an unacquirable lock), the store flips its
    ``degraded`` flag, keeps serving and accepting results in memory,
    and the campaign runs to completion.  This class exists for the
    *reporting* side: the CLI surfaces the degradation under this name
    and exits nonzero, because results produced after the degradation
    point were never persisted.
    """


class HostLost(WorkerCrash):
    """A fleet host (its agent process or transport) died mid-campaign.

    Subclasses :class:`WorkerCrash` because the recovery story is the
    same — the in-flight job is charged one attempt and reassigned —
    just one supervision level up: a host is to the fleet coordinator
    what a worker process is to the pool supervisor.
    """


class HostPartition(StallTimeout):
    """A fleet host stopped responding (heartbeat-silent) but never died.

    The network-partition analogue of a worker stall: the transport is
    nominally alive, yet nothing — heartbeats, results, errors — has
    arrived within the stall window.  The coordinator treats the host
    as lost (its jobs are reassigned) because an unreachable host and a
    dead one are indistinguishable from this side of the wire.
    """


class FleetDegraded(SimulationError):
    """Every fleet host became unreachable; the campaign fell back to
    single-host (local, in-tree supervisor) execution.

    Like :class:`StoreDegraded`, this is a *reporting* class: the
    campaign still completes — locally — but the CLI surfaces the
    degradation under this name and exits nonzero, because the
    requested fleet never materialised or was entirely lost.
    """


class CampaignInterrupted(SimulationError):
    """The campaign was stopped by SIGTERM/SIGINT before it finished.

    Raised from in-process supervision paths when a graceful-shutdown
    request arrives mid-run; multiprocess supervisors instead stop
    dispatching, reap their workers, and return a partial report with
    ``interrupted`` set.  Either way no completed result is lost.
    """


class InvariantViolation(SimulationError):
    """The simulator's internal state broke a runtime invariant.

    Raised by :mod:`repro.sim.sanitizer` with the failing invariant's
    name and a snapshot of the relevant state.  Deterministic for a
    given (workload, config), so the supervisor treats it as
    NON-RETRYABLE: re-running the same broken code cannot help, and
    retrying would only mask a silently-wrong simulator.
    """

    def __init__(
        self,
        message: str,
        invariant: str = "",
        snapshot: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(message)
        self.invariant = invariant
        self.snapshot = dict(snapshot or {})


#: name → class, used to rebuild errors reported across process
#: boundaries and to parse ``REPRO_FAULT_KIND``.
ERROR_CLASSES: Dict[str, type] = {
    "SimulationError": SimulationError,
    "WorkerCrash": WorkerCrash,
    "JobTimeout": JobTimeout,
    "StallTimeout": StallTimeout,
    "CorruptResult": CorruptResult,
    "InvariantViolation": InvariantViolation,
    "StoreDegraded": StoreDegraded,
    "HostLost": HostLost,
    "HostPartition": HostPartition,
    "FleetDegraded": FleetDegraded,
    "CampaignInterrupted": CampaignInterrupted,
}


def is_retryable(error: SimulationError) -> bool:
    """Whether retrying the attempt could plausibly change the outcome.

    Crashes, timeouts, and transient corruption are worth retrying; an
    :class:`InvariantViolation` is deterministic simulator breakage and
    is not, and a :class:`CampaignInterrupted` means the operator asked
    us to stop — retrying would defy the shutdown request.
    """
    return not isinstance(error, (InvariantViolation, CampaignInterrupted))


def _rebuild_error(kind: str, message: str) -> SimulationError:
    return ERROR_CLASSES.get(kind, SimulationError)(message)


# ---------------------------------------------------------------------------
# Deterministic fault injection
# ---------------------------------------------------------------------------

FAULT_RATE_ENV = "REPRO_FAULT_RATE"
FAULT_KIND_ENV = "REPRO_FAULT_KIND"

#: fault kinds the injector understands.  ``crash`` kills the worker
#: process outright (``os._exit``); ``timeout`` makes the attempt hang
#: past any deadline; ``error`` raises a :class:`SimulationError`;
#: ``corrupt`` lets the job finish and then mangles its result so the
#: validator must catch it; ``state-corrupt`` corrupts the *simulator's
#: internal state* mid-run so the sanitizer must raise an
#: :class:`InvariantViolation`; ``stall`` emits one heartbeat and then
#: goes silent forever, so only the stall watchdog can reclaim the job.
FAULT_KINDS = ("crash", "error", "timeout", "corrupt", "state-corrupt", "stall")

#: I/O-layer fault kinds, injected at the store and trace-cache write
#: paths rather than into jobs: ``io-enospc``/``io-eio`` raise the
#: corresponding ``OSError`` from the write, ``io-torn`` silently
#: persists a partial, newline-less record — exactly what a kill -9
#: mid-flush leaves behind, so the next loader must truncate it.
IO_FAULT_KINDS = ("io-enospc", "io-eio", "io-torn")

#: fleet-layer fault kinds, injected at the coordinator against whole
#: hosts rather than into jobs: ``host-lost`` kills a host's agent
#: process outright after a dispatch, ``host-partition`` mutes a host
#: (its messages are discarded, as if the network dropped them) until
#: the stall watchdog reclaims it, ``host-slow`` stretches a host's
#: job turnaround without ever losing it — the host must survive.
HOST_FAULT_KINDS = ("host-lost", "host-partition", "host-slow")

#: test hook: a callable ``(job_key, attempt) -> Optional[str]``
#: returning a fault kind (or None).  Takes precedence over the
#: environment knobs.  Only effective in-process or under ``fork``.
_FAULT_INJECTOR: Optional[Callable[[str, int], Optional[str]]] = None

#: test hook for the I/O layer, same shape, keyed by operation
#: (e.g. ``store|results.jsonl|swim@100000``) instead of job.
_IO_FAULT_INJECTOR: Optional[Callable[[str, int], Optional[str]]] = None

#: test hook for the fleet layer, same shape, keyed by host
#: (``(host_id, dispatch_number)``) instead of job.
_HOST_FAULT_INJECTOR: Optional[Callable[[str, int], Optional[str]]] = None


def set_fault_injector(
    injector: Optional[Callable[[str, int], Optional[str]]],
) -> None:
    """Install (or with ``None`` clear) the fault-injection callable."""
    global _FAULT_INJECTOR
    _FAULT_INJECTOR = injector


def set_io_fault_injector(
    injector: Optional[Callable[[str, int], Optional[str]]],
) -> None:
    """Install (or with ``None`` clear) the I/O fault-injection callable."""
    global _IO_FAULT_INJECTOR
    _IO_FAULT_INJECTOR = injector


def set_host_fault_injector(
    injector: Optional[Callable[[str, int], Optional[str]]],
) -> None:
    """Install (or with ``None`` clear) the host fault-injection callable."""
    global _HOST_FAULT_INJECTOR
    _HOST_FAULT_INJECTOR = injector


def _unit_interval(token: str) -> float:
    """Deterministic hash of ``token`` onto [0, 1)."""
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def maybe_inject_fault(job_key: str, attempt: int) -> Optional[str]:
    """Return the fault kind planned for this (job, attempt), if any.

    With the environment knobs, attempt *k* of job *j* faults iff
    ``sha256(j|k) < REPRO_FAULT_RATE`` — independent per attempt, so a
    faulted job's retry usually succeeds, and fully reproducible.
    """
    if _FAULT_INJECTOR is not None:
        return _FAULT_INJECTOR(job_key, attempt)
    rate_text = os.environ.get(FAULT_RATE_ENV)
    if not rate_text:
        return None
    try:
        rate = float(rate_text)
    except ValueError:
        return None
    if rate <= 0.0 or _unit_interval(f"fault|{job_key}|{attempt}") >= rate:
        return None
    kind = os.environ.get(FAULT_KIND_ENV, "crash")
    if kind in IO_FAULT_KINDS:
        return None  # an I/O fault targets writes, not jobs
    if kind in HOST_FAULT_KINDS:
        return None  # a host fault targets whole fleet hosts, not jobs
    return kind if kind in FAULT_KINDS else "crash"


def maybe_inject_io_fault(op_key: str, attempt: int = 1) -> Optional[str]:
    """The I/O fault kind planned for this (operation, attempt), if any.

    Same deterministic scheme as :func:`maybe_inject_fault`, but keyed
    by write operation and restricted to :data:`IO_FAULT_KINDS`, so
    ``REPRO_FAULT_KIND=io-enospc`` perturbs the persistence layer while
    leaving job execution untouched (and vice versa).
    """
    if _IO_FAULT_INJECTOR is not None:
        return _IO_FAULT_INJECTOR(op_key, attempt)
    rate_text = os.environ.get(FAULT_RATE_ENV)
    if not rate_text:
        return None
    try:
        rate = float(rate_text)
    except ValueError:
        return None
    kind = os.environ.get(FAULT_KIND_ENV, "")
    if kind not in IO_FAULT_KINDS:
        return None
    if rate <= 0.0 or _unit_interval(f"iofault|{op_key}|{attempt}") >= rate:
        return None
    return kind


def maybe_inject_host_fault(host_id: str, dispatch: int = 1) -> Optional[str]:
    """The host fault kind planned for this (host, dispatch), if any.

    Same deterministic scheme as :func:`maybe_inject_fault`, but keyed
    by host and restricted to :data:`HOST_FAULT_KINDS`, so
    ``REPRO_FAULT_KIND=host-lost`` perturbs the fleet layer while
    leaving both job execution and the persistence layer untouched —
    and, critically, leaving the local-fallback workers a degraded
    fleet runs on completely healthy.
    """
    if _HOST_FAULT_INJECTOR is not None:
        return _HOST_FAULT_INJECTOR(host_id, dispatch)
    rate_text = os.environ.get(FAULT_RATE_ENV)
    if not rate_text:
        return None
    try:
        rate = float(rate_text)
    except ValueError:
        return None
    kind = os.environ.get(FAULT_KIND_ENV, "")
    if kind not in HOST_FAULT_KINDS:
        return None
    if rate <= 0.0 or _unit_interval(f"hostfault|{host_id}|{dispatch}") >= rate:
        return None
    return kind


def _corrupted(result: Any) -> Any:
    """Mangle a result so validation must reject it (fault injection)."""
    core = getattr(result, "core", None)
    if core is not None and hasattr(core, "cycles"):
        return replace(result, core=replace(core, cycles=float("nan")))
    return None


# ---------------------------------------------------------------------------
# Heartbeats
# ---------------------------------------------------------------------------

#: process-wide heartbeat sink: ``(accesses_done, accesses_total,
#: sim_time) -> None``.  Installed by the worker entry (to forward
#: beats over the result pipe) or the in-process supervisor; the
#: simulation loop publishes through :func:`emit_heartbeat` without
#: knowing who, if anyone, is listening.
_HEARTBEAT_SINK: Optional[Callable[[int, int, float], None]] = None


def set_heartbeat_sink(sink: Optional[Callable[[int, int, float], None]]) -> None:
    """Install (or with ``None`` clear) the process heartbeat sink."""
    global _HEARTBEAT_SINK
    _HEARTBEAT_SINK = sink


def heartbeat_active() -> bool:
    """Whether anyone is listening for heartbeats in this process."""
    return _HEARTBEAT_SINK is not None


def emit_heartbeat(done: int, total: int, sim_time: float) -> None:
    """Publish one progress heartbeat (no-op when nobody listens)."""
    sink = _HEARTBEAT_SINK
    if sink is not None:
        sink(done, total, sim_time)


#: minimum wall-clock seconds between heartbeats actually sent over a
#: worker's pipe (the simulator emits far more often than that).
HEARTBEAT_MIN_INTERVAL = 0.2


def _pipe_heartbeat_sink(
    conn: multiprocessing.connection.Connection,
) -> Callable[[int, int, float], None]:
    """A rate-limited sink forwarding beats over the result pipe."""
    last_sent = [0.0]

    def send(done: int, total: int, sim_time: float) -> None:
        now = time.monotonic()
        if now - last_sent[0] < HEARTBEAT_MIN_INTERVAL:
            return
        last_sent[0] = now
        try:
            conn.send(("hb", int(done), int(total), float(sim_time)))
        except (BrokenPipeError, OSError):  # parent gone; nothing to do
            pass

    return send


def _pipe_span_sink(
    conn: multiprocessing.connection.Connection,
) -> Callable[[Dict[str, Any]], None]:
    """A span-event sink forwarding over the result pipe.

    Unlike heartbeats, span events are never rate-limited: each one is
    a begin/end boundary the parent needs to pair (a dropped end would
    read as a dangling span).  Volume is bounded by span granularity —
    a handful per job, not per access.
    """

    def send(event: Dict[str, Any]) -> None:
        try:
            conn.send(("sp", event))
        except (BrokenPipeError, OSError):  # parent gone; nothing to do
            pass

    return send


def _reset_child_obs(
    conn: Optional[multiprocessing.connection.Connection],
) -> None:
    """Reset fork-inherited observability state in a worker.

    Under ``fork`` a worker inherits the parent's active span sink and
    metrics registry.  Recording into either would corrupt the parent's
    picture (a campaign TraceCollector in the child buffers events the
    parent never sees; a shared registry double-counts after fork).
    Workers therefore *unconditionally* reinstall: the pipe-forwarding
    sink when the parent asked for spans (``conn``), else no sink; and
    no active registry (each run builds its own and ships the snapshot
    through the span stream).
    """
    obs_spans.set_span_sink(_pipe_span_sink(conn) if conn is not None else None)
    obs_metrics.set_active_registry(None)


# ---------------------------------------------------------------------------
# Graceful shutdown
# ---------------------------------------------------------------------------

#: process-wide "stop now" latch set by SIGTERM/SIGINT under
#: :func:`graceful_shutdown` (or directly via :func:`request_shutdown`).
#: Supervisor loops poll it between dispatches: no new work starts, live
#: workers are reaped (terminate, then kill), and the campaign returns a
#: partial report with ``interrupted`` set instead of dying mid-write.
_SHUTDOWN_REQUESTED = False

#: signal number that triggered the shutdown (for the exit-status story:
#: 128+SIGTERM vs 130 for SIGINT), or None.
_SHUTDOWN_SIGNAL: Optional[int] = None


def request_shutdown(signum: Optional[int] = None) -> None:
    """Latch a graceful-shutdown request (idempotent, signal-safe)."""
    global _SHUTDOWN_REQUESTED, _SHUTDOWN_SIGNAL
    _SHUTDOWN_REQUESTED = True
    if _SHUTDOWN_SIGNAL is None:
        _SHUTDOWN_SIGNAL = signum


def shutdown_requested() -> bool:
    """Whether a graceful shutdown has been requested in this process."""
    return _SHUTDOWN_REQUESTED


def shutdown_signal() -> Optional[int]:
    """The signal that triggered the pending shutdown, if any."""
    return _SHUTDOWN_SIGNAL


def clear_shutdown() -> None:
    """Reset the shutdown latch (tests, and campaign (re)entry)."""
    global _SHUTDOWN_REQUESTED, _SHUTDOWN_SIGNAL
    _SHUTDOWN_REQUESTED = False
    _SHUTDOWN_SIGNAL = None


#: live :class:`graceful_shutdown` contexts with handlers installed —
#: tells the simulation's progress probe that a mid-run shutdown check
#: is worth the compare even when no heartbeat sink is active.
_SHUTDOWN_WATCHERS = 0


def shutdown_watch_active() -> bool:
    """Whether a graceful-shutdown context is watching this process."""
    return _SHUTDOWN_WATCHERS > 0


class graceful_shutdown:
    """Context manager installing SIGTERM/SIGINT → :func:`request_shutdown`.

    The first signal latches the request and lets the supervisor wind
    down cleanly (checkpoint markers, reap workers, partial report); a
    second signal of the same kind restores default disposition mid-way
    so an operator can still force an exit.  Installing handlers is only
    legal from the main thread — elsewhere (e.g. a campaign driven from
    a worker thread) this degrades to a no-op and the usual
    KeyboardInterrupt path applies.
    """

    def __init__(self) -> None:
        self._previous: Dict[int, Any] = {}

    def __enter__(self) -> "graceful_shutdown":
        import signal as _signal

        clear_shutdown()

        def _handle(signum: int, frame: Any) -> None:
            request_shutdown(signum)
            # A repeat signal means "stop waiting": fall back to the
            # default disposition so the next one is fatal.
            try:
                _signal.signal(signum, _signal.SIG_DFL)
            except (ValueError, OSError):  # pragma: no cover
                pass

        for signum in (_signal.SIGTERM, _signal.SIGINT):
            try:
                self._previous[signum] = _signal.signal(signum, _handle)
            except (ValueError, OSError):
                # Not the main thread (or an embedded interpreter):
                # graceful shutdown degrades to a no-op.
                break
        if self._previous:
            global _SHUTDOWN_WATCHERS
            _SHUTDOWN_WATCHERS += 1
        return self

    def __exit__(self, *exc_info: Any) -> None:
        import signal as _signal

        if self._previous:
            global _SHUTDOWN_WATCHERS
            _SHUTDOWN_WATCHERS -= 1
        for signum, previous in self._previous.items():
            try:
                _signal.signal(signum, previous)
            except (ValueError, OSError):  # pragma: no cover
                pass
        self._previous.clear()


# ---------------------------------------------------------------------------
# Platform probes
# ---------------------------------------------------------------------------

START_METHOD_ENV = "REPRO_START_METHOD"


def supervision_context() -> Optional[multiprocessing.context.BaseContext]:
    """The multiprocessing context campaigns should use, or ``None``.

    Tries ``fork`` (cheap, inherits the parent's registries), then
    ``spawn``; returns ``None`` — meaning "run in-process" — where
    neither exists.  ``REPRO_START_METHOD`` overrides the probe order
    (value ``inprocess`` forces the serial fallback).
    """
    override = os.environ.get(START_METHOD_ENV, "").strip().lower()
    if override in ("inprocess", "none"):
        return None
    methods = ([override] if override else []) + ["fork", "spawn"]
    for method in methods:
        try:
            return multiprocessing.get_context(method)
        except ValueError:
            continue
    return None


def default_workers(jobs: int = 0) -> int:
    """Resolve a ``--jobs`` value to a worker count (0 = CPU count).

    ``multiprocessing.cpu_count()`` raises ``NotImplementedError`` on
    some platforms (it never returns 0); fall back to 2 workers there.
    """
    if jobs > 0:
        return jobs
    try:
        count = multiprocessing.cpu_count()
    except NotImplementedError:
        count = 0
    return max(count, 1) if count else 2


# ---------------------------------------------------------------------------
# Retry policy and campaign report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """How hard the supervisor tries before declaring a job failed."""

    #: additional attempts after the first (total attempts = retries + 1).
    retries: int = 2
    #: per-attempt wall-clock budget in seconds (None = unlimited).
    timeout: Optional[float] = None
    #: kill an attempt that emits no heartbeat for this many seconds
    #: (None = no stall watchdog).  Unlike ``timeout`` this never kills
    #: a slow-but-progressing job: any heartbeat resets the window.
    stall_timeout: Optional[float] = None
    #: base backoff delay; attempt k waits ~``base * 2**(k-1)`` seconds.
    backoff_base: float = 0.05
    #: backoff ceiling.
    backoff_max: float = 2.0
    #: fail-fast budget: abort the whole campaign once this many jobs
    #: have *permanently* failed (exhausted their retries), instead of
    #: draining the rest of a doomed sweep.  None = drain everything.
    max_failures: Optional[int] = None

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if self.stall_timeout is not None and self.stall_timeout <= 0:
            raise ValueError(
                f"stall timeout must be positive, got {self.stall_timeout}"
            )
        if self.max_failures is not None and self.max_failures < 1:
            raise ValueError(
                f"max failures must be >= 1, got {self.max_failures}"
            )

    def backoff(self, job_key: str, attempt: int) -> float:
        """Deterministic exponential backoff with jitter in [0.5x, 1.5x)."""
        delay = min(self.backoff_base * (2 ** max(attempt - 1, 0)), self.backoff_max)
        return delay * (0.5 + _unit_interval(f"backoff|{job_key}|{attempt}"))


@dataclass(frozen=True)
class JobFailure:
    """One job that exhausted its retry budget."""

    key: str
    error: str  # taxonomy class name, e.g. "WorkerCrash"
    message: str
    attempts: int

    def describe(self) -> str:
        return f"{self.key}: {self.error} after {self.attempts} attempt(s) — {self.message}"


@dataclass
class CampaignReport:
    """Outcome of one supervised campaign: successes and failures, apart.

    ``executed`` counts *successful* simulations only — a job whose
    worker died is a failure, not an execution.  ``skipped`` counts
    jobs satisfied from a cache or store before any worker ran.
    """

    completed: Dict[str, Any] = field(default_factory=dict)
    failures: List[JobFailure] = field(default_factory=list)
    skipped: int = 0
    #: attempts beyond each job's first (i.e. how much retrying it took).
    retried: int = 0
    #: replacement workers spawned after a pool worker died.
    recycled: int = 0
    #: merged span-trace file written for this campaign (``REPRO_OBS``
    #: tracing on), else None.
    trace_path: Optional[str] = None
    #: directory holding per-job profiles (``REPRO_PROFILE`` on), else None.
    profile_dir: Optional[str] = None
    #: durability counters from the campaign's result store
    #: (:meth:`repro.sim.store.ResultStore.health`), else None.
    store_health: Optional[Dict[str, Any]] = None
    #: a graceful-shutdown request (SIGTERM/SIGINT) cut the campaign
    #: short; ``completed`` holds everything that finished before it.
    interrupted: bool = False
    #: human-readable reason the campaign aborted early (``max_failures``
    #: fail-fast tripped), else None.
    aborted: Optional[str] = None
    #: fleet hosts that died or partitioned mid-campaign.
    hosts_lost: int = 0
    #: jobs reassigned from a lost host to a survivor.
    reassigned: int = 0
    #: successful jobs per fleet host id (fleet campaigns only).
    per_host: Dict[str, int] = field(default_factory=dict)
    #: reason the fleet degraded to single-host local execution, else None.
    fleet_degraded: Optional[str] = None

    @property
    def executed(self) -> int:
        return len(self.completed)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def ok(self) -> bool:
        return not self.failures

    def merge(self, other: "CampaignReport") -> "CampaignReport":
        self.completed.update(other.completed)
        self.failures.extend(other.failures)
        self.skipped += other.skipped
        self.retried += other.retried
        self.recycled += other.recycled
        self.hosts_lost += other.hosts_lost
        self.reassigned += other.reassigned
        for host, count in other.per_host.items():
            self.per_host[host] = self.per_host.get(host, 0) + count
        self.interrupted = self.interrupted or other.interrupted
        if self.aborted is None:
            self.aborted = other.aborted
        if self.fleet_degraded is None:
            self.fleet_degraded = other.fleet_degraded
        if self.trace_path is None:
            self.trace_path = other.trace_path
        if self.profile_dir is None:
            self.profile_dir = other.profile_dir
        if self.store_health is None:
            self.store_health = other.store_health
        return self

    def store_health_line(self) -> Optional[str]:
        """One-line digest of store durability, or None without a store."""
        health = self.store_health
        if not health:
            return None
        line = (
            f"store: {health.get('records', 0)} record(s), "
            f"quarantined {health.get('quarantined', 0)}, "
            f"torn-truncated {health.get('torn_truncated', 0)}, "
            f"compacted {health.get('compacted', 0)}"
        )
        if health.get("degraded"):
            line += (
                f"; DEGRADED to in-memory-only, {health.get('lost_writes', 0)} "
                f"write(s) lost ({health.get('degraded_reason')})"
            )
        return line

    def summary(self) -> str:
        """Human-readable campaign digest (one line per failure)."""
        head = (
            f"campaign: {self.executed} succeeded, {self.failed} failed, "
            f"{self.skipped} skipped (cached), {self.retried} retried attempt(s)"
        )
        if self.recycled:
            head += f", {self.recycled} worker(s) recycled"
        if self.hosts_lost:
            head += (
                f", {self.hosts_lost} host(s) lost"
                f" ({self.reassigned} job(s) reassigned)"
            )
        if self.per_host:
            parts = ", ".join(
                f"{host}={count}" for host, count in sorted(self.per_host.items())
            )
            head += f"\nper-host: {parts}"
        if self.fleet_degraded:
            head += f"\nFLEET DEGRADED to single-host: {self.fleet_degraded}"
        if self.interrupted:
            head += "\nINTERRUPTED: campaign stopped early by signal; partial results above"
        if self.aborted:
            head += f"\nABORTED: {self.aborted}"
        health_line = self.store_health_line()
        if health_line:
            head += f"\n{health_line}"
        if self.trace_path:
            head += f"\ntrace: {self.trace_path}"
        if self.profile_dir:
            head += f"\nprofiles: {self.profile_dir}"
        if not self.failures:
            return head
        lines = [head, "failures:"]
        lines += [f"  - {failure.describe()}" for failure in self.failures]
        return "\n".join(lines)

    def raise_if_failed(self) -> None:
        if self.failures:
            raise SimulationError(self.summary())


# ---------------------------------------------------------------------------
# The supervisor
# ---------------------------------------------------------------------------


def _run_in_process(
    jobs: Sequence[Any],
    run_one: Callable[[Any], Any],
    key: Callable[[Any], str],
    policy: RetryPolicy,
    validate: Optional[Callable[[Any], None]],
    progress: Optional[Callable[[int, int, str, str], None]],
    heartbeat: Optional[Callable[[str, int, int, float], None]] = None,
    on_result: Optional[Callable[[str, Any], None]] = None,
) -> CampaignReport:
    """Serial path: no start method exists, or the caller asked for it.

    Crash/timeout/stall faults cannot take the process down here, so
    the injector's ``crash``/``timeout``/``stall`` kinds surface as
    their taxonomy exceptions instead; per-attempt wall-clock limits
    are not enforced.  Heartbeats are delivered synchronously.
    """
    report = CampaignReport()
    total = len(jobs)
    for job in jobs:
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
        job_key = key(job)
        last: SimulationError = SimulationError("no attempts made")
        attempts_made = 0
        for attempt in range(1, policy.retries + 2):
            attempts_made = attempt
            if attempt > 1:
                report.retried += 1
                time.sleep(policy.backoff(job_key, attempt))
            try:
                fault = maybe_inject_fault(job_key, attempt)
                if fault == "crash":
                    raise WorkerCrash(f"injected crash ({job_key}, attempt {attempt})")
                if fault == "timeout":
                    raise JobTimeout(f"injected timeout ({job_key}, attempt {attempt})")
                if fault == "stall":
                    raise StallTimeout(f"injected stall ({job_key}, attempt {attempt})")
                if fault == "error":
                    raise SimulationError(f"injected fault ({job_key}, attempt {attempt})")
                if fault == "state-corrupt":
                    from repro.sim import sanitizer as _sanitizer

                    _sanitizer.schedule_state_corruption()
                if heartbeat is not None:
                    set_heartbeat_sink(
                        lambda done, n, t, _key=job_key: heartbeat(_key, done, n, t)
                    )
                try:
                    # In-process attempts report to whatever span sink
                    # the campaign installed (no pipe to forward over).
                    with obs_profile.maybe_profile(f"{job_key}-attempt{attempt}"):
                        with obs_spans.span(
                            "attempt", key=job_key, attempt=attempt
                        ):
                            result = run_one(job)
                finally:
                    set_heartbeat_sink(None)
                if fault == "corrupt":
                    result = _corrupted(result)
                if validate is not None:
                    try:
                        validate(result)
                    except SimulationError:
                        raise
                    except Exception as exc:
                        raise CorruptResult(f"{job_key}: {exc}") from exc
                if on_result is not None:
                    on_result(job_key, result)
                report.completed[job_key] = result
                break
            except CampaignInterrupted:
                # Shutdown arrived mid-run: the half-done job is not a
                # failure — it simply never finished.  Resume covers it.
                report.interrupted = True
                break
            except SimulationError as exc:
                last = exc
                if not is_retryable(exc):
                    break  # deterministic breakage: retrying cannot help
            except Exception as exc:
                last = SimulationError(f"{type(exc).__name__}: {exc}")
        if report.interrupted and job_key not in report.completed:
            break
        if job_key not in report.completed:
            report.failures.append(
                JobFailure(job_key, type(last).__name__, str(last), attempts_made)
            )
        if progress is not None:
            done = report.executed + report.failed
            status = "ok" if job_key in report.completed else "FAILED"
            progress(done, total, job_key, status)
    return report


#: sentinel returned by the message pump when a pipe closed with no
#: final payload (worker died after EOF, or mid-send).
_EOF = object()


def _drain_pipe(
    conn: multiprocessing.connection.Connection,
    on_beat: Callable[[int, int, float], None],
    on_span: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> Any:
    """Consume queued messages from one worker pipe.

    Heartbeats go to ``on_beat`` and forwarded span events (``("sp",
    event)``) to ``on_span``; the first final payload (``ok`` / ``err``
    tuple) is returned.  Returns ``None`` when only stream messages
    were pending, ``_EOF`` when the pipe closed with no final payload.
    Span events arriving with no ``on_span`` (a worker mis-wired to
    forward into a non-tracing parent) are dropped, not misclassified
    as a final payload.
    """
    while True:
        try:
            if not conn.poll():
                return None
            payload = conn.recv()
        except (EOFError, OSError):
            return _EOF
        if isinstance(payload, tuple) and len(payload) == 4 and payload[0] == "hb":
            on_beat(payload[1], payload[2], payload[3])
            continue
        if isinstance(payload, tuple) and len(payload) == 2 and payload[0] == "sp":
            if on_span is not None:
                on_span(payload[1])
            continue
        return payload


#: one pending attempt: (job, key, absolute attempt number, earliest
#: monotonic start time).  A retry waits out its backoff in the queue.
_Item = Tuple[Any, str, int, float]


def _pop_ready(items: List[_Item], now: float) -> Optional[_Item]:
    """Remove and return the first item whose backoff has passed."""
    for i, item in enumerate(items):
        if item[3] <= now:
            return items.pop(i)
    return None


# ---------------------------------------------------------------------------
# Warm worker pool
# ---------------------------------------------------------------------------


def _pool_worker_entry(
    job_conn: multiprocessing.connection.Connection,
    result_conn: multiprocessing.connection.Connection,
    run_one: Callable[[Any], Any],
    child_setup: Optional[Callable[[], None]],
    forward_spans: bool = False,
) -> None:
    """Worker body: drain jobs until told to stop.

    Every job's outcome is reported as a tagged tuple (``ok`` / ``err``)
    over the result pipe; a worker that dies before sending one is
    classified as a crash by the parent.  The process-wide heartbeat
    sink is installed once and reused across jobs — one of the costs
    the pool amortises.

    Long-lived workers also apply the standard warm-worker GC
    discipline: the post-import heap is frozen (it is permanent, so
    scanning it every generation-2 pass is pure overhead — and under
    ``fork`` the scan's refcount writes would unshare copy-on-write
    pages), the cycle collector is paused while a job runs, and one
    explicit collection runs between jobs.  A simulation allocates
    heavily but almost nothing survives it, so the inter-job collect is
    where the garbage actually dies; pausing the collector mid-job only
    defers that work, it cannot leak across jobs.
    """
    try:
        if child_setup is not None:
            child_setup()
        _reset_child_obs(result_conn if forward_spans else None)
        set_heartbeat_sink(_pipe_heartbeat_sink(result_conn))
        gc.collect()
        gc.freeze()
        gc.disable()
        while True:
            try:
                message = job_conn.recv()
            except (EOFError, OSError):
                break  # parent gone: nothing left to serve
            if not isinstance(message, tuple) or message[0] != "job":
                break  # ("stop",) or anything unexpected
            _, job, job_key, attempt = message
            try:
                # The span opens before fault injection on purpose: a
                # crash/timeout/stall fault then dies mid-span, which
                # exercises the supervisor's synthesized-abort path the
                # same way a real mid-job death would.
                with obs_profile.maybe_profile(f"{job_key}-attempt{attempt}"):
                    with obs_spans.span("attempt", key=job_key, attempt=attempt):
                        fault = maybe_inject_fault(job_key, attempt)
                        if fault == "crash":
                            os._exit(13)
                        if fault == "timeout":
                            time.sleep(3600.0)
                        if fault == "stall":
                            # Prove liveness once, then go silent: only the
                            # stall watchdog (not a wall-clock budget) can
                            # reclaim this job.
                            result_conn.send(("hb", 0, 0, 0.0))
                            time.sleep(3600.0)
                        if fault == "error":
                            raise SimulationError(
                                f"injected fault ({job_key}, attempt {attempt})"
                            )
                        if fault == "state-corrupt":
                            from repro.sim import sanitizer as _sanitizer

                            _sanitizer.schedule_state_corruption()
                        result = run_one(job)
                        if fault == "corrupt":
                            result = _corrupted(result)
                result_conn.send(("ok", result))
            except SimulationError as exc:
                result_conn.send(("err", type(exc).__name__, str(exc)))
            except BaseException as exc:  # classify unexpected worker bugs too
                result_conn.send(("err", "SimulationError", f"{type(exc).__name__}: {exc}"))
            gc.collect()
    finally:
        set_heartbeat_sink(None)
        result_conn.close()
        job_conn.close()


@dataclass
class _PoolWorker:
    process: multiprocessing.process.BaseProcess
    job_conn: multiprocessing.connection.Connection  # parent -> worker
    result_conn: multiprocessing.connection.Connection  # worker -> parent
    #: affinity group this worker is currently serving.
    group: Optional[str] = None
    #: in-flight job as (job, key, attempt), or None when idle.
    current: Optional[Tuple[Any, str, int]] = None
    deadline: Optional[float] = None
    #: wall-clock time of the last heartbeat (or of the dispatch).
    last_beat: float = 0.0
    #: latest reported progress: (accesses done, total, sim time).
    progress: Optional[Tuple[int, int, float]] = None
    #: forwarded span begins not yet matched by an end, by span id —
    #: the supervisor synthesizes ``aborted`` ends for these if the
    #: worker dies or is killed mid-span.
    open_spans: Dict[str, Dict[str, Any]] = field(default_factory=dict)


def run_supervised(
    jobs: Sequence[Any],
    run_one: Callable[[Any], Any],
    *,
    workers: int = 0,
    policy: Optional[RetryPolicy] = None,
    key: Optional[Callable[[Any], str]] = None,
    validate: Optional[Callable[[Any], None]] = None,
    progress: Optional[Callable[[int, int, str, str], None]] = None,
    heartbeat: Optional[Callable[[str, int, int, float], None]] = None,
    child_setup: Optional[Callable[[], None]] = None,
    in_process: bool = False,
    group: Optional[Callable[[Any], str]] = None,
    span: Optional[Callable[[Dict[str, Any]], None]] = None,
    on_result: Optional[Callable[[str, Any], None]] = None,
) -> CampaignReport:
    """Run ``run_one`` over ``jobs`` under supervision; never raises.

    A warm pool of ``workers`` long-lived processes drains the queue.
    Jobs are bucketed into affinity groups (``group(job)``, defaulting
    to the job key) in first-appearance order; a worker sticks to its
    group until it is empty, then claims the next untouched group, and
    at the tail helps whichever in-progress group has the most work
    left, so one straggler group never serialises the finish.

    A dead worker charges only its in-flight job one attempt and is
    recycled (a replacement spawns while work remains).  A failed
    attempt *k* goes back into its group as attempt *k + 1*, to start
    no earlier than ``policy.backoff(key, k + 1)`` seconds later, up to
    ``policy.retries`` times — except :class:`InvariantViolation`,
    which is deterministic and fails the job immediately.  Attempt
    numbers are absolute, so fault-injection and backoff hashes depend
    only on ``(key, attempt)``.  Jobs that exhaust the budget land in
    the report's ``failures``, the rest in ``completed`` (keyed by
    ``key(job)``).

    Workers stream progress heartbeats over the result pipe (published
    by the simulation loop via :func:`emit_heartbeat`).  The watchdog
    uses them two ways: ``policy.stall_timeout`` kills an attempt that
    goes silent for that many seconds (a *stall* timeout — a slow but
    heartbeating job is left alone), and ``heartbeat`` (if given) is
    called in the parent as ``(key, done, total, sim_time)`` so
    campaigns can checkpoint mid-run progress markers.  An overdue or
    stalled worker gets SIGKILL: a forked worker inherits the parent's
    :class:`graceful_shutdown` handler, so SIGTERM would only latch a
    flag, and a killed attempt has nothing to flush.

    ``validate`` (if given) runs in the parent on every returned
    result; a validation error is classified :class:`CorruptResult`
    and retried like any other failure.  ``on_result`` (if given) is
    called in the parent as ``(key, result)`` for every validated
    result, before the job counts as completed or reaches
    ``progress``: campaigns checkpoint there, so a killed campaign
    keeps every job it reported done.  ``child_setup`` runs first
    inside every worker (campaigns use it to silence per-worker store
    writes).  ``progress`` is called as ``(done, total, key, status)``
    after each job settles.  ``in_process=True`` runs the jobs serially
    in this process (:func:`_run_in_process`, which enforces neither
    timeout); otherwise that happens only when no start method works.

    ``span`` (if given) receives every observability span event the
    workers forward over their result pipes (:mod:`repro.obs.spans`
    dicts, in arrival order) — campaigns pass a
    :meth:`TraceCollector.add <repro.obs.spans.TraceCollector>` here to
    merge all workers' spans into one trace.  If a worker dies or is
    killed with spans open, the supervisor synthesizes ``aborted`` end
    events for them so the merged trace never contains a dangling span.
    In the in-process path jobs emit straight to the active span sink
    instead and ``span`` is unused.
    """
    policy = policy or RetryPolicy()
    key = key or (lambda job: repr(job))
    jobs = list(jobs)
    if not jobs:
        return CampaignReport()

    context = None if in_process else supervision_context()
    if context is None:
        return _run_in_process(
            jobs, run_one, key, policy, validate, progress, heartbeat, on_result
        )

    workers = min(default_workers(workers), len(jobs))
    report = CampaignReport()
    total = len(jobs)
    group_of = group or key
    groups: Dict[str, List[_Item]] = {}
    for job in jobs:
        groups.setdefault(group_of(job), []).append((job, key(job), 1, 0.0))
    order = list(groups)
    claimed: set = set()
    pool: List[_PoolWorker] = []

    def _spawn_worker() -> _PoolWorker:
        job_recv, job_send = context.Pipe(duplex=False)
        result_recv, result_send = context.Pipe(duplex=False)
        process = context.Process(
            target=_pool_worker_entry,
            args=(job_recv, result_send, run_one, child_setup, span is not None),
        )
        process.start()
        job_recv.close()
        result_send.close()
        worker = _PoolWorker(
            process, job_send, result_recv, last_beat=time.monotonic()
        )
        pool.append(worker)
        return worker

    def _take_next(worker: _PoolWorker) -> Optional[_Item]:
        now = time.monotonic()
        if worker.group is not None:
            item = _pop_ready(groups[worker.group], now)
            if item is not None:
                return item
        for name in order:  # claim the next untouched group
            if name not in claimed and groups[name]:
                claimed.add(name)
                worker.group = name
                return groups[name].pop(0)
        # Tail: help the in-progress group with the most work left.
        for name in sorted(order, key=lambda g: -len(groups[g])):
            item = _pop_ready(groups[name], now)
            if item is not None:
                worker.group = name
                return item
        return None

    def _dispatch(worker: _PoolWorker) -> bool:
        """Hand the worker its next job; False when idle or send failed."""
        item = _take_next(worker)
        if item is None:
            return False
        job, job_key, attempt, _ = item
        try:
            worker.job_conn.send(("job", job, job_key, attempt))
        except (BrokenPipeError, OSError):
            # The worker died before we noticed; put the job back (it
            # was never attempted) and let the sentinel path recycle.
            groups[group_of(job)].insert(0, item)
            return False
        now = time.monotonic()
        worker.current = (job, job_key, attempt)
        worker.deadline = now + policy.timeout if policy.timeout else None
        worker.last_beat = now
        worker.progress = None
        return True

    def _charge(worker: _PoolWorker, error: SimulationError) -> None:
        """The in-flight attempt failed: requeue it with backoff, or fail."""
        job, job_key, attempt = worker.current
        worker.current = None
        worker.deadline = None
        if attempt <= policy.retries and is_retryable(error):
            report.retried += 1
            not_before = time.monotonic() + policy.backoff(job_key, attempt + 1)
            groups[group_of(job)].append((job, job_key, attempt + 1, not_before))
        else:
            report.failures.append(
                JobFailure(job_key, type(error).__name__, str(error), attempt)
            )
            if progress is not None:
                progress(report.executed + report.failed, total, job_key, "FAILED")

    def _complete(worker: _PoolWorker, result: Any) -> None:
        job, job_key, _ = worker.current
        if validate is not None:
            try:
                validate(result)
            except Exception as exc:
                _charge(worker, CorruptResult(f"{job_key}: {exc}"))
                return
        worker.current = None
        worker.deadline = None
        if on_result is not None:
            on_result(job_key, result)
        report.completed[job_key] = result
        if progress is not None:
            progress(report.executed + report.failed, total, job_key, "ok")

    def _on_beat(worker: _PoolWorker) -> Callable[[int, int, float], None]:
        def update(done: int, n: int, sim_time: float) -> None:
            worker.last_beat = time.monotonic()
            worker.progress = (done, n, sim_time)
            if heartbeat is not None and worker.current is not None:
                heartbeat(worker.current[1], done, n, sim_time)

        return update

    def _on_span(
        worker: _PoolWorker,
    ) -> Optional[Callable[[Dict[str, Any]], None]]:
        if span is None:
            return None

        def forward(event: Dict[str, Any]) -> None:
            if event.get("ev") == "begin":
                worker.open_spans[event["span"]] = event
            elif event.get("ev") == "end":
                worker.open_spans.pop(event.get("span"), None)
            span(event)

        return forward

    def _abort_spans(worker: _PoolWorker) -> None:
        """Synthesize ``aborted`` ends for spans the worker left open.

        A worker that crashed or was killed between a span's begin and
        end would otherwise leave a dangling span in the merged trace;
        the supervisor closes them on the worker's behalf, marked
        ``synthesized`` so analysis can tell them from real ends.
        """
        if span is not None:
            for begin in worker.open_spans.values():
                span(obs_spans.synthesize_abort(begin))
        worker.open_spans.clear()

    def _retire(worker: _PoolWorker) -> None:
        """Remove one dead worker from the pool and reap it."""
        pool.remove(worker)
        worker.job_conn.close()
        worker.result_conn.close()
        worker.process.join(timeout=5.0)
        if worker.process.is_alive():  # pragma: no cover - stuck worker
            worker.process.kill()
            worker.process.join(timeout=5.0)

    def _recycle() -> None:
        """Replace lost capacity while undispatched work remains."""
        while any(groups.values()) and len(pool) < workers:
            worker = _spawn_worker()
            report.recycled += 1
            if not _dispatch(worker):
                break

    def _kill(worker: _PoolWorker, error: SimulationError) -> None:
        """SIGKILL one overdue/stalled worker, charge its job, recycle."""
        worker.process.kill()
        _abort_spans(worker)
        _charge(worker, error)
        _retire(worker)
        _recycle()

    try:
        for _ in range(workers):
            _spawn_worker()
        for worker in list(pool):
            _dispatch(worker)

        while any(groups.values()) or any(w.current for w in pool):
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
            # Watchdog: wall-clock deadlines and heartbeat stalls, for
            # workers with a job in flight only.  Drain first so a
            # final payload (or fresh beat) racing the check wins.
            for worker in list(pool):
                if worker.current is None:
                    continue
                overdue = worker.deadline is not None and now > worker.deadline
                stalled = (
                    policy.stall_timeout is not None
                    and now - worker.last_beat > policy.stall_timeout
                )
                if not (overdue or stalled):
                    continue
                payload = _drain_pipe(
                    worker.result_conn, _on_beat(worker), _on_span(worker)
                )
                if payload is not None and payload is not _EOF:
                    if payload[0] == "ok":
                        _complete(worker, payload[1])
                    else:
                        _charge(worker, _rebuild_error(payload[1], payload[2]))
                    _dispatch(worker)
                    continue
                if payload is _EOF:
                    continue  # the sentinel path below will handle the death
                if overdue:
                    attempt_no = worker.current[2]
                    error: SimulationError = JobTimeout(
                        f"attempt exceeded {policy.timeout:.3g}s "
                        f"(attempt {attempt_no})"
                    )
                elif now - worker.last_beat <= policy.stall_timeout:
                    continue  # the drain picked up a fresh heartbeat
                else:
                    reached = (
                        f"; last progress {worker.progress[0]}/{worker.progress[1]}"
                        f" accesses at sim time {worker.progress[2]:.0f}"
                        if worker.progress is not None
                        else " before the first heartbeat"
                    )
                    error = StallTimeout(
                        f"no heartbeat for {policy.stall_timeout:.3g}s "
                        f"(attempt {worker.current[2]}){reached}"
                    )
                _kill(worker, error)

            if not pool:
                _recycle()
                if not pool:
                    break  # no capacity and nothing recyclable
                continue

            # Idle workers pick up retries whose backoff has passed.
            waiting: List[float] = []
            for worker in pool:
                if worker.current is None and not _dispatch(worker):
                    waiting = [
                        item[3] for items in groups.values() for item in items
                    ]
                    break

            wait_for = 0.2
            now = time.monotonic()
            deadlines = [w.deadline for w in pool if w.deadline is not None]
            deadlines += waiting
            if policy.stall_timeout is not None:
                deadlines += [
                    w.last_beat + policy.stall_timeout
                    for w in pool
                    if w.current is not None
                ]
            if deadlines:
                wait_for = min(wait_for, max(min(deadlines) - now, 0.0) + 0.001)
            fired = multiprocessing.connection.wait(
                [w.result_conn for w in pool]
                + [w.process.sentinel for w in pool],
                timeout=wait_for,
            )
            if not fired:
                continue
            for worker in list(pool):
                conn_fired = worker.result_conn in fired
                sentinel_fired = worker.process.sentinel in fired
                if not (conn_fired or sentinel_fired):
                    continue
                payload = _drain_pipe(
                    worker.result_conn, _on_beat(worker), _on_span(worker)
                )
                if payload is None and sentinel_fired:
                    # One more drain catches a final payload racing the
                    # sentinel; anything else is a worker death.
                    payload = _drain_pipe(
                        worker.result_conn, _on_beat(worker), _on_span(worker)
                    )
                if payload is None and sentinel_fired:
                    payload = _EOF
                if payload is _EOF:
                    worker.process.join(timeout=5.0)
                    _abort_spans(worker)
                    if worker.current is not None:
                        code = worker.process.exitcode
                        _charge(
                            worker, WorkerCrash(f"worker exited with code {code}")
                        )
                    _retire(worker)
                    _recycle()
                elif payload is not None:
                    if payload[0] == "ok":
                        _complete(worker, payload[1])
                    else:
                        _charge(worker, _rebuild_error(payload[1], payload[2]))
                    _dispatch(worker)
                # else: heartbeats only — the worker is alive and working.
    finally:
        stopping_early = report.interrupted or report.aborted is not None
        for worker in pool:
            try:
                worker.job_conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for worker in pool:
            if stopping_early and worker.process.is_alive():
                # A mid-job worker only reads the stop message between
                # jobs; don't wait out its simulation on a shutdown.
                worker.process.terminate()
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=2.0)
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                worker.process.kill()
                worker.process.join(timeout=2.0)
            _abort_spans(worker)
            worker.job_conn.close()
            worker.result_conn.close()
    return report
