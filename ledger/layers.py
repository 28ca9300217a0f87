"""Traced-run instrumentation and the per-layer breakdown.

Only the ``--traced`` run uses these helpers.  They record spans from
the ledger's side of the program's public entry points and read the spans
and interval profiles the program already emits:

* :class:`TimedBackend` wraps every registered ``Backend`` so each
  ``Backend.run`` call becomes a ``backend.run`` span plus a metrics
  event naming the engine that actually ran (native, numpy, or the
  python reference loop after a fallback) with its access, L1-miss,
  batched-access and C-epilogue counts.  It is installed through the
  public backend registry before any campaign worker forks, so pool
  workers inherit it and forward its events over their span pipe.
* :func:`pass_layers` turns one pass's span events into self times per
  ``src/repro`` layer (a span's self time is its duration minus the
  part of its interval that its children cover).
* :func:`profile_tally` aggregates ``REPRO_PROFILE=interval`` stacks by
  the package of the leaf frame.
* :func:`replay` times the offline ``score_prefetcher`` replay over
  captured L1 miss streams, which isolates prefetcher training.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from repro.analysis.miss_stream import capture_miss_stream
from repro.analysis.prediction import score_prefetcher
from repro.backend import Backend, available_backends, get_backend, register_backend
from repro.obs import spans as obs_spans
from repro.obs.trace import pair_spans
from repro.sim.config import SimulationConfig
from repro.workloads import generate

from ledger import ROOT, SRC

__all__ = [
    "REPLAY_PREFETCHERS",
    "TimedBackend",
    "install_backend_timer",
    "pass_layers",
    "profile_tally",
    "replay",
]

#: prefetchers whose offline replay cost the ledger reports.
REPLAY_PREFETCHERS = ("tcp-8k", "tcp-8m", "nextline")

_PROGRAM = str(SRC / "repro") + "/"
_LEDGER = str(ROOT / "ledger") + "/"


def _engine(backend_name: str, stats: dict) -> str:
    """The engine that actually stepped the trace."""
    fallback = stats.get("fallback")
    if fallback is None:
        return backend_name
    if "extension unavailable" in fallback:
        return "numpy"
    return "python"


class TimedBackend(Backend):
    """A registered backend whose ``run`` is timed and attributed."""

    def __init__(self, inner: Backend) -> None:
        self.inner = inner
        self.name = inner.name
        self.last_engine_stats: dict = {}

    def run(self, trace, hierarchy, params, warmup=0, probes=None):
        with obs_spans.span("backend.run", backend=self.name):
            started = time.perf_counter()
            result = self.inner.run(trace, hierarchy, params, warmup=warmup, probes=probes)
            elapsed = time.perf_counter() - started
        stats = dict(getattr(self.inner, "last_engine_stats", None) or {})
        self.last_engine_stats = stats
        obs_spans.emit_metrics(
            "backend.run",
            {
                "engine": _engine(self.name, stats),
                "run_s": elapsed,
                "accesses": len(trace),
                "l1_misses": hierarchy.stats.l1_misses,
                "epilogue_ns": stats.get("epilogue_ns", 0),
                "batched_accesses": stats.get("batched_accesses", 0),
            },
        )
        return result


def install_backend_timer() -> None:
    """Re-register every backend wrapped in :class:`TimedBackend`."""
    for name in available_backends():
        cls = type(get_backend(name))
        register_backend(name, lambda cls=cls: TimedBackend(cls()))


# ----------------------------------------------------------------------
# Span analysis
# ----------------------------------------------------------------------


def _covered(parent: dict, children: Sequence[dict]) -> float:
    """Length of the union of the children's intervals inside ``parent``."""
    lo, hi = parent["begin_t"], parent["begin_t"] + parent["dur"]
    intervals = sorted(
        (max(lo, c["begin_t"]), min(hi, c["begin_t"] + c["dur"])) for c in children
    )
    total, end = 0.0, lo
    for start, stop in intervals:
        start = max(start, end)
        if stop > start:
            total += stop - start
            end = stop
    return total


def _layer(span: dict) -> Optional[str]:
    """The ``src/repro`` layer a span's self time belongs to."""
    name = span["name"]
    if name in ("generate", "trace-precache"):
        return "workloads"
    if name == "backend.run":
        return "backend"
    if name == "simulate":
        return "multicore" if "+" in str(span["attrs"].get("workload", "")) else "sim.runner"
    if name in ("attempt", "cell"):
        return "sim.runner"
    if name in ("store", "install"):
        return "sim.store"
    return None  # the pass / campaign root


def _cell_name(span: dict) -> str:
    attrs = span["attrs"]
    return str(attrs.get("workload") or str(attrs.get("key", "")).split("/", 1)[0])


def pass_layers(events: Iterable[dict], wall: float, jobs: int, campaign: bool) -> dict:
    """Per-layer self times and layer counters of one traced pass.

    ``wall`` is the pass's wall time as the ledger measured it;
    ``jobs`` the worker count.  The capacity ``wall * jobs`` is split
    into the layers' self times plus an idle remainder, which is the
    campaign scheduler's dispatch and wait time (``sim.parallel``) or,
    in-process, the ledger's own loop.
    """
    events = list(events)
    closed, _ = pair_spans(events)
    children: Dict[str, List[dict]] = defaultdict(list)
    for span in closed:
        if span["parent"] is not None:
            children[span["parent"]].append(span)

    layers: Dict[str, float] = defaultdict(float)
    totals: Dict[str, float] = defaultdict(float)
    cell_s: List[float] = []
    single_cell_s = 0.0
    for span in closed:
        layer = _layer(span)
        name = span["name"]
        totals[name] += span["dur"]
        if name == "simulate" and layer == "multicore":
            totals["multicore"] += span["dur"]
        if name in ("attempt", "cell"):
            cell_s.append(span["dur"])
            if "+" not in _cell_name(span):
                single_cell_s += span["dur"]
        if layer is not None:
            layers[layer] += span["dur"] - _covered(span, children[span["span"]])
    idle = wall * jobs - sum(layers.values())
    layers["sim.parallel" if campaign else "ledger"] += idle

    engines: Dict[str, Dict[str, float]] = {}
    for event in events:
        if event.get("ev") == "metrics" and event.get("name") == "backend.run":
            m = event["metrics"]
            engine = engines.setdefault(
                m["engine"],
                {"run_s": 0.0, "accesses": 0, "l1_misses": 0, "epilogue_ns": 0, "batched_accesses": 0},
            )
            for field in engine:
                engine[field] += m[field]
    backend_s = sum(e["run_s"] for e in engines.values())
    return {
        "wall": wall,
        "jobs": jobs,
        "layers": dict(layers),
        "cell_s": cell_s,
        "busy_s": sum(cell_s),
        "generate_s": totals["generate"],
        "precache_s": totals["trace-precache"],
        "install_s": totals["install"],
        "multicore_s": totals["multicore"],
        "runner_overhead_s": single_cell_s - totals["generate"] - backend_s,
        "engines": engines,
    }


# ----------------------------------------------------------------------
# Interval profiles
# ----------------------------------------------------------------------


def package_of(frame: str) -> str:
    """``repro`` package (``memory``, ``cpu``...) of a collapsed-stack
    frame ``"func (path:line)"``; ``ledger`` or ``other`` outside it."""
    path = frame[frame.rfind("(") + 1 : frame.rfind(":")]
    if path.startswith(_PROGRAM):
        rest = path[len(_PROGRAM) :]
        return rest.split("/", 1)[0] if "/" in rest else "repro"
    if path.startswith(_LEDGER):
        return "ledger"
    return "other"


def profile_tally(directory: Path) -> Counter:
    """Interval samples per leaf-frame package over ``*.stacks`` files."""
    tally: Counter = Counter()
    for path in Path(directory).glob("*.stacks"):
        for line in path.read_text(encoding="utf-8").splitlines():
            stack, _, count = line.rpartition(" ")
            if stack:
                tally[package_of(stack.rsplit(";", 1)[-1])] += int(count)
    return tally


# ----------------------------------------------------------------------
# Offline prefetcher replay
# ----------------------------------------------------------------------


def replay(benchmarks: Sequence[str], accesses: int) -> Dict[str, float]:
    """Host ns per replayed miss of ``score_prefetcher``, per prefetcher."""
    seconds: Dict[str, float] = dict.fromkeys(REPLAY_PREFETCHERS, 0.0)
    misses: Dict[str, int] = dict.fromkeys(REPLAY_PREFETCHERS, 0)
    for name in benchmarks:
        stream = capture_miss_stream(generate(name, accesses))
        for label in REPLAY_PREFETCHERS:
            prefetcher = SimulationConfig.for_prefetcher(label).build_prefetcher()
            started = time.perf_counter()
            score = score_prefetcher(prefetcher, stream)
            seconds[label] += time.perf_counter() - started
            misses[label] += score.misses
    return {label: seconds[label] / max(misses[label], 1) * 1e9 for label in REPLAY_PREFETCHERS}
