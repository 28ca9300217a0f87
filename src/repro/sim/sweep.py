"""Configuration sweeps over the benchmark suite.

The paper's evaluation is a matrix: {configurations} × {benchmarks}.
``Sweep`` runs that matrix (reusing the runner's result cache) and
produces the derived tables the figures plot: per-benchmark IPC
improvement over the no-prefetch baseline, suite geomeans, and the
L2-access breakdowns.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.sim.config import SimulationConfig
from repro.sim.resilience import CampaignReport
from repro.sim.results import SuiteResult
from repro.sim.runner import simulate_suite
from repro.util.tables import format_table
from repro.workloads import BENCHMARK_ORDER, Scale

__all__ = ["Sweep", "improvement_table"]


class Sweep:
    """Run a list of configurations over the suite and compare them."""

    def __init__(
        self,
        configs: Sequence[SimulationConfig],
        scale: Scale = Scale.STANDARD,
        benchmarks: Optional[Tuple[str, ...]] = None,
    ) -> None:
        if not configs:
            raise ValueError("a sweep needs at least one configuration")
        labels = [config.resolved_label() for config in configs]
        if len(set(labels)) != len(labels):
            raise ValueError(f"sweep labels must be unique, got {labels}")
        self.configs = list(configs)
        self.scale = scale
        self.benchmarks = benchmarks if benchmarks is not None else BENCHMARK_ORDER
        self._results: Optional[Dict[str, SuiteResult]] = None

    def prewarm(
        self,
        jobs: int = 0,
        retries: int = 2,
        timeout: Optional[float] = None,
        stall_timeout: Optional[float] = None,
    ) -> CampaignReport:
        """Run this sweep's matrix under the fault-tolerant supervisor.

        Fills the result cache (and the persistent store, when active)
        in parallel with per-job retries/timeouts (``stall_timeout``
        arms the heartbeat watchdog instead of a wall-clock budget); a
        subsequent :meth:`run` then replays from cache.  Returns the campaign report — callers that need all-or-nothing
        semantics can ``report.raise_if_failed()``.
        """
        from repro.sim.parallel import prewarm

        return prewarm(
            self.configs,
            self.scale,
            self.benchmarks,
            jobs=jobs,
            retries=retries,
            timeout=timeout,
            stall_timeout=stall_timeout,
        )

    def run(self) -> Dict[str, SuiteResult]:
        """Execute (or return the already-executed) sweep."""
        if self._results is None:
            self._results = {
                config.resolved_label(): simulate_suite(
                    config, self.scale, self.benchmarks
                )
                for config in self.configs
            }
        return self._results

    def improvements(self, baseline_label: str = "base") -> Dict[str, Dict[str, float]]:
        """Per-config, per-benchmark IPC improvement (%) over a baseline.

        The baseline configuration must be part of the sweep.
        """
        results = self.run()
        if baseline_label not in results:
            raise KeyError(
                f"baseline {baseline_label!r} is not in this sweep "
                f"({sorted(results)})"
            )
        baseline = results[baseline_label]
        return {
            label: suite.improvements_over(baseline)
            for label, suite in results.items()
            if label != baseline_label
        }

    def geomean_improvements(self, baseline_label: str = "base") -> Dict[str, float]:
        """Suite-wide improvement (%) per configuration."""
        results = self.run()
        baseline = results[baseline_label]
        return {
            label: suite.geomean_improvement(baseline)
            for label, suite in results.items()
            if label != baseline_label
        }


def improvement_table(
    improvements: Dict[str, Dict[str, float]],
    benchmarks: Iterable[str] = BENCHMARK_ORDER,
    title: Optional[str] = None,
) -> str:
    """Render a per-benchmark improvement matrix as an ASCII table.

    Rows are benchmarks (paper order), columns are configurations, and
    a final ``geomean`` row carries the suite-wide ratio geomeans.
    """
    labels = list(improvements)
    headers = ["benchmark"] + labels
    rows: List[List[object]] = []
    names = [name for name in benchmarks if all(name in improvements[l] for l in labels)]
    for name in names:
        rows.append([name] + [improvements[label][name] for label in labels])
    geomeans: List[object] = ["geomean"]
    for label in labels:
        ratios = [1.0 + improvements[label][name] / 100.0 for name in names]
        product = 1.0
        for ratio in ratios:
            product *= ratio
        geomeans.append((product ** (1.0 / len(ratios)) - 1.0) * 100.0 if ratios else 0.0)
    rows.append(geomeans)
    return format_table(headers, rows, title=title)
