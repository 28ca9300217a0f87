"""One module per table/figure of the paper's evaluation.

Every experiment module exposes ``run(scale, benchmarks=None) ->
ExperimentResult`` (the mix experiment takes ``mix`` instead of
``benchmarks``); the registry in :mod:`repro.experiments.registry`
maps the paper's labels (``table1``, ``fig1`` … ``fig15``) to those
functions, and :mod:`repro.experiments.cli` is the ``repro-tcp``
command-line entry point that regenerates any of them.  Experiments
that simulate declare their grid (``CONFIGS``, or the mix's ``cells``)
so a run campaigns over its cells before any experiment renders.

The mapping to the paper:

=========  ==========================================================
table1     simulated machine configuration
fig1       IPC improvement with an ideal L2 per benchmark
fig2       unique tags / mean recurrences per tag (L1D miss stream)
fig3       unique addresses / mean recurrences per address
fig4       tag spread across sets / recurrences per (tag, set)
fig5       unique 3-tag sequences as % of the upper limit
fig6       unique 3-tag sequences / mean recurrences per sequence
fig7       sequence spread across sets / recurrences per (seq, set)
fig11      IPC improvement: TCP-8K vs TCP-8M vs DBCP-2M (+ headline)
fig12      L2-access taxonomy for TCP-8K and TCP-8M
fig13      mean IPC vs PHT size; mean IPC vs miss-index bits
fig14      TCP-8K vs Hybrid-8K (prefetch into L1)
fig15      % strided three-tag sequences
=========  ==========================================================
"""

from repro.experiments.base import ExperimentResult
from repro.experiments.registry import EXPERIMENTS, run_experiment

__all__ = ["EXPERIMENTS", "ExperimentResult", "run_experiment"]
