"""The performance ledger: one benchmark for the whole simulator.

``python -m ledger`` times the paper's evaluation end to end (four
workloads, see :mod:`ledger.workloads`) and, with ``--traced``, splits
each workload's wall time over the ``src/repro`` layers.  Every number
is taken through the program's public entry points; the program itself
is never modified.  ``ledger/README.md`` documents the workloads, the
metric table and the time budget.

This package is imported by the driving process, by the workload child
processes and by the set-up probes, so importing it must stay cheap: no
``repro`` import happens here.
"""

from __future__ import annotations

from pathlib import Path

#: schema tag stamped on every document the ledger writes.
SCHEMA = "repro-tcp/ledger/v1"

#: the checkout the ledger runs in (the directory holding ``ledger/``).
ROOT = Path(__file__).resolve().parent.parent

#: where the program under measurement lives.
SRC = ROOT / "src"

#: the ledger's own scratch space inside the checkout: the native build
#: cache, per-run temporary stores and trace caches, and reports.
WORK = ROOT / ".ledger"
