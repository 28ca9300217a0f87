"""Pluggable simulation backends.

The per-access state machines run behind the :class:`~repro.backend.
base.Backend` interface; :func:`resolve_backend` picks the
implementation for a run from ``SimulationConfig.backend``, the
``REPRO_BACKEND`` environment variable, or the default:

``python``
    the reference interpreted loop (:mod:`repro.cpu.core` +
    :mod:`repro.memory` — the PR 3 engine path, frozen by the golden
    corpus and the 156-run oracle);
``native``
    the same loop compiled to C (:mod:`repro.backend.native`): each
    span between probe marks runs as one C call, bit-identical to
    ``python`` by contract and by differential test.  It needs the
    ``_native`` extension (built on demand, or via ``pip install
    .[native]``) and falls back to the reference loop, with a
    once-per-process warning, when the extension is missing or the
    configuration is one the C loop does not model.
"""

from __future__ import annotations

from repro.backend.base import (
    BACKEND_ENV,
    Backend,
    available_backends,
    backend_name,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.backend.native import NativeBackend
from repro.backend.python import PythonBackend

__all__ = [
    "BACKEND_ENV",
    "Backend",
    "NativeBackend",
    "PythonBackend",
    "available_backends",
    "backend_name",
    "get_backend",
    "register_backend",
    "resolve_backend",
]

register_backend("python", PythonBackend)
register_backend("native", NativeBackend)
