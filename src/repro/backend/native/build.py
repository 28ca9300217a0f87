"""Locate, build, or gracefully fail to provide the ``_native`` extension.

Resolution order (memoised once per process):

1. ``REPRO_NATIVE=0`` disables the extension outright (the no-compiler
   CI job uses this to assert the clean python fallback).
2. A prebuilt ``_native`` importable from the package (what
   ``pip install .[native]`` leaves in site-packages).
3. A cached build under ``~/.cache/repro-tcp/native/<digest>/``, keyed
   by a hash of the C source and the interpreter ABI, so editable
   installs and source checkouts compile once and reuse the artifact
   across processes.
4. A fresh compile into that cache with the system C compiler
   (``$CC``, else ``cc``/``gcc``/``clang``).

Every failure mode raises nothing to the caller: :func:`load` returns
``None`` and :func:`load_error` the human-readable reason, which the
backend surfaces in its once-per-process fallback warning and records
into ``SimResult.backend_fallback``.
"""

from __future__ import annotations

import hashlib
import importlib
import importlib.machinery
import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
from typing import Optional

__all__ = ["load", "load_error", "reset"]

#: environment variable: set to ``0`` to refuse the extension even when
#: a compiler or cached artifact is available.
NATIVE_ENV = "REPRO_NATIVE"

_MODULE = None
_ERROR: Optional[str] = None
_TRIED = False


def _source_path() -> str:
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "_native.c")


def _cache_dir(source: str) -> str:
    with open(source, "rb") as handle:
        digest = hashlib.sha256(handle.read())
    digest.update(sys.implementation.cache_tag.encode())
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(root, "repro-tcp", "native", digest.hexdigest()[:16])


def _find_compiler() -> Optional[str]:
    cc = os.environ.get("CC")
    if cc:
        found = shutil.which(cc)
        if found:
            return found
    for name in ("cc", "gcc", "clang"):
        found = shutil.which(name)
        if found:
            return found
    return None


def _load_from_file(path: str):
    loader = importlib.machinery.ExtensionFileLoader(
        "repro.backend.native._native", path
    )
    spec = importlib.util.spec_from_file_location(
        "repro.backend.native._native", path, loader=loader
    )
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module


def _load_or_build():
    # 1. a prebuilt extension next to this module (pip install .[native])
    try:
        return importlib.import_module("repro.backend.native._native")
    except ImportError:
        pass
    # 2./3. the per-source cache
    source = _source_path()
    if not os.path.exists(source):
        raise RuntimeError("_native.c source not present in the package")
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    cache = _cache_dir(source)
    artifact = os.path.join(cache, "_native" + suffix)
    if os.path.exists(artifact):
        return _load_from_file(artifact)
    compiler = _find_compiler()
    if compiler is None:
        raise RuntimeError("no C compiler found (install cc/gcc/clang)")
    os.makedirs(cache, exist_ok=True)
    include = sysconfig.get_paths()["include"]
    tmp = artifact + f".tmp{os.getpid()}"
    cmd = [
        compiler,
        "-O2",
        "-fPIC",
        "-shared",
        f"-I{include}",
        source,
        "-o",
        tmp,
    ]
    proc = subprocess.run(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
    )
    if proc.returncode != 0:
        tail = (proc.stdout or "").strip().splitlines()[-6:]
        raise RuntimeError(
            "C compilation failed (%s): %s" % (compiler, " | ".join(tail))
        )
    # Atomic publish: concurrent processes race benignly to the same name.
    os.replace(tmp, artifact)
    return _load_from_file(artifact)


def load():
    """The ``_native`` module, or ``None`` (see :func:`load_error`)."""
    global _MODULE, _ERROR, _TRIED
    if _TRIED:
        return _MODULE
    _TRIED = True
    if os.environ.get(NATIVE_ENV, "").strip() == "0":
        _ERROR = f"disabled by {NATIVE_ENV}=0"
        return None
    try:
        _MODULE = _load_or_build()
    except Exception as exc:  # noqa: BLE001 - availability probe
        _ERROR = str(exc) or repr(exc)
        _MODULE = None
    return _MODULE


def load_error() -> Optional[str]:
    """Why :func:`load` returned ``None`` (``None`` when it succeeded)."""
    load()
    return _ERROR


def reset() -> None:
    """Forget the memoised availability probe (tests only)."""
    global _MODULE, _ERROR, _TRIED
    _MODULE = None
    _ERROR = None
    _TRIED = False
