"""Correctness gate: per-cell digests against the reference loop.

A cell's digest is the sha256 of its canonical ``SimResult.to_dict()``
with the ``backend_fallback`` provenance dropped — backends are
bit-identical by contract, so the engine that produced a result must
not change its digest.  ``ledger/golden.json`` holds the digests of
every cell of every workload for seeds 0 and 1 (and for the ``--smoke``
grids), computed on the python reference loop by
``python -m ledger --regen-golden``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Mapping, Optional

from ledger import SCHEMA

__all__ = ["GOLDEN_PATH", "GOLDEN_SEEDS", "digest", "expected", "mismatches"]

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

#: seeds whose digests are committed; other seeds are "unchecked".
GOLDEN_SEEDS = (0, 1)


def digest(result) -> str:
    """sha256 of the canonical result payload, provenance excluded."""
    payload = result.to_dict()
    payload.pop("backend_fallback", None)
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def section(workload: str, smoke: bool) -> str:
    return f"smoke:{workload}" if smoke else workload


def load() -> Dict[str, Dict[str, Dict[str, str]]]:
    """``{section: {seed: {cell key: digest}}}``; empty when absent."""
    try:
        with GOLDEN_PATH.open(encoding="utf-8") as handle:
            return json.load(handle)["cells"]
    except FileNotFoundError:
        return {}


def expected(workload: str, seed: int, smoke: bool) -> Optional[Dict[str, str]]:
    """Golden digests for one run, or ``None`` when the seed is unchecked."""
    return load().get(section(workload, smoke), {}).get(str(seed))


def mismatches(digests: Mapping[str, str], golden: Mapping[str, str]) -> List[str]:
    """Cell keys whose digest differs from (or is missing in) ``golden``."""
    return sorted(key for key, value in digests.items() if golden.get(key) != value)


def save(cells: Dict[str, Dict[str, Dict[str, str]]]) -> Path:
    document = {"schema": f"{SCHEMA}/golden", "engine": "python", "cells": cells}
    with GOLDEN_PATH.open("w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return GOLDEN_PATH
