"""Golden-oracle regression corpus.

Each file in ``tests/golden/`` freezes the full :class:`SimResult` of
one (workload, configuration) cell at QUICK scale, keyed by the
configuration's fingerprint.  The test replays every cell and compares
field by field — any behavioural drift in the core, hierarchy, or
prefetchers shows up as a named-field diff instead of a vague
downstream failure.

After an *intentional* behaviour change, regenerate with::

    PYTHONPATH=src python -m pytest tests/test_golden.py --update-golden

and commit the updated corpus together with the change that caused it.
"""

import json
from pathlib import Path

import pytest

from repro.sim import SimulationConfig, simulate
from repro.sim.runner import clear_cache
from repro.sim.store import config_fingerprint
from repro.workloads import Scale

GOLDEN_DIR = Path(__file__).parent / "golden"

#: The frozen cells: a spread of benchmarks and the paper's headline
#: configurations (kept small — each replay is a real QUICK run).  The
#: swim and mcf rows cross a dense-stride and a pointer-chasing trace
#: with the hit-dominated path (base), the miss/prefetch path
#: (nextline, tcp-8k) and the gated L1-promotion path (hybrid-8k).
GOLDEN_CELLS = (
    ("swim", "base"),
    ("swim", "nextline"),
    ("swim", "tcp-8k"),
    ("swim", "hybrid-8k"),
    ("mcf", "base"),
    ("mcf", "nextline"),
    ("mcf", "tcp-8k"),
    ("mcf", "tcp-8m"),
    ("mcf", "hybrid-8k"),
    ("gcc", "dbcp-2m"),
    ("fma3d", "hybrid-8k"),
)


def _config(label):
    if label == "base":
        return SimulationConfig.baseline()
    return SimulationConfig.for_prefetcher(label)


def _cell_path(bench, label, config):
    fingerprint = config_fingerprint(config)
    return GOLDEN_DIR / f"{bench}-{label}-quick-{fingerprint}.json"


def _flatten(payload, prefix=""):
    """dict tree -> {dotted.path: leaf} for field-by-field diffs."""
    flat = {}
    for key, value in payload.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{path}."))
        else:
            flat[path] = value
    return flat


@pytest.mark.parametrize("bench,label", GOLDEN_CELLS)
def test_golden_cell(bench, label, request):
    config = _config(label)
    path = _cell_path(bench, label, config)
    clear_cache()
    result = simulate(bench, config, Scale.QUICK, use_cache=False)
    payload = {
        "schema": "repro-tcp/golden/v1",
        "workload": bench,
        "config_label": label,
        "accesses": Scale.QUICK.accesses,
        "fingerprint": config_fingerprint(config),
        "result": result.to_dict(),
    }

    if request.config.getoption("--update-golden"):
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        # A fingerprint change orphans the old file; sweep stale cells
        # for this (bench, label) so the corpus never accretes garbage.
        for stale in GOLDEN_DIR.glob(f"{bench}-{label}-quick-*.json"):
            if stale != path:
                stale.unlink()
        with path.open("w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return

    if not path.exists():
        pytest.fail(
            f"golden file missing for {bench}/{label} "
            f"(fingerprint {payload['fingerprint']}): {path.name}\n"
            "If the configuration changed intentionally, regenerate with "
            "--update-golden and commit the corpus."
        )

    golden = json.loads(path.read_text(encoding="utf-8"))
    expected = _flatten(golden["result"])
    actual = _flatten(payload["result"])
    assert set(expected) == set(actual), (
        "golden result shape drifted: "
        f"missing={sorted(set(expected) - set(actual))} "
        f"extra={sorted(set(actual) - set(expected))}"
    )
    diffs = [
        f"  {field}: golden={expected[field]!r} current={actual[field]!r}"
        for field in sorted(expected)
        if expected[field] != actual[field]
    ]
    assert not diffs, (
        f"{bench}/{label} drifted from golden ({len(diffs)} fields):\n"
        + "\n".join(diffs)
        + "\nIf intentional, regenerate with --update-golden."
    )


def test_no_orphaned_golden_files():
    """Every file in the corpus corresponds to a live cell."""
    if not GOLDEN_DIR.exists():
        pytest.skip("corpus not generated yet")
    live = {
        _cell_path(bench, label, _config(label)).name
        for bench, label in GOLDEN_CELLS
    }
    on_disk = {p.name for p in GOLDEN_DIR.glob("*.json")}
    assert on_disk == live, (
        f"orphaned={sorted(on_disk - live)} missing={sorted(live - on_disk)}"
    )
