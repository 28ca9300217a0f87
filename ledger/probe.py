"""One set-up probe: what a fresh process pays before its first cell.

``python -m ledger.probe <workload> <seed> <smoke>`` imports the
program's simulation layers, resolves the workload's backend (loading
the compiled extension when the workload runs on ``native``), and
generates every trace the workload reads, with the on-disk trace cache
off.  It prints one JSON line with the time of each phase; the driving
process times the whole process from spawn to exit as ``setup_s``.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402 - timed from interpreter start
import sys  # noqa: E402


def main(argv) -> int:
    import repro.multicore.runner  # noqa: F401 - the entry points' imports
    import repro.sim.parallel  # noqa: F401

    imported = time.perf_counter()
    from repro.backend import resolve_backend
    from repro.backend.native import build
    from repro.workloads import generate

    from ledger.workloads import WORKLOADS, trace_names

    workload = WORKLOADS[argv[0]]
    smoke = argv[2] == "1"
    backend = resolve_backend()
    if backend.name == "native" and build.load() is None:
        print(f"native backend unavailable: {build.load_error()}", file=sys.stderr)
        return 1
    loaded = time.perf_counter()
    accesses = workload.accesses(int(argv[1]), smoke)
    generated = sum(len(generate(name, accesses)) for name in trace_names(workload.cells(smoke)))
    done = time.perf_counter()
    print(
        json.dumps(
            {
                "import_s": imported - STARTED,
                "backend_s": loaded - imported,
                "generate_s": done - loaded,
                "accesses": generated,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
