"""Run one ``repro`` command in this process and report what it cost.

    python3 perfbench/child.py --report R.json [--trace] [--setup-only] -- ARGS

Imports the program the way ``python -m repro`` does, notes the moment it is
ready (every built-in experiment registered), optionally installs the layer
probes (:mod:`probes`), then runs ``repro.cli.main(ARGS)`` unchanged.  The
report holds the ready and done times on the system-wide monotonic clock
(comparable with the parent's), the exit status, peak RSS, the replay
backend, the trace-cache counters and, when traced, the layer spans.  A
SIGINT ends a ``serve`` command cleanly, so its report is still written; a
SIGUSR1 restarts the counting (the benchmark sends it after warming a
server up).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    import repro.cli
    from repro.engine import load_builtin_specs
    from repro.engine.workloads import trace_cache_stats

    load_builtin_specs()
    ready = time.monotonic()
    tracer = None
    if args.trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import probes

        tracer = probes.install()
    cache_base = trace_cache_stats()

    def restart(signum, frame) -> None:
        cache_base.update(trace_cache_stats())
        if tracer is not None:
            tracer.reset()

    signal.signal(signal.SIGUSR1, restart)
    status = 0
    done = ready
    try:
        if not args.setup_only:
            status = repro.cli.main(argv)
    finally:
        done = time.monotonic()
        cache = {key: trace_cache_stats()[key] - cache_base[key]
                 for key in ("hits", "misses")}
        _write_report(args.report, ready, done, status, tracer, cache)
    return status


def _write_report(path: str, ready: float, done: float, status: int,
                  tracer, cache: dict) -> None:
    import numpy

    from repro.sim import fastpath

    report = {
        "ready": ready,
        "done": done,
        "status": status,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "backend": fastpath.backend(),
        "numpy": numpy.__version__,
        "trace_cache": cache,
        "layers": tracer.snapshot() if tracer is not None else None,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main())
