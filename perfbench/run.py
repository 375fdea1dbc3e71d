"""End-to-end and per-layer benchmark of the STBPU reproduction.

    python3 perfbench/run.py --workload figure3-cold --seed 0 --seconds 40 --trace 0

Run from the root of a checkout.  Workloads (see ``BENCHMARK.json`` for why
each was chosen):

* ``figure3-cold``  ``repro figure3`` at default scale in a cold process;
* ``figure5-smt``   ``repro figure5 --workload-limit 2`` in a cold process;
* ``serve-mixed``   two keep-alive clients against ``repro serve``.

``--trace 0`` measures the end-to-end metrics with no probes installed.
``--trace 1`` also runs the workload with the layer probes
(:mod:`probes`) and reports the per-layer metrics, the tracing overhead and
the replay path of every (model, job kind).  Every run checks its outputs:
pinned envelope hashes, byte-identical repeats and traced == untraced.

The last line of stdout is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the line before it is a JSON report with host facts and the details.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import traceback

import batch
import serve_load
from common import (
    END_TO_END_UNITS,
    LAYER_UNITS,
    ROOT,
    Deadline,
    host_facts,
    source_present,
)

WORKLOADS = {
    "figure3-cold": batch.run,
    "figure5-smt": batch.run,
    "serve-mixed": serve_load.run,
}

#: Every wait ends by this many seconds into the run, so that a result line
#: is printed inside a 180 s budget even when the program hangs.
RUN_LIMIT_S = 170.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("default", "tiny"), default="default",
                        help="'tiny' shrinks every workload for the self-test")
    args = parser.parse_args(argv)
    if not source_present():
        print(f"error: no program to measure: {os.path.join(ROOT, 'src', 'repro')} "
              "is missing (run from the root of a checkout)", file=sys.stderr)
        return 2

    deadline = Deadline(RUN_LIMIT_S)
    scratch = os.path.join(ROOT, ".perfbench_tmp", f"run-{os.getpid()}")
    os.makedirs(scratch)
    try:
        outcome = WORKLOADS[args.workload](
            args.workload, args.seed, args.seconds, bool(args.trace),
            args.scale, scratch, deadline)
    except Exception:  # the program broke a run: report it, do not crash
        outcome = {"attempted": 1, "failed": 1,
                   "problems": [traceback.format_exc(limit=4)[-2000:]],
                   "end_to_end": {}, "layers": None, "report": {}}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = max(1, outcome["attempted"])
    failed = outcome["failed"]
    if args.trace:
        units = LAYER_UNITS
        values = dict(outcome["layers"] or {}, error_rate=failed / attempted)
    else:
        units = END_TO_END_UNITS
        values = outcome["end_to_end"]
    metrics = {name: (values.get(name, math.nan), unit)
               for name, unit in units.items()}
    finite = all(math.isfinite(value) for value, _ in metrics.values())
    correct = not outcome["problems"] and failed == 0 and finite
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "scale": args.scale,
        "host": host_facts(),
        "problems": outcome["problems"][:20],
        **outcome["report"],
    }
    print(json.dumps({"perfbench": report}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None,
                           "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
