"""Host-speed reference: time a fixed loop until standard input closes.

    python3 perfbench/calibrate.py [--cpu N] < CONTROL

Every ``INTERVAL_S`` seconds, runs a fixed pure-Python loop that touches no
part of the program and times it in thread CPU time, so that the time moves
only with the speed the host gives this process, not with scheduling.  With
``--cpu`` the loop stays on that CPU.  When standard input reaches end of
file it prints ``{"samples": [[monotonic time, loop seconds], ...]}`` and
exits.  At about 2% of one core it takes little from the pass that runs
beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import sys
import time

INTERVAL_S = 0.1
ITERATIONS = 20_000


def loop() -> int:
    total = 0
    for value in range(ITERATIONS):
        total += value * value % 7
    return total


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cpu", type=int)
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    samples: list[list[float]] = []
    while True:
        started = time.thread_time()
        loop()
        samples.append([time.monotonic(), time.thread_time() - started])
        readable, _, _ = select.select([sys.stdin], [], [], INTERVAL_S)
        if readable:
            break
    print(json.dumps({"samples": samples}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
