"""Regenerate ``pins.json``: the envelope SHA-256 every workload must produce.

    python3 perfbench/pin.py

Run from the root of a checkout whose results are known to be right.  Pins:

* each batch workload's JSON envelope, at default scale and at the tiny
  scale of the self-test;
* every serve-mixed pool cell of the first ``PINNED_PAGES`` pages, as the
  server returns it.

The program's simulated results are deterministic, so a pin changes only
when a change alters results, which the benchmark then reports as incorrect.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import shutil
import sys

import batch
import serve_load
from common import PINS_PATH, ROOT, Deadline, sha256_bytes, source_present


def pin_batch(workload: str, scale: str, scratch: str) -> str:
    done = batch.Pass(workload, scale, scratch, 0, False, Deadline(600.0))
    problems = done.problems({})
    if problems:
        raise RuntimeError(f"{workload} {scale}: {problems}")
    return done.envelope_sha256


def pin_serve(scratch: str) -> dict[str, str]:
    deadline = Deadline(600.0)
    workloads = serve_load.list_workloads(deadline)
    server = serve_load.Server(scratch, "pin", False, deadline)
    pins: dict[str, str] = {}
    connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
    try:
        for page in range(serve_load.PINNED_PAGES):
            for key in serve_load.pool_page(workloads, page):
                connection.request("POST", "/v1/experiments?wait=1",
                                   body=serve_load.scenario_body(key),
                                   headers={"Content-Type": "application/json"})
                response = connection.getresponse()
                body = response.read()
                if response.status != 200:
                    raise RuntimeError(f"{key}: HTTP {response.status}: {body[:200]!r}")
                problem = serve_load.envelope_problem(key, body)
                if problem:
                    raise RuntimeError(problem)
                pins[key] = sha256_bytes(body)
    finally:
        connection.close()
        server.stop()
    return pins


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args()
    if not source_present():
        print("error: run from the root of a checkout", file=sys.stderr)
        return 2
    scratch = os.path.join(ROOT, ".perfbench_tmp", f"pin-{os.getpid()}")
    os.makedirs(scratch)
    pins: dict = {}
    try:
        for workload in batch.BATCH_WORKLOADS:
            pins[workload] = {scale: pin_batch(workload, scale, scratch)
                              for scale in ("default", "tiny")}
            print(f"pinned {workload}", file=sys.stderr)
        pins["serve-mixed"] = pin_serve(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(PINS_PATH, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {PINS_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
