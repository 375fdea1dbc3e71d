"""Self-test of the benchmark: every workload at tiny scale.

    python3 perfbench/selftest.py             # or: python3 -m pytest perfbench/selftest.py

Run from the root of a checkout.  Each workload runs untraced and traced at
``--scale tiny`` with the correctness gate on (pinned envelope hashes,
byte-identical repeats, traced == untraced); the result line must carry
exactly the metrics ``BENCHMARK.json`` declares, with their units.  A
checkout without the program must be refused with a nonzero exit and no
result line.  About half a minute on two cores.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

#: Traced counts at tiny scale: (synth calls, accepts, declines).
TINY_COUNTS = {
    "figure3-cold": (2, 10, 0),
    "figure5-smt": (2, 4, 4),
    "serve-mixed": None,  # time-bounded: counts follow the request rate
}


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def _run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, RUN if cwd == ROOT else os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "0", "--seconds", "2",
         "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def _result(completed: subprocess.CompletedProcess, declared: list[dict]) -> dict:
    assert completed.returncode == 0, completed.stderr[-2000:]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, completed.stdout[-3000:]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} \
        == {entry["name"]: entry["unit"] for entry in declared}
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], (int, float)), name
        assert math.isfinite(entry["value"]), name
    return result


def check_workload(workload: str) -> None:
    benchmark = _benchmark()
    untraced = _result(_run(workload, 0), benchmark["end_to_end"])
    for name, entry in untraced["metrics"].items():
        assert entry["value"] > 0, name
    traced = _result(_run(workload, 1), benchmark["per_layer"])
    metrics = {name: entry["value"] for name, entry in traced["metrics"].items()}
    assert metrics["error_rate"] == 0.0
    assert metrics["engine.jobs"] > 0
    expected = TINY_COUNTS[workload]
    if expected is not None:
        synth, accepts, declines = expected
        assert metrics["trace.synth_calls"] == synth
        assert metrics["sim.vector_accepts"] == accepts
        assert metrics["sim.vector_declines"] == declines
    else:
        assert metrics["store.writes"] > 0 and metrics["jobs.completed"] > 0
        assert metrics["serve.handler_mean_ms"] > 0


def test_figure3_cold() -> None:
    check_workload("figure3-cold")


def test_figure5_smt() -> None:
    check_workload("figure5-smt")


def test_serve_mixed() -> None:
    check_workload("serve-mixed")


def test_refuses_checkout_without_program() -> None:
    bare = os.path.join(ROOT, ".perfbench_tmp", f"bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        completed = _run("figure3-cold", 0, cwd=bare)
        assert completed.returncode != 0
        assert '"correct"' not in completed.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    for test in (test_figure3_cold, test_figure5_smt, test_serve_mixed,
                 test_refuses_checkout_without_program):
        test()
        print(f"ok {test.__name__}")
