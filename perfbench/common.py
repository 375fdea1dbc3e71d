"""Helpers shared by the benchmark's workload modules.

The benchmark always runs from the root of a checkout: the program under test
is imported from ``src/`` there, and every file the benchmark writes lives
under ``.perfbench_tmp/`` (removed when a run ends) or ``.perfbench_pycache/``
(bytecode, kept so later runs start warm, as an installed package would).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
PINS_PATH = os.path.join(HERE, "pins.json")
CALIBRATE = os.path.join(HERE, "calibrate.py")
#: ``calibrate.py``'s loop time on the reference host (two vCPUs of a shared
#: Intel Xeon host) with a batch pass running beside it on the same CPU.
REFERENCE_LOOP_S = 0.0015
#: Shortest window over which the loop's time is taken (about 20 samples).
MIN_WINDOW_S = 2.0

#: Environment variables of the program that would change what is measured
#: (a store to read results from, another replay backend, injected faults).
_PROGRAM_SETTINGS = ("REPRO_STORE", "REPRO_SIM_BACKEND", "REPRO_FAULTS")


def source_present() -> bool:
    """Whether the checkout holds the program the benchmark measures."""
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def child_env() -> dict[str, str]:
    """Environment for every process that runs the program."""
    env = {key: value for key, value in os.environ.items()
           if key not in _PROGRAM_SETTINGS and key != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = SRC
    env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPYCACHEPREFIX"] = os.path.join(ROOT, ".perfbench_pycache")
    return env


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_pins() -> dict:
    with open(PINS_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def percentile(values: list[float], share: float) -> float:
    """Linear-interpolated percentile (``share`` in [0, 1]) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    position = share * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: list[float]) -> float:
    return percentile(values, 0.5)


def stop_process(process: subprocess.Popen, grace: float = 10.0) -> None:
    """Interrupt ``process``, then kill it if it has not ended; always reap."""
    if process.poll() is None:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            process.kill()
    process.wait()


class Deadline:
    """The run's own time limit: every wait is bounded by what is left."""

    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        """Seconds to the deadline, at least one so a last wait can finish."""
        return max(1.0, self.end - time.monotonic())


class HostSpeed:
    """How fast each CPU ran, and when: ``calibrate.py`` beside the work.

    The two-core hosts the benchmark runs on drift in speed by 15-30% over
    minutes, on both cores at once, and each core also swings on its own
    over seconds (both measured with a timed loop on each core); no run
    length averages that out.  So each batch pass, and each serve set-up
    probe, runs on its own CPU beside a calibration loop pinned to the same
    CPU, and CPU-bound time is reported at the speed of the reference host:
    multiplied by ``REFERENCE_LOOP_S`` / the loop's median time on that CPU
    during that interval.  Of a serve request only the time above the
    delayed-ACK stall is scaled (``serve_load.timings``): the stall waits on
    a kernel timer.  The raw times and the factors are in the report.
    """

    def __init__(self, cpus: list[int | None]):
        self.samples: dict[int | None, list[list[float]]] = {}
        self._processes = {}
        for cpu in cpus:
            pin = [] if cpu is None else ["--cpu", str(cpu)]
            self._processes[cpu] = subprocess.Popen(
                [sys.executable, CALIBRATE] + pin, env=child_env(),
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True)

    def stop(self, deadline: Deadline) -> bool:
        """Stop every loop and keep its samples; whether all of them reported."""
        complete = True
        for cpu, process in self._processes.items():
            try:
                output, _ = process.communicate(timeout=deadline.left())
                self.samples[cpu] = json.loads(output)["samples"]
            except (subprocess.TimeoutExpired, ValueError, KeyError):
                process.kill()
                process.wait()
                complete = False
        return complete

    def scale(self, cpu: int | None, start: float, end: float) -> float:
        """``REFERENCE_LOOP_S`` / the loop's median time on ``cpu`` (on every
        CPU when None) from ``start`` to ``end``, a window widened about its
        middle to at least ``MIN_WINDOW_S``."""
        middle = (start + end) / 2.0
        half = max(end - start, MIN_WINDOW_S) / 2.0
        series = (list(self.samples.values()) if cpu is None
                  else [self.samples.get(cpu, [])])
        loops = [loop for samples in series for at, loop in samples
                 if middle - half <= at <= middle + half]
        return REFERENCE_LOOP_S / median(loops) if loops else math.nan


def unscaled(cpu: int | None, start: float, end: float) -> float:
    """Host time as measured (traced runs: they report no end-to-end metric)."""
    return 1.0


def setup_probe(scratch: str, index: int, deadline: Deadline) -> tuple[float, dict]:
    """Seconds from spawn until ``repro`` is imported and ready, and the
    probe's report (replay backend, NumPy version)."""
    report = os.path.join(scratch, f"setup-{index}.json")
    started = time.monotonic()
    completed = subprocess.run(
        [sys.executable, CHILD, "--report", report, "--setup-only"],
        env=child_env(), capture_output=True, timeout=deadline.left())
    if completed.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {completed.stderr[-2000:]!r}")
    with open(report, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    return data["ready"] - started, data


def host_facts() -> dict:
    """nproc, interpreter and the code under test, for every result."""
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def _git_commit() -> str | None:
    # Only the checkout's own repository: git would otherwise report the
    # commit of whatever repository happens to enclose the checkout.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    commit = completed.stdout.strip()
    return commit if completed.returncode == 0 and commit else None


def _source_digest() -> str:
    """Digest of every ``.py`` file under ``src/``: names the code under test
    even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for directory, subdirs, files in os.walk(SRC):
        subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SRC).encode("utf-8"))
                with open(path, "rb") as handle:
                    digest.update(sha256_bytes(handle.read()).encode("ascii"))
    return digest.hexdigest()


#: Every end-to-end metric with its unit (``--trace 0``).
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "branches_per_s": "br/s",
    "peak_rss_mib": "MiB",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "miss_latency_p50_ms": "ms",
    "hit_latency_p50_ms": "ms",
    "requests_per_s": "req/s",
}

#: Every per-layer metric with its unit (``--trace 1``); a workload reports
#: 0 for a layer it does not exercise (the batch workloads use no store or
#: server).
LAYER_UNITS = {
    "trace.synth_s": "s",
    "trace.synth_calls": "count",
    "trace.synth_branches_per_s": "br/s",
    "trace.views_s": "s",
    "trace.smt_merge_s": "s",
    "engine.build_model_s": "s",
    "engine.trace_cache_hit_ratio": "ratio",
    "engine.jobs": "count",
    "engine.overhead_s": "s",
    "sim.vector_s": "s",
    "sim.guarded_s": "s",
    "sim.fallback_s": "s",
    "sim.vector_accepts": "count",
    "sim.vector_declines": "count",
    "sim.vector_accept_ratio": "ratio",
    "sim.replay_branches_per_s": "br/s",
    "experiments.post_s": "s",
    "store.hits": "count",
    "store.misses": "count",
    "store.writes": "count",
    "store.op_mean_ms": "ms",
    "jobs.run_mean_ms": "ms",
    "jobs.completed": "count",
    "jobs.retries": "count",
    "serve.handler_mean_ms": "ms",
    "serve.transport_gap_ms": "ms",
    "serve.rejected_429": "count",
    "bench.untraced_wall_s": "s",
    "bench.traced_wall_s": "s",
    "bench.tracing_overhead_ratio": "ratio",
    "bench.unattributed_s": "s",
    "error_rate": "ratio",
}


def layer_metrics(values: dict) -> dict:
    """``values`` completed with 0 for every layer metric not given."""
    return {name: float(values.get(name, 0.0)) for name in LAYER_UNITS}


def probe_metrics(report: dict) -> dict:
    """The layer metrics a probed process measured itself (``child.py``
    report with ``--trace``): synthesis, views, model build, replay, post."""
    data = report["layers"]
    total = data["total"]
    counts = data["counts"]
    accepts = sum(path["accepted"] for path in data["paths"].values())
    declines = sum(path["declined"] for path in data["paths"].values())
    cache = report["trace_cache"]
    lookups = cache["hits"] + cache["misses"]
    synth_s = total.get("synth", 0.0)
    replay_s = counts.get("sim_replay_s", 0.0)
    return {
        "trace.synth_s": synth_s,
        "trace.synth_calls": data["calls"].get("synth", 0),
        "trace.synth_branches_per_s": (counts.get("synth_branches", 0) / synth_s
                                       if synth_s else 0.0),
        "trace.views_s": total.get("views", 0.0),
        "trace.smt_merge_s": total.get("merge", 0.0),
        "engine.build_model_s": total.get("build_model", 0.0),
        "engine.trace_cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "engine.jobs": data["calls"].get("execute_job", 0),
        "sim.vector_s": counts.get("vector_s", 0.0),
        "sim.guarded_s": counts.get("guarded_s", 0.0),
        "sim.fallback_s": counts.get("fallback_s", 0.0),
        "sim.vector_accepts": accepts,
        "sim.vector_declines": declines,
        "sim.vector_accept_ratio": (accepts / (accepts + declines)
                                    if accepts + declines else 0.0),
        "sim.replay_branches_per_s": (counts.get("replay_branches", 0) / replay_s
                                      if replay_s else 0.0),
        "experiments.post_s": total.get("post", 0.0),
    }
