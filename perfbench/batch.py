"""Batch workloads: one ``repro`` experiment per cold process, as a CLI user
runs it.

Each pass starts ``child.py -- <experiment> --progress --json OUT`` and
times it from outside: set-up (spawn until the program is imported and its
specs are registered), the full pass (synthesis, replay, post-process,
formatting and the JSON envelope), the command as a whole (spawn until
exit: what the user waits for), and the gaps between the per-job
``--progress`` lines on stderr, which are the job latencies the user sees.
A job is a *miss* when it is the first to use one of its workloads' traces,
so it pays synthesis, and a *hit* when the trace cache already holds them.

Job latencies are summarised per pass, as the mean over the pass's miss
(or hit) jobs, and then as the median over passes.  A percentile over
single jobs does not hold still: figure5-smt's 16 jobs split into fast
vector-accepted and ten-times-slower declined co-runs, so their median sits
on the gap between the two groups, and a job of a few hundred milliseconds
follows the host's second-scale speed swings (below).

Passes run in rounds of two concurrent processes, one per core of the
two-core reference host.  Each core's speed there swings by up to 2x over a
few seconds, independently of the other core (measured with pinned busy
loops), so two passes per round halve the variance a single pass would see
in the same wall time.  On top of that both cores drift together by 15-30%
over minutes, which no run length averages out, so every time is reported
at the reference host's speed (:class:`HostSpeed`).
"""

from __future__ import annotations

import json
import math
import os
import re
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from common import (
    CHILD,
    Deadline,
    HostSpeed,
    unscaled,
    child_env,
    layer_metrics,
    load_pins,
    median,
    percentile,
    probe_metrics,
    setup_probe,
    sha256_bytes,
)

_PROGRESS = re.compile(r"^\[(\d+)/(\d+)\] (\S+) (.+) \((\d+) ms\)$")

#: Experiment command, jobs, branch records replayed per job, and the
#: envelope shape each batch workload must produce.
BATCH_WORKLOADS = {
    "figure3-cold": {
        "default": {"argv": ["figure3"], "jobs": 185, "rows": 37},
        "tiny": {"argv": ["figure3", "--scale", "fast", "--workload-limit", "2"],
                 "jobs": 10, "rows": 2},
        "experiment": "figure3",
        "traces_per_job": 1,
    },
    "figure5-smt": {
        "default": {"argv": ["figure5", "--workload-limit", "2"],
                    "jobs": 16, "rows": 8},
        "tiny": {"argv": ["figure5", "--scale", "fast", "--workload-limit", "1"],
                 "jobs": 8, "rows": 4},
        "experiment": "figure5",
        "traces_per_job": 2,
    },
}

#: Branch records per trace at each scale preset used here.
BRANCHES_PER_TRACE = {"default": 20_000, "tiny": 4_000}
SETUP_PROBES = 4
#: Passes per round: one per core (see the module docstring).
CONCURRENT_PASSES = 2


def experiment_argv(workload: str, scale: str, json_path: str) -> list[str]:
    return BATCH_WORKLOADS[workload][scale]["argv"] + [
        "--progress", "--json", json_path]


class Pass:
    """One cold-process experiment pass and what it produced."""

    def __init__(self, workload: str, scale: str, scratch: str,
                 index: int, traced: bool, deadline: Deadline,
                 cpu: int | None = None):
        self.workload = workload
        self.scale = scale
        self.cpu = cpu
        json_path = os.path.join(scratch, f"pass-{index}.json")
        report_path = os.path.join(scratch, f"pass-{index}.report.json")
        stdout_path = os.path.join(scratch, f"pass-{index}.stdout")
        command = [sys.executable, CHILD, "--report", report_path]
        if traced:
            command.append("--trace")
        command += ["--"] + experiment_argv(workload, scale, json_path)
        self.progress: list[tuple[float, str]] = []
        self.stderr_tail: list[str] = []
        self.timed_out = False
        started = time.monotonic()
        with open(stdout_path, "wb") as stdout:
            process = subprocess.Popen(command, env=child_env(), stdout=stdout,
                                       stderr=subprocess.PIPE, text=True)
            if cpu is not None:
                try:
                    os.sched_setaffinity(process.pid, {cpu})
                except OSError:  # already gone: the pass reports why
                    pass
            # Reading stderr blocks, so the run's deadline is enforced by a
            # timer that kills the pass rather than by the read loop.
            killer = threading.Timer(deadline.left(), self._expire, (process,))
            killer.start()
            try:
                for line in process.stderr:
                    arrived = time.monotonic()
                    match = _PROGRESS.match(line.rstrip("\n"))
                    if match:
                        self.progress.append((arrived, match.group(4)))
                    else:
                        self.stderr_tail = (self.stderr_tail + [line])[-20:]
            finally:
                killer.cancel()
                process.stderr.close()
                if process.poll() is None:
                    process.wait(timeout=deadline.left())
                killer.join()
        self.returncode = process.returncode
        self.started = started
        self.ended = time.monotonic()
        self.elapsed = self.ended - started
        self.report = _read_json(report_path)
        self.envelope = _read_bytes(json_path)
        self.stdout = _read_bytes(stdout_path) or b""
        if self.report is not None:
            self.setup_s = self.report["ready"] - started
            self.wall_s = self.report["done"] - self.report["ready"]
        else:
            self.setup_s = self.wall_s = math.nan

    def _expire(self, process: subprocess.Popen) -> None:
        self.timed_out = True
        process.kill()

    @property
    def envelope_sha256(self) -> str | None:
        return sha256_bytes(self.envelope) if self.envelope is not None else None

    def job_latencies(self, scale) -> tuple[list[float], list[float]]:
        """(miss, hit) job latencies in ms, from the progress stream, each
        multiplied by ``scale(cpu, start, end)`` of its interval."""
        miss: list[float] = []
        hit: list[float] = []
        seen: set[str] = set()
        previous = self.report["ready"] if self.report else math.nan
        for arrived, label in self.progress:
            latency = (arrived - previous) * 1000.0 * scale(self.cpu, previous, arrived)
            previous = arrived
            names = label.rsplit(" ", 1)[-1].split("+")
            fresh = any(name not in seen for name in names)
            seen.update(names)
            (miss if fresh else hit).append(latency)
        return miss, hit

    def problems(self, pins: dict) -> list[str]:
        """Why this pass's output is not correct (empty when it is)."""
        spec = BATCH_WORKLOADS[self.workload]
        expected = spec[self.scale]
        found: list[str] = []
        if self.timed_out:
            found.append("timed out")
        if self.returncode != 0:
            found.append(f"exit status {self.returncode}: "
                         f"{''.join(self.stderr_tail)[-1000:]}")
        if len(self.progress) != expected["jobs"]:
            found.append(f"{len(self.progress)} jobs reported, "
                         f"expected {expected['jobs']}")
        if not self.stdout.strip():
            found.append("no text output")
        if self.envelope is None:
            found.append("no JSON envelope")
            return found
        pinned = pins.get(self.workload, {}).get(self.scale)
        if pinned is not None and pinned != self.envelope_sha256:
            found.append(f"envelope sha256 {self.envelope_sha256} != pinned {pinned}")
        found.extend(_envelope_problems(spec["experiment"], expected["rows"],
                                        self.envelope))
        return found


def _envelope_problems(experiment: str, rows: int, data: bytes) -> list[str]:
    try:
        envelope = json.loads(data)
    except ValueError as error:
        return [f"envelope is not JSON: {error}"]
    if envelope.get("spec") != experiment:
        return [f"envelope spec {envelope.get('spec')!r} != {experiment!r}"]
    result = envelope.get("result", {})
    if experiment == "figure3":
        entries = result.get("rows", [])
        values = [value for row in entries
                  for value in row.get("normalized", {}).values()]
        values += [row.get("baseline_oae") for row in entries]
        bounded = all(isinstance(v, float) and 0.0 < v < 2.0 for v in values)
    else:
        entries = result.get("cells", [])
        values = [cell.get(key) for cell in entries
                  for key in ("direction_reduction", "target_reduction",
                              "normalized_hmean_ipc")]
        bounded = all(isinstance(v, float) and math.isfinite(v) for v in values)
    found = []
    if len(entries) != rows:
        found.append(f"{len(entries)} result rows, expected {rows}")
    if not bounded:
        found.append("result values missing or out of range")
    return found


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def _read_bytes(path: str) -> bytes | None:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError:
        return None


def pass_cpus() -> list[int | None]:
    """The CPU each concurrent pass runs on: one each while this process may
    use enough CPUs, otherwise wherever the scheduler puts them (None)."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < CONCURRENT_PASSES:
        return [None] * CONCURRENT_PASSES
    return cpus[:CONCURRENT_PASSES]


def _run_rounds(workload: str, scale: str, scratch: str, seconds: float,
                traced: bool, deadline: Deadline, passes: list[Pass]) -> None:
    """Append to ``passes`` rounds of concurrent passes while another round
    is expected to end within ``seconds`` (at least one; exactly one when
    traced: one untraced and one traced pass)."""
    cpus = pass_cpus()
    measure_start = time.monotonic()
    while True:
        round_started = time.monotonic()
        flags = (False, True) if traced else (False,) * CONCURRENT_PASSES
        with ThreadPoolExecutor(max_workers=len(flags)) as pool:
            futures = [pool.submit(Pass, workload, scale, scratch,
                                   len(passes) + index, flag, deadline,
                                   cpus[index])
                       for index, flag in enumerate(flags)]
            passes += [future.result() for future in futures]
        spent = time.monotonic() - measure_start
        last = time.monotonic() - round_started
        if traced or spent + last > seconds or any(p.timed_out for p in passes):
            return


def run(workload: str, seed: int, seconds: float, traced: bool, scale: str,
        scratch: str, deadline: Deadline) -> dict:
    """Run the workload; returns metrics, correctness and the report.

    ``seed`` changes nothing here: the batch workloads are the published
    grids at the experiments' own default seed.  Other experiment seeds
    change the simulated work (figure5-smt by up to 12% of its wall time,
    single jobs by 20%), more than the benchmark's bounds can absorb, and
    the fixed inputs let every run check its envelope against the pin.
    Untraced runs report times at the reference host's speed (HostSpeed).
    """
    del seed
    pins = load_pins()
    spec = BATCH_WORKLOADS[workload]
    passes: list[Pass] = []
    speed = None if traced else HostSpeed(list(dict.fromkeys(pass_cpus())))
    try:
        probes = [setup_probe(scratch, index, deadline)
                  for index in range(SETUP_PROBES)]
        _run_rounds(workload, scale, scratch, seconds, traced, deadline, passes)
    finally:
        calibrated = speed.stop(deadline) if speed is not None else True
    scale_at = speed.scale if speed is not None else unscaled
    problems: list[str] = []
    if not calibrated:
        problems.append("the host-speed calibration loop failed")
    failed = 0
    for number, done in enumerate(passes):
        found = done.problems(pins)
        failed += bool(found)
        problems += [f"pass {number}: {problem}" for problem in found]
    digests = {done.envelope_sha256 for done in passes}
    if len(digests) != 1:
        # Traced and untraced passes, and repeated passes, must agree byte
        # for byte; which one is wrong is unknown, so none counts as right.
        problems.append(f"passes disagree on the envelope: {sorted(map(str, digests))}")
        failed = len(passes)

    untraced = [done for done in passes if done.report and not done.report["layers"]]
    # Every interval at the reference host's speed (1.0 when traced).
    setups = [setup * scale_at(None, data["ready"] - setup, data["ready"])
              for setup, data in probes]
    setups += [done.setup_s * scale_at(done.cpu, done.started, done.report["ready"])
               for done in passes if done.report]
    commands = [done.elapsed * 1000.0 * scale_at(done.cpu, done.started, done.ended)
                for done in untraced]
    walls = [done.wall_s * scale_at(done.cpu, done.report["ready"], done.report["done"])
             for done in untraced]
    miss_means: list[float] = []
    hit_means: list[float] = []
    for done in untraced:
        miss, hit = done.job_latencies(scale_at)
        miss_means.append(statistics.fmean(miss) if miss else math.nan)
        hit_means.append(statistics.fmean(hit) if hit else math.nan)
    jobs = spec[scale]["jobs"]
    branches = jobs * spec["traces_per_job"] * BRANCHES_PER_TRACE[scale]
    wall = median(walls) if walls else math.nan
    end_to_end = {
        "setup_s": median(setups),
        "wall_s": wall,
        "branches_per_s": branches / wall,
        "peak_rss_mib": median([done.report["peak_rss_kib"] / 1024.0
                                for done in untraced]),
        "latency_p50_ms": median(commands),
        "latency_p95_ms": percentile(commands, 0.95),
        "miss_latency_p50_ms": median(miss_means),
        "hit_latency_p50_ms": median(hit_means),
        "requests_per_s": jobs / wall,
    }
    layers = None
    report: dict = {
        "passes": [{"cpu": done.cpu, "setup_s": done.setup_s, "wall_s": done.wall_s,
                    "scale_to_reference": (
                        scale_at(done.cpu, done.report["ready"], done.report["done"])
                        if done.report else None),
                    "traced": bool(done.report and done.report["layers"]),
                    "envelope_sha256": done.envelope_sha256}
                   for done in passes],
        "backend": probes[0][1]["backend"],
        "numpy": probes[0][1]["numpy"],
    }
    if traced and passes[1].report and passes[1].report["layers"]:
        layers = batch_layers(passes[0], passes[1])
        report["replay_paths"] = passes[1].report["layers"]["paths"]
        report["declines"] = passes[1].report["layers"]["declines"]
        report["layer_self_s"] = passes[1].report["layers"]["self"]
    return {
        "attempted": len(passes),
        "failed": failed,
        "problems": problems,
        "end_to_end": end_to_end,
        "layers": layers,
        "report": report,
    }


def batch_layers(untraced: Pass, traced: Pass) -> dict:
    """Per-layer metrics of a traced pass, against the untraced one."""
    data = traced.report["layers"]
    wall = traced.wall_s
    return layer_metrics({
        **probe_metrics(traced.report),
        "engine.overhead_s": (wall - data["total"].get("execute_job", 0.0)
                              - data["total"].get("post", 0.0)),
        "bench.untraced_wall_s": untraced.wall_s,
        "bench.traced_wall_s": wall,
        "bench.tracing_overhead_ratio": wall / untraced.wall_s - 1.0,
        "bench.unattributed_s": wall - sum(data["self"].values()),
    })
