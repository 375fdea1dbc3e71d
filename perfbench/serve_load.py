"""serve-mixed: closed-loop clients against ``repro serve`` over a disk store.

The server runs as a subprocess, started the way a user starts it
(``python3 -m repro serve --port 0 --store DIR``).  Two client threads, each
on one persistent HTTP/1.1 connection, POST scenarios with ``?wait=1`` and
send the next request only when the previous envelope has fully arrived.
Requests come in blocks of four: one *fresh* single-cell ``trace`` scenario
(never requested before, so it executes and writes the store), then three
*repeats* of a scenario the same client has already completed (served from
the envelope cache).  Which scenarios, in which order, and which repeats are
fixed by the seed and the position in the sequence, never by timing.

Fresh scenarios come from a pool of (model, workload, trace seed) cells,
walked one page (every model x workload at one trace seed) at a time in one
fixed shuffled order.  The order is the same for every seed: which cells run
decides how much work a request does (a cell whose trace is not cached yet
synthesizes it first, and models differ several-fold in replay cost) and how
large the server's trace cache grows, so a seed-dependent order moved the
fresh-request latency and the peak RSS by more than the noise.  The seed picks which completed scenario each
repeat asks for.  The first pages are pinned by envelope SHA-256 in
``pins.json``.

The persistent connections are deliberate: a client that opens a fresh
connection per request hides the delayed-ACK stall a keep-alive client pays
on every response, which ``serve.transport_gap_ms`` keeps visible.

Untraced runs report CPU-bound time at the reference host's speed
(``common.HostSpeed``): the set-up probes run on the first CPU beside a
calibration loop, and each request's time above the stall is scaled by the
loops on both CPUs over its interval (:func:`timings`).  The stall itself
waits on a kernel timer and is left as measured.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import random
import signal
import subprocess
import sys
import threading
import time

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
    stop_process,
)

CLIENTS = 2
REPEATS_PER_FRESH = 3
POOL_MODELS = ("baseline", "ucode_protection_1", "conservative",
               "ST_SKLCond", "ST_TAGE_SC_L_64KB", "ST_PerceptronBP")
BRANCHES = 2_000
WARMUP = 200
SCENARIO_SEED_BASE = 7
PINNED_PAGES = 2
SETUP_PROBES = 4
REQUEST_TIMEOUT_S = 60.0


def list_workloads(deadline: Deadline) -> list[str]:
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "list-workloads"], env=child_env(),
        capture_output=True, text=True, timeout=deadline.left(), check=True)
    return completed.stdout.split()


def scenario_key(model: str, workload: str, trace_seed: int) -> str:
    return f"{model}|{workload}|{trace_seed}"


def scenario_body(key: str) -> bytes:
    model, workload, trace_seed = key.split("|")
    return json.dumps({
        "schema": "repro.scenario/v1",
        "name": "perfbench",
        "kind": "trace",
        "models": [model],
        "workloads": [workload],
        "scale": {"branch_count": BRANCHES, "warmup_branches": WARMUP,
                  "seed": int(trace_seed)},
    }, sort_keys=True).encode("utf-8")


def pool_page(workloads: list[str], page: int) -> list[str]:
    """Every model x workload cell at the page's trace seed, in pool order."""
    return [scenario_key(model, workload, SCENARIO_SEED_BASE + page)
            for workload in workloads for model in POOL_MODELS]


class Plan:
    """The request sequence: fresh cells in pool order, seeded repeats."""

    def __init__(self, seed: int, workloads: list[str]):
        self.seed = seed
        self.workloads = workloads
        self._pages: dict[int, list[str]] = {}
        self._lock = threading.Lock()

    def fresh(self, client: int, block: int) -> str:
        index = block * CLIENTS + client
        size = len(POOL_MODELS) * len(self.workloads)
        page, offset = divmod(index, size)
        with self._lock:
            if page not in self._pages:
                cells = pool_page(self.workloads, page)
                random.Random(f"perfbench:page:{page}").shuffle(cells)
                self._pages[page] = cells
            return self._pages[page][offset]

    def repeat_chooser(self, client: int) -> random.Random:
        return random.Random(f"perfbench:{self.seed}:client:{client}")


class Server:
    """One ``repro serve`` subprocess over its own fresh store directory,
    on CPU ``cpu`` when one is given."""

    def __init__(self, scratch: str, name: str, traced: bool, deadline: Deadline,
                 cpu: int | None = None):
        self.report_path = os.path.join(scratch, f"{name}.report.json")
        store = os.path.join(scratch, f"{name}.store")
        serve = ["serve", "--port", "0", "--store", store]
        if traced:
            command = [sys.executable, CHILD, "--report", self.report_path,
                       "--trace", "--"] + serve
        else:
            command = [sys.executable, "-m", "repro"] + serve
        self._log = open(os.path.join(scratch, f"{name}.log"), "wb")
        started = time.monotonic()
        self.process = subprocess.Popen(command, env=child_env(),
                                        stdout=subprocess.PIPE,
                                        stderr=self._log, text=True)
        if cpu is not None:
            try:
                os.sched_setaffinity(self.process.pid, {cpu})
            except OSError:  # already gone: the start-up check reports it
                pass
        killer = threading.Timer(deadline.left(), self.process.kill)
        killer.start()
        try:
            line = self.process.stdout.readline()
        finally:
            killer.cancel()
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        address = line.split("http://", 1)[1].split()[0]
        self.port = int(address.rsplit(":", 1)[1])
        connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                timeout=REQUEST_TIMEOUT_S)
        try:
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            response.read()
            if response.status != 200:
                raise RuntimeError(f"/healthz answered {response.status}")
        finally:
            connection.close()
        self.started = started
        self.ready = time.monotonic()

    def peak_rss_mib(self) -> float:
        try:
            with open(f"/proc/{self.process.pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return math.nan

    def metrics(self) -> dict[str, float]:
        """The server's ``/v1/metrics`` series as ``{name{labels}: value}``."""
        connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                timeout=REQUEST_TIMEOUT_S)
        try:
            connection.request("GET", "/v1/metrics")
            text = connection.getresponse().read().decode("utf-8")
        finally:
            connection.close()
        series = {}
        for line in text.splitlines():
            if line and not line.startswith("#"):
                name, value = line.rsplit(" ", 1)
                series[name] = float(value)
        return series

    def stop(self) -> None:
        stop_process(self.process)
        self.process.stdout.close()
        self._log.close()


class Checker:
    """Correctness of every response: pins, repeats and traced vs untraced."""

    def __init__(self, pins: dict[str, str]):
        self.pins = pins
        self._first: dict[str, bytes] = {}
        self._lock = threading.Lock()
        self.problems: list[str] = []
        self.pinned_checked = 0
        self.cache_header_mismatches = 0

    def check(self, key: str, status: int, body: bytes, cache: str | None,
              fresh: bool) -> bool:
        found = None
        if status != 200:
            found = f"{key}: HTTP {status}"
        else:
            pinned = self.pins.get(key)
            digest = sha256_bytes(body)
            with self._lock:
                first = self._first.setdefault(key, body)
                if pinned is not None:
                    self.pinned_checked += 1
                if cache != ("miss" if fresh else "hit"):
                    self.cache_header_mismatches += 1
            if pinned is not None and digest != pinned:
                found = f"{key}: envelope sha256 {digest} != pinned {pinned}"
            elif first != body:
                found = f"{key}: envelope differs from its first response"
            elif first is body:
                found = envelope_problem(key, body)
        if found is not None:
            self.fail(found)
        return found is None

    def fail(self, problem: str) -> None:
        with self._lock:
            self.problems.append(problem)


def envelope_problem(key: str, body: bytes) -> str | None:
    try:
        envelope = json.loads(body)
        records = envelope["result"]["records"]
        value = records[0]["metrics"]["oae_accuracy"]
    except (ValueError, KeyError, IndexError, TypeError) as error:
        return f"{key}: malformed envelope ({error!r})"
    model, workload, _ = key.split("|")
    if envelope.get("schema") != "repro.scenario/v1" or len(records) != 1:
        return f"{key}: unexpected envelope shape"
    if records[0].get("model") != model or records[0].get("workload") != workload:
        return f"{key}: envelope is for another cell"
    if not 0.0 < value <= 1.0:
        return f"{key}: oae_accuracy {value} out of range"
    return None


class ClientLog:
    """What one client thread sent: the (start, end, fresh, block) of every
    completed request on the monotonic clock, and the counts."""

    def __init__(self):
        self.requests: list[tuple[float, float, bool, tuple[int, int]]] = []
        self.attempted = 0
        self.failed = 0


def _client(port: int, client: int, plan: Plan, checker: Checker,
            stop_at: float, log: ClientLog) -> None:
    chooser = plan.repeat_chooser(client)
    completed: list[str] = []
    connection = http.client.HTTPConnection("127.0.0.1", port,
                                            timeout=REQUEST_TIMEOUT_S)
    block = 0
    try:
        while time.monotonic() < stop_at:
            fresh_key = plan.fresh(client, block)
            for position in range(1 + REPEATS_PER_FRESH):
                fresh = position == 0
                if fresh or not completed:
                    key = fresh_key
                else:
                    key = completed[chooser.randrange(len(completed))]
                log.attempted += 1
                started = time.monotonic()
                if not _post(connection, key, fresh, checker):
                    log.failed += 1
                    continue
                log.requests.append((started, time.monotonic(), fresh,
                                     (client, block)))
                if fresh:
                    completed.append(key)
            block += 1
    except Exception as error:  # a dead client must fail the run, not shrink it
        log.failed += 1
        checker.fail(f"client {client} stopped: {error!r}")
    finally:
        connection.close()


def _post(connection: http.client.HTTPConnection, key: str, fresh: bool,
          checker: Checker) -> bool:
    """POST one scenario and wait for its envelope; whether it was right."""
    try:
        connection.request("POST", "/v1/experiments?wait=1",
                           body=scenario_body(key),
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        body = response.read()
    except (OSError, http.client.HTTPException) as error:
        checker.fail(f"{key}: {error!r}")
        connection.close()  # http.client reconnects on the next request
        return False
    return checker.check(key, response.status, body,
                         response.getheader("X-Repro-Cache"), fresh)


def warm_up(server: "Server", workloads: list[str], checker: Checker) -> None:
    """One request per pool model, outside the pool, before the clock: a
    long-running server has long since paid its lazy imports and first
    kernel builds, so the measurement should not include them."""
    connection = http.client.HTTPConnection("127.0.0.1", server.port,
                                            timeout=REQUEST_TIMEOUT_S)
    try:
        for model in POOL_MODELS:
            key = scenario_key(model, workloads[0], SCENARIO_SEED_BASE - 1)
            if not _post(connection, key, True, checker):
                raise RuntimeError(f"warm-up request {key} failed: "
                                   f"{checker.problems[-1:]}")
    finally:
        connection.close()


def run_phase(server: Server, plan: Plan, checker: Checker,
              seconds: float) -> dict:
    """Drive ``server`` with every client for ``seconds``; merged logs."""
    logs = [ClientLog() for _ in range(CLIENTS)]
    started = time.monotonic()
    stop_at = started + seconds
    threads = [threading.Thread(target=_client,
                                args=(server.port, client, plan, checker,
                                      stop_at, logs[client]),
                                name=f"perfbench-client-{client}")
               for client in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.monotonic() - started
    merged = {"requests": [request for log in logs for request in log.requests]}
    merged["attempted"] = sum(log.attempted for log in logs)
    merged["failed"] = sum(log.failed for log in logs)
    merged["elapsed"] = elapsed
    return merged


def timings(load: dict, scale) -> dict:
    """A phase's latencies and blocks of four requests (ms and s), and its
    elapsed seconds, with each request's time above the stall multiplied by
    ``scale(cpu, start, end)`` of its interval.

    The stall is the median cached repeat: a delayed ACK that waits on a
    kernel timer (see the module docstring), whatever the host's speed; the
    time above it is the server's work, which follows the host's speed.
    """
    requests = load["requests"]
    raw = [end - start for start, end, _, _ in requests]
    stall = median([latency for latency, (_, _, fresh, _) in zip(raw, requests)
                    if not fresh] or [0.0])
    latencies: list[float] = []
    fresh_ms: list[float] = []
    repeat_ms: list[float] = []
    blocks: dict[tuple[int, int], float] = {}
    for (start, end, fresh, block), latency in zip(requests, raw):
        excess = max(latency - stall, 0.0)
        latency += excess * (scale(None, start, end) - 1.0)
        latencies.append(latency * 1000.0)
        (fresh_ms if fresh else repeat_ms).append(latency * 1000.0)
        blocks[block] = blocks.get(block, 0.0) + latency
    return {
        "latencies": latencies,
        "fresh": fresh_ms,
        "repeat": repeat_ms,
        "blocks": list(blocks.values()),
        # Closed-loop clients: the phase lasts as long as their requests.
        "elapsed": (load["elapsed"] * sum(latencies) / 1000.0 / sum(raw)
                    if raw else math.nan),
        "stall_ms": stall * 1000.0,
    }


def run(workload: str, seed: int, seconds: float, traced: bool, scale: str,
        scratch: str, deadline: Deadline) -> dict:
    """Run serve-mixed; returns metrics, correctness and the report."""
    del workload  # one serve workload
    if scale == "tiny":
        seconds = min(seconds, 2.0)
    _, facts = setup_probe(scratch, 0, deadline)
    workloads = list_workloads(deadline)
    plan = Plan(seed, workloads)
    pins = load_pins().get("serve-mixed", {})
    checker = Checker(pins)
    # Set-up probes run each on the first CPU, and the untraced load on
    # both, beside calibration loops: CPU-bound time is reported at the
    # reference host's speed (see HostSpeed and timings).
    cpus = sorted(os.sched_getaffinity(0))[:2]
    speed = None if traced else HostSpeed(cpus)
    scale_at = speed.scale if speed is not None else unscaled
    setups = []
    results = {}
    try:
        for index in range(SETUP_PROBES):
            probe = Server(scratch, f"setup-{index}", False, deadline, cpus[0])
            probe.stop()
            setups.append((probe.started, probe.ready))
        phases = [("untraced", False)] + ([("traced", True)] if traced else [])
        share = seconds / len(phases)
        for name, with_probes in phases:
            server = Server(scratch, name, with_probes, deadline)
            try:
                warm_up(server, workloads, checker)
                before = None
                if with_probes:
                    server.process.send_signal(signal.SIGUSR1)
                    before = server.metrics()
                load = run_phase(server, plan, checker, share)
                load["metrics"] = (_delta(server.metrics(), before)
                                   if with_probes else None)
                load["peak_rss_mib"] = server.peak_rss_mib()
            finally:
                server.stop()
            if with_probes:
                with open(server.report_path, "r", encoding="utf-8") as handle:
                    load["report"] = json.load(handle)
            results[name] = load
    finally:
        calibrated = speed.stop(deadline) if speed is not None else True
    if not calibrated:
        checker.fail("the host-speed calibration loop failed")
    setup_scales = [scale_at(cpus[0], start, end) for start, end in setups]
    results["untraced"].update(timings(results["untraced"], scale_at))
    if traced:
        results["traced"].update(timings(results["traced"], unscaled))

    untraced = results["untraced"]
    block = median(untraced["blocks"])
    end_to_end = {
        "setup_s": median([(end - start) * factor
                           for (start, end), factor in zip(setups, setup_scales)]),
        "wall_s": block,
        "branches_per_s": BRANCHES / block,
        "peak_rss_mib": untraced["peak_rss_mib"],
        "latency_p50_ms": median(untraced["latencies"]),
        "latency_p95_ms": percentile(untraced["latencies"], 0.95),
        "miss_latency_p50_ms": median(untraced["fresh"]),
        "hit_latency_p50_ms": median(untraced["repeat"]),
        "requests_per_s": len(untraced["latencies"]) / untraced["elapsed"],
    }
    report = {
        "requests": {name: len(load["latencies"]) for name, load in results.items()},
        "fresh": {name: len(load["fresh"]) for name, load in results.items()},
        "pinned_checked": checker.pinned_checked,
        "cache_header_mismatches": checker.cache_header_mismatches,
        "backend": facts["backend"],
        "numpy": facts["numpy"],
        "setup_scale_to_reference": setup_scales,
        "stall_ms": untraced["stall_ms"],
    }
    layers = None
    if traced:
        layers = serve_layers(untraced, results["traced"])
        probe_report = results["traced"]["report"]
        report["replay_paths"] = probe_report["layers"]["paths"]
        report["declines"] = probe_report["layers"]["declines"]
        report["layer_self_s"] = probe_report["layers"]["self"]
    return {
        "attempted": sum(load["attempted"] for load in results.values()),
        "failed": sum(load["failed"] for load in results.values()),
        "problems": checker.problems,
        "end_to_end": end_to_end,
        "layers": layers,
        "report": report,
    }


def _delta(after: dict[str, float], before: dict[str, float]) -> dict[str, float]:
    return {name: value - before.get(name, 0.0) for name, value in after.items()}


def _series(metrics: dict[str, float], prefix: str, **labels: str) -> float:
    """Sum of the series named ``prefix`` whose labels include ``labels``."""
    total = 0.0
    for name, value in metrics.items():
        base, _, rest = name.partition("{")
        if base != prefix:
            continue
        if all(f'{key}="{wanted}"' in rest for key, wanted in labels.items()):
            total += value
    return total


def _mean_ms(metrics: dict[str, float], prefix: str, **labels: str) -> float:
    count = _series(metrics, prefix + "_count", **labels)
    return _series(metrics, prefix + "_sum", **labels) / count * 1000.0 if count else 0.0


def serve_layers(untraced: dict, traced: dict) -> dict:
    """Per-layer metrics: /v1/metrics deltas plus the server's layer probes."""
    series = traced["metrics"]
    data = traced["report"]["layers"]
    handler_ms = _mean_ms(series, "repro_http_request_seconds",
                          route="/v1/experiments")
    client_mean_ms = (sum(traced["latencies"]) / len(traced["latencies"])
                      if traced["latencies"] else 0.0)
    untraced_wall = median(untraced["blocks"])
    traced_wall = median(traced["blocks"])
    return layer_metrics({
        **probe_metrics(traced["report"]),
        "engine.overhead_s": (_series(series, "repro_jobs_seconds_sum")
                              - data["total"].get("execute_job", 0.0)
                              - data["total"].get("post", 0.0)),
        "store.hits": _series(series, "repro_store_hits_total"),
        "store.misses": _series(series, "repro_store_misses_total"),
        "store.writes": _series(series, "repro_store_writes_total"),
        "store.op_mean_ms": _mean_ms(series, "repro_store_op_seconds"),
        "jobs.run_mean_ms": _mean_ms(series, "repro_jobs_seconds", state="done"),
        "jobs.completed": _series(series, "repro_jobs_transitions_total",
                                  state="done"),
        "jobs.retries": _series(series, "repro_jobs_retries_total"),
        "serve.handler_mean_ms": handler_ms,
        "serve.transport_gap_ms": client_mean_ms - handler_ms,
        "serve.rejected_429": _series(series, "repro_http_requests_total",
                                      status="429"),
        "bench.untraced_wall_s": untraced_wall,
        "bench.traced_wall_s": traced_wall,
        "bench.tracing_overhead_ratio": traced_wall / untraced_wall - 1.0,
        "bench.unattributed_s": (sum(traced["latencies"]) / 1000.0
                                 - sum(data["self"].values())),
    })
