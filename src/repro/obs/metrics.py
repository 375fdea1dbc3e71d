"""Process-wide metrics registry: counters, gauges and histograms.

One :class:`MetricsRegistry` per process (:func:`registry`) collects every
subsystem's counters behind a single lock — the serve tier mutates it from
many handler threads, the job tier from its worker pool, and the engine from
whichever thread drives a run.  Owners keep their private bookkeeping
(:class:`repro.store.base.StoreCounters`, the JobManager's stats, the
fault injector's per-kind counts) and *bridge* into the registry at their
existing mutation points, so nothing changes hands — the registry is a
read-side aggregation, never an execution dependency.

Design rules:

* every mutation happens under ``self._lock`` (the thread-safety lint rule
  covers ``repro.obs``);
* the lock is a strict leaf: no callback, no store or job-tier code ever
  runs while it is held — :meth:`MetricsRegistry.snapshot` evaluates
  registered gauge callbacks *before* taking the lock, so a callback may
  freely acquire its owner's lock (JobManager stats, DiskStore occupancy)
  without creating a cross-module lock cycle;
* rendering (:meth:`render_prometheus`) is deterministic: families and
  samples sort by name and label set, so two scrapes of identical state are
  byte-identical.

The module is stdlib-only and imports nothing from ``repro`` — it sits at
the bottom of the import graph so every layer can bridge into it.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable

#: Default histogram bucket upper bounds, in seconds.  Chosen to straddle
#: the stack's real latencies: sub-ms store hits, ~10-100ms quick-grid
#: jobs, multi-second full scenario runs.
DEFAULT_BUCKETS: tuple[float, ...] = (0.005, 0.02, 0.1, 0.5, 2.5, 10.0)

#: Help text for the well-known series (the metric catalogue; also
#: documented in EXPERIMENTS.md).  Families not listed here render with an
#: empty HELP line unless the caller passes ``help=``.
HELP_TEXT: dict[str, str] = {
    "repro_store_hits_total": "Store reads resolved from cache.",
    "repro_store_misses_total": "Store reads that missed (absent or corrupt).",
    "repro_store_writes_total": "Store writes.",
    "repro_store_evictions_total":
        "Records evicted by `repro store gc --max-bytes`.",
    "repro_store_corrupt_total": "Corrupt entries dropped on read.",
    "repro_store_retried_total": "Store writes that needed a retry.",
    "repro_store_entries": "Entries currently in the serve store.",
    "repro_store_bytes": "Bytes currently in the serve store.",
    "repro_store_op_seconds": "Store get/put latency.",
    "repro_jobs_submitted_total": "Jobs accepted by the job tier.",
    "repro_jobs_transitions_total": "Job state transitions, by target state.",
    "repro_jobs_retries_total": "Job attempts re-enqueued after a failure.",
    "repro_jobs_queue_depth": "Jobs currently queued (not yet running).",
    "repro_jobs_workers_alive": "Job-tier worker threads alive.",
    "repro_jobs_running": "Jobs currently executing.",
    "repro_jobs_seconds": "Wall-clock seconds per finished job attempt.",
    "repro_engine_jobs_executed_total": "Engine jobs actually simulated.",
    "repro_engine_jobs_cached_total": "Engine jobs served from the store.",
    "repro_trace_cache_hits_total": "Workload trace-cache hits.",
    "repro_trace_cache_misses_total": "Workload trace-cache misses.",
    "repro_trace_cache_evictions_total": "Workload trace-cache evictions.",
    "repro_trace_cache_entries": "Workload traces currently cached.",
    "repro_replay_declines_total":
        "Replays the vector backend declined to the reference loop, "
        "by model and job kind.",
    "repro_replay_spans_total":
        "Vector-backend spans replayed, by model and job kind.",
    "repro_replay_branches_total":
        "Branches the vector backend replayed, by model and job kind.",
    "repro_replay_prepared_branches_total":
        "Branches whose span inputs the vector backend prepared, by model "
        "and job kind; prepared minus replayed is work discarded at "
        "re-randomizations.",
    "repro_replay_loop_branches_total":
        "Branches the vector backend replayed in its per-branch loop, by "
        "model and job kind.",
    "repro_faults_injected_total": "Injected store faults, by kind.",
    "repro_http_requests_total": "Serve HTTP requests, by method/route/status.",
    "repro_http_request_seconds": "Serve HTTP request latency, by route.",
    "repro_obs_callback_errors_total": "Gauge callbacks that raised.",
}

_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str]) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(key: _LabelKey, extra: tuple[tuple[str, str], ...] = ()) \
        -> str:
    pairs = key + extra
    if not pairs:
        return ""
    inner = ",".join(f'{name}="{_escape_label(value)}"'
                     for name, value in pairs)
    return "{" + inner + "}"


class MetricsRegistry:
    """Thread-safe counter/gauge/histogram families with label support.

    Families are created implicitly on first touch; re-using a name with a
    different instrument type raises ``ValueError`` (a miswired bridge is a
    bug worth failing loudly on).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._types: dict[str, str] = {}
        self._help: dict[str, str] = {}
        self._buckets: dict[str, tuple[float, ...]] = {}
        # family name -> label key -> value (counters/gauges) or
        # {"counts": [per-bucket..., overflow], "sum": float} (histograms).
        self._values: dict[str, dict[_LabelKey, Any]] = {}
        self._callbacks: list[Callable[[], None]] = []

    # ------------------------------------------------------------- mutation

    def inc(self, name: str, value: float = 1.0, *,
            help: str | None = None, **labels: str) -> None:
        """Add ``value`` to a counter sample (negative deltas allowed: the
        store bridge mirrors rare hit→miss reclassifications verbatim)."""
        key = _label_key(labels)
        with self._lock:
            self._check_kind(name, "counter")
            self._types[name] = "counter"
            self._help[name] = self._help_for(name, help)
            samples = self._values.setdefault(name, {})
            samples[key] = samples.get(key, 0.0) + value

    def set_counter(self, name: str, value: float, *,
                    help: str | None = None, **labels: str) -> None:
        """Set a counter sample to an absolute value — for bridging owners
        that keep their own cumulative counts (e.g. the trace cache)."""
        key = _label_key(labels)
        with self._lock:
            self._check_kind(name, "counter")
            self._types[name] = "counter"
            self._help[name] = self._help_for(name, help)
            samples = self._values.setdefault(name, {})
            samples[key] = float(value)

    def set_gauge(self, name: str, value: float, *,
                  help: str | None = None, **labels: str) -> None:
        key = _label_key(labels)
        with self._lock:
            self._check_kind(name, "gauge")
            self._types[name] = "gauge"
            self._help[name] = self._help_for(name, help)
            samples = self._values.setdefault(name, {})
            samples[key] = float(value)

    def observe(self, name: str, value: float, *,
                buckets: Iterable[float] | None = None,
                help: str | None = None, **labels: str) -> None:
        key = _label_key(labels)
        with self._lock:
            self._check_kind(name, "histogram")
            self._types[name] = "histogram"
            self._help[name] = self._help_for(name, help)
            bounds = self._buckets.get(name)
            if bounds is None:
                bounds = tuple(sorted(buckets)) if buckets is not None \
                    else DEFAULT_BUCKETS
                self._buckets[name] = bounds
            samples = self._values.setdefault(name, {})
            sample = samples.get(key)
            if sample is None:
                sample = {"counts": [0] * (len(bounds) + 1), "sum": 0.0}
                samples[key] = sample
            slot = len(bounds)
            for index, bound in enumerate(bounds):
                if value <= bound:
                    slot = index
                    break
            sample["counts"][slot] += 1
            sample["sum"] += value

    def _check_kind(self, name: str, kind: str) -> None:
        """Reject re-use of a family name with a different instrument type
        (a miswired bridge is a bug worth failing loudly on).  Read-only;
        callers hold the lock and then (re-)record type and help."""
        known = self._types.get(name)
        if known is not None and known != kind:
            raise ValueError(f"metric {name!r} is a {known}, not a {kind}")

    def _help_for(self, name: str, help_text: str | None) -> str:
        if help_text is not None:
            return help_text
        return self._help.get(name) or HELP_TEXT.get(name, "")

    def register_callback(self, callback: Callable[[], None]) -> None:
        """Register a zero-arg callable run by :meth:`snapshot` (outside the
        registry lock) to refresh live gauges before each read."""
        with self._lock:
            self._callbacks.append(callback)

    def reset(self) -> None:
        """Drop every sample (callbacks survive) — test isolation hook."""
        with self._lock:
            self._types.clear()
            self._help.clear()
            self._buckets.clear()
            self._values.clear()

    # ---------------------------------------------------------------- reads

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """A deep copy of every family, after refreshing gauge callbacks.

        Callbacks run *outside* the lock: they may acquire their owner's
        locks and bridge values back in through the public mutators.
        """
        with self._lock:
            callbacks = list(self._callbacks)
        for callback in callbacks:
            try:
                callback()
            except Exception:
                self.inc("repro_obs_callback_errors_total")
        families: dict[str, dict[str, Any]] = {}
        with self._lock:
            for name in sorted(self._types):
                kind = self._types[name]
                samples = []
                for key in sorted(self._values[name]):
                    value = self._values[name][key]
                    if kind == "histogram":
                        value = {"counts": list(value["counts"]),
                                 "sum": value["sum"]}
                    samples.append({"labels": dict(key), "value": value})
                family: dict[str, Any] = {
                    "type": kind,
                    "help": self._help[name],
                    "samples": samples,
                }
                if kind == "histogram":
                    family["buckets"] = list(self._buckets[name])
                families[name] = family
        return families

    def render_prometheus(self) -> str:
        """Prometheus text exposition (format 0.0.4), deterministically
        ordered: families by name, samples by label set."""
        lines: list[str] = []
        for name, family in self.snapshot().items():
            if family["help"]:
                lines.append(f"# HELP {name} {family['help']}")
            lines.append(f"# TYPE {name} {family['type']}")
            for sample in family["samples"]:
                key = _label_key(sample["labels"])
                if family["type"] == "histogram":
                    value = sample["value"]
                    cumulative = 0
                    for bound, count in zip(family["buckets"],
                                            value["counts"]):
                        cumulative += count
                        labels = _render_labels(
                            key, (("le", _format_value(bound)),))
                        lines.append(
                            f"{name}_bucket{labels} {cumulative}")
                    cumulative += value["counts"][-1]
                    labels = _render_labels(key, (("le", "+Inf"),))
                    lines.append(f"{name}_bucket{labels} {cumulative}")
                    lines.append(f"{name}_sum{_render_labels(key)} "
                                 f"{_format_value(value['sum'])}")
                    lines.append(f"{name}_count{_render_labels(key)} "
                                 f"{cumulative}")
                else:
                    lines.append(f"{name}{_render_labels(key)} "
                                 f"{_format_value(sample['value'])}")
        return "\n".join(lines) + ("\n" if lines else "")


_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide registry every subsystem bridges into."""
    return _REGISTRY


def inc(name: str, value: float = 1.0, **labels: str) -> None:
    _REGISTRY.inc(name, value, **labels)


def set_counter(name: str, value: float, **labels: str) -> None:
    _REGISTRY.set_counter(name, value, **labels)


def set_gauge(name: str, value: float, **labels: str) -> None:
    _REGISTRY.set_gauge(name, value, **labels)


def observe(name: str, value: float, **labels: str) -> None:
    _REGISTRY.observe(name, value, **labels)


def register_callback(callback: Callable[[], None]) -> None:
    _REGISTRY.register_callback(callback)


def render_prometheus() -> str:
    return _REGISTRY.render_prometheus()
