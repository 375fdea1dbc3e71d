"""Workload registry and the shared, bounded trace cache.

Workloads are addressable by name (``"505.mcf"``), by category
(``"spec"``, ``"application"``, ``"all"``) or by the paper's curated sets
(``"gem5-single"``, ``"gem5-smt"`` for SMT pairs).  The trace cache memoises
synthetic traces per ``(workload, branch_count, seed)`` so that every job in a
grid — and every driver in a session — replays the identical trace object;
forked pool workers inherit it as it stood when their run began.
The cache is a capped LRU: grids expand workload-major, so consecutive jobs
reuse the hot entry while million-job scenario sweeps can no longer grow
memory without bound.  Hit/miss counters are exposed for the bench report
(:func:`trace_cache_stats`).  ``repro serve`` runs several job-worker threads
through the one cache, so its dict and counters change only under a lock,
held around dict operations and never across synthesis.
"""

from __future__ import annotations

import os
import threading
import weakref
from collections import OrderedDict
from typing import Iterable, Sequence

from repro.obs import metrics as obs_metrics
from repro.trace.branch import Trace
from repro.trace.synthetic import generate_trace
from repro.trace.workloads import (
    GEM5_SINGLE_WORKLOADS,
    GEM5_SMT_PAIRS,
    get_workload,
    list_workloads,
)

#: A single workload name or an SMT pair of names.
WorkloadKey = str | tuple[str, str]

#: Named workload groups resolvable in grid declarations and on the CLI.
WORKLOAD_GROUPS: dict[str, tuple[str, ...]] = {
    "gem5-single": GEM5_SINGLE_WORKLOADS,
}

#: Default bound of the trace cache, in traces.  Grids expand workload-major,
#: so this comfortably covers every built-in grid's distinct traces while
#: bounding unbounded sweeps.
TRACE_CACHE_CAPACITY = 64

TraceKey = tuple[str, int, int]


class TraceCache:
    """LRU-bounded memoisation of synthetic traces with hit/miss counters.

    Thread-safe: every read and update of the entries and counters holds
    ``_lock``.  A forked child gets a fresh lock (see
    :func:`_reset_locks_after_fork`), because a run may fork its pool while
    another thread holds it.
    """

    def __init__(self, capacity: int = TRACE_CACHE_CAPACITY):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: OrderedDict[TraceKey, Trace] = OrderedDict()
        self._lock = threading.Lock()
        _CACHES.add(self)

    def get(self, key: TraceKey) -> Trace | None:
        with self._lock:
            trace = self._entries.get(key)
            if trace is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return trace

    def put(self, key: TraceKey, trace: Trace) -> None:
        with self._lock:
            entries = self._entries
            entries[key] = trace
            entries.move_to_end(key)
            while len(entries) > self.capacity:
                entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


#: Every live cache, so a forked child can replace their locks.
_CACHES: weakref.WeakSet[TraceCache] = weakref.WeakSet()


def _reset_locks_after_fork() -> None:
    """Give each cache a fresh lock in a forked child.

    ``fork`` copies only the forking thread, so a lock another thread held
    at that moment would stay held in the child forever.
    """
    for cache in _CACHES:
        cache._lock = threading.Lock()


os.register_at_fork(after_in_child=_reset_locks_after_fork)

_TRACE_CACHE = TraceCache()


def _bridge_trace_cache() -> None:
    """Refresh the registry's trace-cache series from the LRU's counters;
    registered below so every ``/v1/metrics`` scrape reads live values."""
    stats = _TRACE_CACHE.stats()
    obs_metrics.set_counter("repro_trace_cache_hits_total", stats["hits"])
    obs_metrics.set_counter("repro_trace_cache_misses_total",
                            stats["misses"])
    obs_metrics.set_counter("repro_trace_cache_evictions_total",
                            stats["evictions"])
    obs_metrics.set_gauge("repro_trace_cache_entries", stats["size"])


obs_metrics.register_callback(_bridge_trace_cache)


def trace_for(name: str, branch_count: int, seed: int) -> Trace:
    """Return (memoised) the synthetic trace for one workload.

    A cache miss runs the deterministic generator, so a worker process that
    did not inherit the parent's cache regenerates the identical trace.
    """
    key = (name, branch_count, seed)
    trace = _TRACE_CACHE.get(key)
    if trace is None:
        trace = generate_trace(name, seed=seed, branch_count=branch_count)
        _TRACE_CACHE.put(key, trace)
    return trace


def trace_cache_stats() -> dict[str, int]:
    """Current size/capacity and cumulative hit/miss/eviction counters."""
    return _TRACE_CACHE.stats()


def clear_trace_cache() -> None:
    """Drop memoised traces (used by tests that tune generation parameters)."""
    _TRACE_CACHE.clear()


def resolve_workloads(selection: str | Iterable[str] | None = None) -> list[str]:
    """Expand a workload selection into a list of concrete workload names.

    ``None``/``"all"`` resolve to every workload; ``"spec"`` and
    ``"application"`` filter by category; group names from
    :data:`WORKLOAD_GROUPS` expand to their members; anything else must be a
    known workload name (validated, with a helpful error otherwise).
    Overlapping selections (``all spec``, a name listed twice) are deduplicated
    keeping first-occurrence order, so a grid never runs the same cell twice.
    """
    if selection is None:
        return list_workloads()
    if isinstance(selection, str):
        selection = [selection]
    names: list[str] = []
    for entry in selection:
        if entry == "all":
            names.extend(list_workloads())
        elif entry in ("spec", "application"):
            names.extend(list_workloads(entry))
        elif entry in WORKLOAD_GROUPS:
            names.extend(WORKLOAD_GROUPS[entry])
        else:
            names.append(get_workload(entry).name)
    return list(dict.fromkeys(names))


def resolve_smt_pairs(
    selection: str | Sequence[tuple[str, str] | str] | None = None,
) -> list[tuple[str, str]]:
    """Expand an SMT pair selection into ``(workload_a, workload_b)`` tuples.

    ``None``/``"gem5-smt"`` resolve to the paper's 31 Figure 5 pairs; strings
    of the form ``"a+b"`` name one explicit pair.
    """
    if selection is None or selection == "gem5-smt":
        return list(GEM5_SMT_PAIRS)
    if isinstance(selection, str):
        selection = [selection]
    pairs: list[tuple[str, str]] = []
    for entry in selection:
        if isinstance(entry, str):
            if entry == "gem5-smt":
                pairs.extend(GEM5_SMT_PAIRS)
                continue
            left, separator, right = entry.partition("+")
            if not separator:
                raise ValueError(
                    f"SMT pair {entry!r} must be written as 'workload_a+workload_b'"
                )
            entry = (left, right)
        workload_a, workload_b = entry
        pairs.append((get_workload(workload_a).name, get_workload(workload_b).name))
    return pairs


def workload_label(workload: WorkloadKey) -> str:
    """Canonical display label: the name itself, or ``a+b`` for SMT pairs."""
    if isinstance(workload, tuple):
        return "+".join(workload)
    return workload
