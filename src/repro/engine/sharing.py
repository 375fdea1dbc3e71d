"""Zero-copy trace shipping between the runner and its worker processes.

With the ``fork`` start method, worker processes inherit the parent's trace
cache for free.  Everywhere else (``spawn`` platforms, or pools started with
an explicit ``start_method="spawn"``) every job used to re-generate its trace
from scratch inside the worker.  This module instead packs the *columnar*
form of each distinct trace — the ndarrays the vector backend replays plus a
compact event/segment table — into one :mod:`multiprocessing.shared_memory`
block.  Workers attach the block and map the arrays in place (no copy, no
pickle of per-branch objects) and install :class:`SharedTrace` objects into
their local trace cache.

A :class:`SharedTrace` satisfies every consumer of a real
:class:`~repro.trace.branch.Trace`: the vector backend reads the mapped
arrays directly, while the reference replay loop (and SMT trace merging)
materialises :class:`~repro.trace.branch.BranchRecord` objects lazily from
the same arrays — bit-identical to the generator's output, paid only when
the reference loop actually runs.
"""

from __future__ import annotations

from multiprocessing import shared_memory

import numpy as np

from repro.engine.workloads import TraceKey, install_trace, register_trace_source
from repro.trace.branch import (
    BRANCH_TYPES_BY_CODE,
    BranchRecord,
    EventKind,
    PrivilegeMode,
    Trace,
    TraceArrays,
    TraceEvent,
)

_EVENT_KINDS = tuple(EventKind)
_EVENT_CODE = {kind: code for code, kind in enumerate(_EVENT_KINDS)}
#: Segment sentinel for the final (event-less) run.
_NO_EVENT = -1

#: Column name -> dtype of the shipped per-branch arrays.
_BRANCH_COLUMNS = (
    ("ips", np.uint64),
    ("targets", np.uint64),
    ("takens", np.bool_),
    ("types", np.uint8),
    ("context_ids", np.int64),
    ("kernel_modes", np.bool_),
)

#: Per-segment columns: branch run bounds plus the trailing event (if any).
_SEGMENT_COLUMNS = (
    ("seg_starts", np.int64),
    ("seg_stops", np.int64),
    ("event_kinds", np.int64),
    ("event_contexts", np.int64),
)


class SharedColumns:
    """Columnar trace view backed by shared memory.

    Provides what the vector backend and :class:`SharedTrace` read of a
    ``TraceColumns``: the zero-copy :meth:`arrays`, the ``segments`` and the
    :class:`BranchRecord` list, which materialises lazily on first access.
    """

    def __init__(self, item_count: int, arrays: TraceArrays,
                 segments: list[tuple[int, int, TraceEvent | None]]):
        self.item_count = item_count
        self.segments = segments
        self._trace_arrays = arrays
        self._branches: list[BranchRecord] | None = None

    def arrays(self) -> TraceArrays:
        return self._trace_arrays

    @property
    def branches(self) -> list[BranchRecord]:
        if self._branches is None:
            arrays = self._trace_arrays
            types = [BRANCH_TYPES_BY_CODE[code] for code in arrays.types.tolist()]
            modes = [PrivilegeMode.KERNEL if kernel else PrivilegeMode.USER
                     for kernel in arrays.kernel_modes.tolist()]
            self._branches = [
                BranchRecord(ip=ip, target=target, taken=taken, branch_type=kind,
                             context_id=context, mode=mode)
                for ip, target, taken, kind, context, mode in zip(
                    arrays.ips.tolist(), arrays.targets.tolist(),
                    arrays.takens.tolist(), types,
                    arrays.context_ids.tolist(), modes)
            ]
        return self._branches


class SharedTrace(Trace):
    """A trace reconstructed from a shipment; items materialise lazily."""

    def __init__(self, name: str, columns: SharedColumns):
        super().__init__(items=[], name=name)
        self._shared = columns

    def columns(self) -> SharedColumns:  # type: ignore[override]
        return self._shared

    def _materialize(self) -> list:
        if not self.items:
            shared = self._shared
            items: list = []
            for start, stop, event in shared.segments:
                items.extend(shared.branches[start:stop])
                if event is not None:
                    items.append(event)
            self.items = items
        return self.items

    def __len__(self) -> int:
        return self._shared.item_count

    def __iter__(self):
        return iter(self._materialize())

    def __getitem__(self, index: int):
        return self._materialize()[index]

    def branches(self):
        return iter(self._shared.branches)

    def events(self):
        return iter(event for _, _, event in self._shared.segments
                    if event is not None)


def _segment_table(columns) -> dict[str, np.ndarray]:
    starts, stops, kinds, contexts = [], [], [], []
    for start, stop, event in columns.segments:
        starts.append(start)
        stops.append(stop)
        kinds.append(_NO_EVENT if event is None else _EVENT_CODE[event.kind])
        contexts.append(0 if event is None else event.context_id)
    return {
        "seg_starts": np.array(starts, dtype=np.int64),
        "seg_stops": np.array(stops, dtype=np.int64),
        "event_kinds": np.array(kinds, dtype=np.int64),
        "event_contexts": np.array(contexts, dtype=np.int64),
    }


class TraceShipment:
    """Parent-side packer: distinct traces -> one shared-memory block.

    The descriptor (block name + per-trace array offsets) is tiny and travels
    to workers by pickle; the branch data itself never does.
    """

    def __init__(self, traces: dict[TraceKey, Trace]):
        plans: list[tuple[TraceKey, int, dict[str, np.ndarray]]] = []
        offset = 0
        layout: dict = {}
        for key, trace in traces.items():
            columns = trace.columns()
            arrays = columns.arrays()
            table = _segment_table(columns)
            named = {name: np.ascontiguousarray(getattr(arrays, name))
                     for name, _ in _BRANCH_COLUMNS}
            named.update(table)
            plan: dict[str, tuple[int, str, int]] = {}
            for name, array in named.items():
                plan[name] = (offset, array.dtype.str, array.shape[0])
                offset += array.nbytes
            layout[key] = {"item_count": columns.item_count, "arrays": plan}
            plans.append((key, columns.item_count, named))
        self._shm = None
        if offset:
            self._shm = shared_memory.SharedMemory(create=True, size=offset)
            buffer = self._shm.buf
            for key, _, named in plans:
                for name, array in named.items():
                    start, _, length = layout[key]["arrays"][name]
                    view = np.ndarray((length,), dtype=array.dtype,
                                      buffer=buffer, offset=start)
                    view[:] = array
        self.descriptor = {
            "block": self._shm.name if self._shm is not None else None,
            "traces": layout,
        }

    def close(self) -> None:
        """Release and remove the block (parent side, after the pool exits)."""
        if self._shm is not None:
            self._shm.close()
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already removed
                pass
            self._shm = None


_ATTACHED: dict[str, shared_memory.SharedMemory] = {}


#: Specs of every attached shipment, keyed by trace key — the cache-miss
#: resolver rebuilds evicted SharedTraces from these mapped blocks.
_SHARED_SPECS: dict[TraceKey, tuple[shared_memory.SharedMemory, dict]] = {}


def _build_shared_trace(shm: shared_memory.SharedMemory, key: TraceKey,
                        spec: dict) -> SharedTrace:
    plan = spec["arrays"]
    mapped = {
        name: np.ndarray((plan[name][2],), dtype=np.dtype(plan[name][1]),
                         buffer=shm.buf, offset=plan[name][0])
        for name, _ in _BRANCH_COLUMNS + _SEGMENT_COLUMNS
    }
    arrays = TraceArrays(
        ips=mapped["ips"], targets=mapped["targets"], takens=mapped["takens"],
        types=mapped["types"], context_ids=mapped["context_ids"],
        kernel_modes=mapped["kernel_modes"],
    )
    segments: list[tuple[int, int, TraceEvent | None]] = []
    for start, stop, kind, context in zip(
            mapped["seg_starts"].tolist(), mapped["seg_stops"].tolist(),
            mapped["event_kinds"].tolist(), mapped["event_contexts"].tolist()):
        event = (None if kind == _NO_EVENT
                 else TraceEvent(_EVENT_KINDS[kind], context_id=context))
        segments.append((start, stop, event))
    return SharedTrace(key[0], SharedColumns(spec["item_count"], arrays, segments))


def _shared_trace_source(key: TraceKey) -> SharedTrace | None:
    """Cache-miss resolver: re-materialise an evicted trace from its block."""
    entry = _SHARED_SPECS.get(key)
    if entry is None:
        return None
    return _build_shared_trace(entry[0], key, entry[1])


register_trace_source(_shared_trace_source)


def attach_shipment(descriptor: dict) -> int:
    """Worker-side: map a shipment and install its traces into the cache.

    Safe to call repeatedly with the same descriptor (one mapping per block
    per process).  Every shipped key is also recorded as a cache-miss source,
    so traces evicted from the bounded LRU later re-materialise from the
    mapped arrays (cheap wrappers) instead of being re-generated.  Returns
    the number of traces installed into the cache.
    """
    block = descriptor["block"]
    if block is None:
        return 0
    installed = 0
    shm = _ATTACHED.get(block)
    first_attach = shm is None
    if first_attach:
        # Workers share the parent's resource tracker on POSIX, so attaching
        # simply re-registers the same name — the parent's unlink remains the
        # single point of removal.
        shm = shared_memory.SharedMemory(name=block)
        _ATTACHED[block] = shm
    for key, spec in descriptor["traces"].items():
        _SHARED_SPECS[key] = (shm, spec)
        if first_attach:
            install_trace(key, _build_shared_trace(shm, key, spec))
            installed += 1
    return installed
