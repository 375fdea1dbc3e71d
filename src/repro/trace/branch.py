"""Branch-record data model.

The whole evaluation pipeline operates on streams of :class:`BranchRecord`
objects.  A record captures everything the hardware front end would see about
one dynamic branch: its virtual address, resolved target, resolved direction,
static type, and the software context it executed in (process identifier and
privilege mode).  Traces additionally carry :class:`TraceEvent` markers for
context switches, mode switches and interrupts so that protection schemes
triggered by OS events (IBPB flushes, ST reloads) can be simulated
faithfully.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

#: Number of virtual-address bits used throughout the model (x86-64 canonical).
VIRTUAL_ADDRESS_BITS = 48
#: Mask selecting the 48 architecturally relevant virtual-address bits.
VIRTUAL_ADDRESS_MASK = (1 << VIRTUAL_ADDRESS_BITS) - 1
#: Number of target bits stored in BTB/RSB entries (paper Section II-A).
STORED_TARGET_BITS = 32
STORED_TARGET_MASK = (1 << STORED_TARGET_BITS) - 1


class BranchType(enum.Enum):
    """Static branch categories distinguished by the ISA (paper Section II-A)."""

    DIRECT_JUMP = "direct_jump"
    DIRECT_CALL = "direct_call"
    CONDITIONAL = "conditional"
    INDIRECT_JUMP = "indirect_jump"
    INDIRECT_CALL = "indirect_call"
    RETURN = "return"

    @property
    def is_call(self) -> bool:
        """Whether the branch pushes a return address onto the call stack."""
        return self in (BranchType.DIRECT_CALL, BranchType.INDIRECT_CALL)

    @property
    def is_return(self) -> bool:
        return self is BranchType.RETURN

    @property
    def is_conditional(self) -> bool:
        return self is BranchType.CONDITIONAL

    @property
    def is_indirect(self) -> bool:
        """Whether the target is carried in a register/memory (not an immediate)."""
        return self in (
            BranchType.INDIRECT_JUMP,
            BranchType.INDIRECT_CALL,
            BranchType.RETURN,
        )

    @property
    def is_direct(self) -> bool:
        return self in (
            BranchType.DIRECT_JUMP,
            BranchType.DIRECT_CALL,
            BranchType.CONDITIONAL,
        )

    @property
    def needs_target_prediction(self) -> bool:
        """Direction-only conditional branches still need a BTB hit to redirect
        fetch, but for accounting purposes the paper's OAE metric requires the
        *target* prediction only for taken branches; all types may therefore
        need a target."""
        return True


class PrivilegeMode(enum.Enum):
    """Processor privilege mode a branch executed in."""

    USER = "user"
    KERNEL = "kernel"


class EventKind(enum.Enum):
    """OS-visible events interleaved with branch records inside a trace."""

    CONTEXT_SWITCH = "context_switch"
    MODE_SWITCH_ENTER_KERNEL = "mode_switch_enter_kernel"
    MODE_SWITCH_EXIT_KERNEL = "mode_switch_exit_kernel"
    INTERRUPT = "interrupt"


@dataclass(frozen=True, slots=True)
class BranchRecord:
    """One dynamic branch instance as observed by the front end.

    Attributes:
        ip: 48-bit virtual address of the branch instruction.
        target: 48-bit virtual address of the resolved target.  For
            not-taken conditional branches this is the fall-through address.
        taken: Resolved direction.  Unconditional branches are always taken.
        branch_type: Static category of the instruction.
        context_id: Identifier of the software entity (process / thread /
            sandbox) the branch belongs to.  Protection schemes key off this.
        mode: Privilege mode at execution time.
    """

    ip: int
    target: int
    taken: bool
    branch_type: BranchType
    context_id: int = 0
    mode: PrivilegeMode = PrivilegeMode.USER

    def __post_init__(self) -> None:
        object.__setattr__(self, "ip", self.ip & VIRTUAL_ADDRESS_MASK)
        object.__setattr__(self, "target", self.target & VIRTUAL_ADDRESS_MASK)

    @property
    def fall_through(self) -> int:
        """Address of the next sequential instruction (branch length ~ 4 bytes)."""
        return (self.ip + 4) & VIRTUAL_ADDRESS_MASK

    @property
    def stored_target(self) -> int:
        """The 32 least-significant target bits a baseline BTB/RSB would store."""
        return self.target & STORED_TARGET_MASK

    @property
    def upper_ip_bits(self) -> int:
        """The 16 upper bits of the branch ip used to re-extend stored targets."""
        return self.target >> STORED_TARGET_BITS

    def with_context(self, context_id: int, mode: PrivilegeMode | None = None) -> "BranchRecord":
        """Return a copy of this record attributed to a different context."""
        return BranchRecord(
            ip=self.ip,
            target=self.target,
            taken=self.taken,
            branch_type=self.branch_type,
            context_id=context_id,
            mode=mode if mode is not None else self.mode,
        )


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """A non-branch event carried inline in the trace stream."""

    kind: EventKind
    #: Context the CPU switches *to* (for context switches) or the context the
    #: event occurred in (for mode switches and interrupts).
    context_id: int = 0


TraceItem = BranchRecord | TraceEvent

#: Stable small-integer codes for :class:`BranchType`, used by the columnar
#: ndarray view (:class:`TraceArrays`).
BRANCH_TYPE_CODES: dict[BranchType, int] = {
    BranchType.CONDITIONAL: 0,
    BranchType.DIRECT_JUMP: 1,
    BranchType.DIRECT_CALL: 2,
    BranchType.INDIRECT_JUMP: 3,
    BranchType.INDIRECT_CALL: 4,
    BranchType.RETURN: 5,
}

#: Inverse of :data:`BRANCH_TYPE_CODES`, index = code.
BRANCH_TYPES_BY_CODE: tuple[BranchType, ...] = tuple(
    code_type for code_type, _ in sorted(BRANCH_TYPE_CODES.items(), key=lambda kv: kv[1])
)


@dataclass(slots=True)
class TraceArrays:
    """Contiguous NumPy views of the per-branch columns, decoded exactly once.

    The vector replay backend (:mod:`repro.sim.vector`) consumes traces as
    arrays: 48-bit addresses as ``uint64``, outcome/category flags as ``bool``
    and small codes, so array kernels can predict whole event-free branch runs
    at a time.  Like :class:`TraceColumns` this is derived data — build it via
    :meth:`TraceColumns.arrays`, which caches per columns object.

    Attributes:
        ips/targets: Branch and resolved-target virtual addresses (``uint64``).
        takens: Resolved directions (``bool``).
        types: :data:`BRANCH_TYPE_CODES` codes (``uint8``).
        context_ids: Software-context identifiers (``int64``).
        kernel_modes: ``True`` where the branch executed in kernel mode.
    """

    ips: "object"
    targets: "object"
    takens: "object"
    types: "object"
    context_ids: "object"
    kernel_modes: "object"

    @classmethod
    def from_columns(cls, columns: "TraceColumns") -> "TraceArrays":
        import numpy as np

        branches = columns.branches
        codes = BRANCH_TYPE_CODES
        kernel = PrivilegeMode.KERNEL
        return cls(
            ips=np.array([b.ip for b in branches], dtype=np.uint64),
            targets=np.array([b.target for b in branches], dtype=np.uint64),
            takens=np.array([b.taken for b in branches], dtype=bool),
            types=np.array([codes[b.branch_type] for b in branches], dtype=np.uint8),
            context_ids=np.array([b.context_id for b in branches], dtype=np.int64),
            kernel_modes=np.array([b.mode is kernel for b in branches], dtype=bool),
        )


@dataclass(slots=True)
class TraceColumns:
    """Columnar view of a trace: branches and events pre-split and pre-decoded.

    The replay hot path (millions of branches per grid) pays for per-item
    ``isinstance`` dispatch and attribute/property chasing when it iterates a
    :class:`Trace` directly.  ``TraceColumns`` does that decoding exactly once
    per trace:

    * ``branches`` holds only the branch records, in program order; and
    * ``segments`` encodes the original interleaving as ``(start, stop,
      event)`` runs — replay ``branches[start:stop]``, then dispatch ``event``
      (``None`` for the final run).

    :meth:`arrays` decodes the per-branch fields into NumPy columns on first
    use, so traces only the reference loop replays never pay for them.

    Columns are derived data: build them with :meth:`Trace.columns`, which
    caches per trace and rebuilds when the item count changes.
    """

    item_count: int
    branches: list[BranchRecord]
    segments: list[tuple[int, int, TraceEvent | None]]
    _arrays: "TraceArrays | None" = None

    def arrays(self) -> "TraceArrays":
        """The cached NumPy view of the per-branch columns."""
        if self._arrays is None:
            self._arrays = TraceArrays.from_columns(self)
        return self._arrays

    @classmethod
    def from_items(cls, items: Sequence[TraceItem]) -> "TraceColumns":
        branches: list[BranchRecord] = []
        segments: list[tuple[int, int, TraceEvent | None]] = []
        start = 0
        append_branch = branches.append
        for item in items:
            if item.__class__ is TraceEvent:
                segments.append((start, len(branches), item))
                start = len(branches)
            else:
                append_branch(item)
        segments.append((start, len(branches), None))
        return cls(item_count=len(items), branches=branches, segments=segments)


@dataclass(slots=True)
class ColumnarTrace:
    """A trace held only as columns: NumPy arrays plus event segments.

    :func:`merge_columns_round_robin` builds one for the vector backend.  The
    kernels read a trace through :meth:`Trace.columns` and, on that,
    :meth:`TraceColumns.arrays` and ``segments``; a columnar trace serves
    the same three, and nothing else — it holds no record objects, so the
    per-item reference loop cannot replay it.
    """

    name: str
    segments: list[tuple[int, int, TraceEvent | None]]
    _arrays: TraceArrays

    def columns(self) -> "ColumnarTrace":
        return self

    def arrays(self) -> TraceArrays:
        return self._arrays


@dataclass(slots=True)
class Trace:
    """An ordered stream of branch records and OS events.

    The class is a thin sequence wrapper that also tracks summary statistics,
    mirroring what the paper's Intel-PT-based collector would report about a
    capture.
    """

    items: list[TraceItem] = field(default_factory=list)
    name: str = "trace"
    _columns: TraceColumns | None = field(default=None, repr=False, compare=False)

    def append(self, item: TraceItem) -> None:
        self.items.append(item)

    def extend(self, items: Iterable[TraceItem]) -> None:
        self.items.extend(items)

    def columns(self) -> TraceColumns:
        """The cached columnar view; rebuilt when the item count changed."""
        columns = self._columns
        if columns is None or columns.item_count != len(self.items):
            columns = TraceColumns.from_items(self.items)
            self._columns = columns
        return columns

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[TraceItem]:
        return iter(self.items)

    def __getitem__(self, index: int) -> TraceItem:
        return self.items[index]

    def branches(self) -> Iterator[BranchRecord]:
        """Iterate over only the branch records in program order."""
        for item in self.items:
            if isinstance(item, BranchRecord):
                yield item

    def events(self) -> Iterator[TraceEvent]:
        for item in self.items:
            if isinstance(item, TraceEvent):
                yield item

    @property
    def branch_count(self) -> int:
        return sum(1 for _ in self.branches())

    @property
    def event_count(self) -> int:
        return sum(1 for _ in self.events())

    @property
    def context_ids(self) -> set[int]:
        ids = {b.context_id for b in self.branches()}
        ids.update(e.context_id for e in self.events())
        return ids

    def conditional_fraction(self) -> float:
        """Fraction of branches that are conditional (useful for sanity checks)."""
        total = 0
        conditional = 0
        for branch in self.branches():
            total += 1
            if branch.branch_type.is_conditional:
                conditional += 1
        return conditional / total if total else 0.0

    def taken_fraction(self) -> float:
        total = 0
        taken = 0
        for branch in self.branches():
            total += 1
            if branch.taken:
                taken += 1
        return taken / total if total else 0.0


def merge_round_robin(traces: Sequence[Trace], quantum: int = 64, name: str = "smt") -> Trace:
    """Interleave several traces, simulating SMT co-execution.

    Branches from each input trace are taken in chunks of ``quantum``,
    round-robin, until every trace is exhausted.  Context-switch events are
    not inserted: SMT threads share the BPU concurrently rather than
    time-slicing, which is what the paper's SMT gem5 experiments model.

    Args:
        traces: Input traces; each keeps its own ``context_id`` values.
        quantum: Number of consecutive items taken from one trace per turn.
        name: Name for the merged trace.

    Returns:
        A new :class:`Trace` containing all items of all inputs.
    """
    if quantum <= 0:
        raise ValueError("quantum must be positive")
    iterators = [iter(t) for t in traces]
    exhausted = [False] * len(traces)
    merged = Trace(name=name)
    while not all(exhausted):
        for idx, iterator in enumerate(iterators):
            if exhausted[idx]:
                continue
            for _ in range(quantum):
                try:
                    merged.append(next(iterator))
                except StopIteration:
                    exhausted[idx] = True
                    break
    return merged


def merge_columns_round_robin(first: Trace, second: Trace, quantum: int = 64,
                              context_offset: int = 0,
                              name: str = "smt") -> ColumnarTrace:
    """Columnar :func:`merge_round_robin` of two traces, built from their arrays.

    The result's arrays and segments equal those of
    ``merge_round_robin([first, shifted], quantum, name).columns()``, where
    ``shifted`` is ``second`` with ``context_offset`` added to the context id
    of every record and event.  Item ``i`` of a trace (events included, as
    they count toward the quantum) runs in round ``i // quantum``, and each
    round runs the first trace's items before the second's, so one stable
    argsort on ``(round, thread)`` is the whole interleave.
    """
    import numpy as np

    if quantum <= 0:
        raise ValueError("quantum must be positive")
    inputs = (first.columns(), second.columns())
    keys = []
    event_flags = []
    events: list[TraceEvent] = []
    for thread, columns in enumerate(inputs):
        stops = []
        for _, stop, event in columns.segments:
            if event is not None:
                stops.append(stop)
                events.append(TraceEvent(event.kind, event.context_id + context_offset)
                              if thread else event)
        # Event ``m`` follows ``stops[m]`` branches and ``m`` earlier events.
        flags = np.zeros(columns.item_count, dtype=bool)
        flags[np.asarray(stops, dtype=np.int64) + np.arange(len(stops))] = True
        event_flags.append(flags)
        keys.append(2 * (np.arange(columns.item_count) // quantum) + thread)
    order = np.argsort(np.concatenate(keys), kind="stable")
    is_event = np.concatenate(event_flags)
    merged_is_event = is_event[order]
    branch_order = (np.cumsum(~is_event) - 1)[order[~merged_is_event]]
    event_order = (np.cumsum(is_event) - 1)[order[merged_is_event]].tolist()

    # A merged event's segment stops after the branches merged before it.
    event_items = np.flatnonzero(merged_is_event)
    stops = (event_items - np.arange(event_items.shape[0])).tolist()
    segments: list[tuple[int, int, TraceEvent | None]] = []
    start = 0
    for stop, position in zip(stops, event_order):
        segments.append((start, stop, events[position]))
        start = stop
    segments.append((start, int(branch_order.shape[0]), None))

    a, b = (columns.arrays() for columns in inputs)

    def interleave(left, right):
        return np.concatenate((left, right))[branch_order]

    arrays = TraceArrays(
        ips=interleave(a.ips, b.ips),
        targets=interleave(a.targets, b.targets),
        takens=interleave(a.takens, b.takens),
        types=interleave(a.types, b.types),
        context_ids=interleave(a.context_ids,
                               b.context_ids + np.int64(context_offset)),
        kernel_modes=interleave(a.kernel_modes, b.kernel_modes),
    )
    return ColumnarTrace(name=name, segments=segments, _arrays=arrays)
