"""NumPy vector replay backend: array-at-a-time prediction, bit-exact.

The scalar replay loops spend almost all their time in per-branch Python
dispatch.  This backend replays whole event-free branch runs ("epochs") with
array kernels instead, exploiting one structural property of the composite
predictor: *training is driven entirely by resolved trace data* (taken bits,
branch types, addresses), never by the predictions themselves.  That makes
the predictor's state precomputable a span at a time:

* GHR / BHB histories are shift registers of trace-only data — both are
  computed for every branch at once with sliding-window shift/XOR kernels
  seeded by the carried register value;
* PHT / chooser tables are 2-bit saturating counters whose update stream per
  table index is known up front.  Each access's *pre-update* counter value is
  recovered with a segmented Hillis–Steele scan over packed 4-state
  transition maps (a 2-bit counter is a 4-state FSM, so a whole
  counter-function composition fits in one byte and composition is a 64K
  lookup table).  The accesses are ordered by index with 16-bit radix
  passes, the scan runs only the passes its longest same-index run needs,
  and commit scatters into the tables' own byte buffers;
* the BTB (set-associative, LRU) replays from reuse distances
  (:func:`_replay_structures`).  LRU has the stack property (Mattson et al.,
  "Evaluation techniques for storage hierarchies", IBM Syst. J. 1970): an
  access finds its key iff fewer than ``ways`` distinct keys of its set
  were referenced since the key's own last reference.  So each set's
  references — its valid entries in LRU order, then every update and every
  lookup that finds its key — form a sorted stream, and hits, evictions (a
  set's count of distinct keys) and stored targets (each key's last write)
  are array kernels over it.  Lookups that touch an entry only when it is
  present (untaken lookups, an indirect branch's mode-1 fallback) settle by
  a fixpoint.  The RSB (a bounded stack) replays in one pass over the
  span's calls and returns.  The kernel then rebuilds the committed state —
  the BTB's slot lists, key → slot dict, access clock and eviction count,
  the RSB's stack and counters — for the executed prefix.

OS events do not end spans.  Each kernel walks a trace's events once in
Python and replays all of its branches, so event semantics become span data:

* a µcode flush (:class:`~repro.bpu.protections.FlushingProtectedBPU`) inside
  an SKL or Perceptron span starts a new *epoch*: counter-scan keys and
  perceptron rows are offset per epoch and later epochs start from the
  flushed counter value or zero weights, each history window
  keeps only the bits pushed since its epoch began (for the GF(2)-linear BHB
  the carried state is XORed back out), the BTB kernel keys each epoch's
  references apart and the RSB pass clears the stack where a flush lands,
  and commit keeps only the last epoch;
* an STBPU token swap (a context or mode change, an OS event, an SMT co-run's
  every scheduling quantum) is per-branch data: the kernel gathers each
  branch's ψ and ϕ from a per-context token table, and counts the token loads
  the reference hooks would make with one vector compare.

A span still ends where the event semantics are sequential: where an STBPU
context with no token is installed for the first time (its token is drawn
from the generator re-randomizations also draw from), at an STBPU
re-randomization fired by the monitoring counters — the span ends *at the
firing access*, scans commit only the executed prefix (the scan composition
is pure until committed) and replay resumes under the fresh token — and, for
the guarded TAGE stepper below, at every flush.  A fire discards the
prepared rest of its span, so monitored spans adapt their length: after a
fire the next span covers ``max(_MONITOR_CAP_FLOOR, 2 × executed)``
branches, and a span that runs to its cap doubles it.  The parity tests pin
all of this to byte-identical results against the per-item reference loop.

Every direction component replays through a *span stepper*
(``STEPPER_PROTOCOL``), so one span routine serves all three.  Two steppers
are closed-form: they return a span's predictions outright and commit any
executed prefix.  The SKL stepper is the counter scan above.  The
perceptron stepper replays in *row rounds*: a perceptron's rows never
interact — an access reads and trains only its own row, from history bits
the span already holds — so round ``k`` replays every row's ``k``-th access
of the span at once on a working copy of the touched rows, and once only a
few rows remain active each of them walks its accesses in order
(:func:`_perceptron_replay`); a prefix commit re-runs the rounds over the
executed prefix.  TAGE has no closed form — an allocation rewrites tags
mid-span — so its stepper is *guarded*: every prediction input (folded
histories, table indices and tags, hit bits) is precomputed for a whole
span with array kernels, and a slim per-conditional step applies the
sequential updates, precomputing tagged-table hit bits against span-start
tags and repairing exactly the later same-index accesses when an
allocation rewrites an entry.  A step reads no BTB or RSB state, so a
guarded span steps all its conditionals first and then replays its
structures in the kernel — except under a monitor: a step cannot be taken
back past a re-randomization, so ``ST_TAGE_*`` spans replay one branch at a
time in :meth:`_CompositeEngine._structural_loop`, stepping each
conditional where it falls.  A replay shorter than ``_KERNEL_MIN_BRANCHES``
branches replays every span in that loop too: the kernel's fixed costs per
span would outweigh it.

No replay keeps a copy of predictor state between spans.  Every stepper
replays its predictor's own tables — the SKL PHTs' ``bytearray`` counters,
the TAGE columns, the perceptron's int64 weight array, wrapped as zero-copy
arrays where a kernel reads them whole — and the engine replays the BTB,
RSB and history registers on the composite's own objects: the BTB kernel
reads a span's sets from the BTB's lists and writes the executed prefix's
state back into the same lists, as the perceptron stepper does with the
rows it touched.  So a flush between guarded spans is the composite's own
``flush_predictor_state``, the call the reference hooks make.

Models opt in via ``vector_kernel()``, and a kernel accepts every trace:
single traces and SMT co-runs alike.  A model with no kernel replays through
the simulators' per-item reference loop instead, and
``repro_replay_declines_total{model,kind}`` counts it.
"""

from __future__ import annotations

import numpy as np

from repro.bpu.btb import VALID
from repro.bpu.common import PredictorStats
from repro.obs import metrics as obs_metrics
from repro.trace.branch import (
    VIRTUAL_ADDRESS_MASK,
    ColumnarTrace,
    EventKind,
    Trace,
)

# Branch-type codes, mirroring repro.trace.branch.BRANCH_TYPE_CODES.
_COND, _DJ, _DC, _IJ, _IC, _RET = 0, 1, 2, 3, 4, 5

# Structural opcodes of a span's BTB/RSB participants.
_OP_LOOKUP1 = 0   # conditional predicted-taken, or direct: mode-1 lookup (+update if taken)
_OP_UPDATE1 = 1   # conditional predicted not-taken but taken: mode-1 update only
_OP_INDIRECT = 2  # mode-2 lookup, mode-1 fallback, mode-2 update if taken
_OP_RETURN = 3    # RSB pop; mode-2 lookup on underflow; mode-2 update if taken

_U64 = np.uint64


def _pack_map(states: tuple[int, int, int, int]) -> int:
    return states[0] | (states[1] << 2) | (states[2] << 4) | (states[3] << 6)


#: Packed 4-state transition maps of a 2-bit saturating counter.
MAP_IDENTITY = _pack_map((0, 1, 2, 3))
MAP_INCREMENT = _pack_map((1, 2, 3, 3))
MAP_DECREMENT = _pack_map((0, 0, 1, 2))

#: A flushed 2-bit counter's value (``PatternHistoryTable.flush``: the
#: midpoint, for the chooser as well).
FLUSHED_COUNTER = 1


def _build_compose_table() -> np.ndarray:
    """``COMPOSE[a, b]`` = packed map "apply ``a`` first, then ``b``"."""
    codes = np.arange(256, dtype=np.uint16)
    shifts = 2 * np.arange(4, dtype=np.uint16)
    applied_a = (codes[:, None] >> shifts[None, :]) & 3            # [a, state]
    composed = (codes[None, :, None] >> (2 * applied_a[:, None, :])) & 3
    return (composed << shifts[None, None, :]).sum(axis=2).astype(np.uint8)


COMPOSE = _build_compose_table()


class _CounterScan:
    """A completed (but uncommitted) segmented counter scan over one table."""

    __slots__ = ("order", "idx_sorted", "inclusive", "init_states")

    def __init__(self, order, idx_sorted, inclusive, init_states):
        self.order = order
        self.idx_sorted = idx_sorted
        self.inclusive = inclusive
        self.init_states = init_states

    def commit(self, table: np.ndarray, upto: int | None = None,
               epoch: int = 0) -> None:
        """Scatter final per-index counter states back into ``table``.

        ``upto`` restricts the commit to accesses with original ordinal
        ``< upto`` (the executed prefix when an STBPU re-randomization fired
        mid-span); ``None`` commits every access.  ``epoch`` is the scan's
        last flush epoch: only its accesses (keys offset by ``epoch``
        table lengths) are scattered, into a table the caller has flushed.
        """
        idx_sorted = self.idx_sorted
        base = epoch * table.shape[0]
        first = int(np.searchsorted(idx_sorted, base)) if epoch else 0
        if upto is None:
            selected = np.arange(first, idx_sorted.shape[0])
        else:
            selected = first + np.flatnonzero(self.order[first:] < upto)
        if selected.shape[0] == 0:
            return
        idx_selected = idx_sorted[selected]
        last = np.empty(selected.shape[0], dtype=bool)
        last[-1] = True
        np.not_equal(idx_selected[1:], idx_selected[:-1], out=last[:-1])
        positions = selected[last]
        table[idx_sorted[positions] - base] = (
            self.inclusive[positions] >> (self.init_states[positions] << 1)) & 3


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for non-negative integer keys.

    Sorts 16-bit digits least significant first, each with a stable argsort
    of ``uint16`` — a radix sort in NumPy, where a 64-bit key takes a
    comparison sort — and one digit covers every key below 65,536.
    """
    if keys.shape[0] == 0:
        return np.argsort(keys, kind="stable")
    order = np.argsort(keys.astype(np.uint16), kind="stable")
    high = keys >> 16
    while int(high.max()):
        order = order[np.argsort(high[order].astype(np.uint16), kind="stable")]
        high >>= 16
    return order


def _scan_counters(indices: np.ndarray, maps: np.ndarray, table: np.ndarray,
                   order: np.ndarray | None = None,
                   ) -> tuple[np.ndarray, _CounterScan | None, np.ndarray]:
    """Pre-update counter values for a stream of (index, transition) accesses.

    Returns ``(pre_states, scan, order)`` where ``pre_states[k]`` is the
    counter value access ``k`` observes *before* its own update, ``scan``
    commits the final states, and ``order`` is the stable argsort of
    ``indices`` (reusable for further scans over the same index stream).
    An index past the table's end addresses a flushed copy of it (a later
    flush epoch's key), whose counters all start at :data:`FLUSHED_COUNTER`.
    """
    count = indices.shape[0]
    if count == 0:
        empty = np.empty(0, dtype=np.uint8)
        return empty, None, np.empty(0, dtype=np.int64)
    if order is None:
        order = _stable_order(indices)
    idx_sorted = indices[order]
    inclusive = maps[order].copy()
    first = np.empty(count, dtype=bool)
    first[0] = True
    np.not_equal(idx_sorted[1:], idx_sorted[:-1], out=first[1:])
    # A pass composes only within a same-index run longer than its shift,
    # so the passes stop at the longest run.
    longest = int(np.diff(np.flatnonzero(np.append(first, True))).max())
    shift = 1
    while shift < longest:
        same = idx_sorted[shift:] == idx_sorted[:-shift]
        composed = COMPOSE[inclusive[:-shift], inclusive[shift:]]
        inclusive[shift:] = np.where(same, composed, inclusive[shift:])
        shift <<= 1
    exclusive = np.empty_like(inclusive)
    exclusive[1:] = inclusive[:-1]
    exclusive[first] = MAP_IDENTITY
    unflushed = int(np.searchsorted(idx_sorted, table.shape[0]))
    if unflushed == count:
        init_states = table[idx_sorted]
    else:
        init_states = np.full(count, FLUSHED_COUNTER, dtype=table.dtype)
        init_states[:unflushed] = table[idx_sorted[:unflushed]]
    pre_sorted = (exclusive >> (init_states << 1)) & 3
    pre = np.empty(count, dtype=np.uint8)
    pre[order] = pre_sorted
    return pre, _CounterScan(order, idx_sorted, inclusive, init_states), order


def _ghr_window(outcomes: np.ndarray, seed_value: int, bits: int) -> np.ndarray:
    """Per-access GHR values, each taken before its own push.

    ``outcomes`` is the uint64 0/1 stream of conditional outcomes in one
    span; ``seed_value`` is the register value carried into the span.
    """
    count = outcomes.shape[0]
    extended = np.empty(count + bits, dtype=np.uint64)
    for position in range(bits):
        extended[position] = (seed_value >> (bits - 1 - position)) & 1
    extended[bits:] = outcomes
    values = np.zeros(count, dtype=np.uint64)
    for distance in range(1, bits + 1):
        values += extended[bits - distance: bits - distance + count] << _U64(distance - 1)
    return values


def _bhb_states(mixed: np.ndarray, seed_value: int, bits: int) -> np.ndarray:
    """BHB register value after ``c`` pushes, for every ``c`` in ``0..len``.

    The BHB recurrence ``v = ((v << 2) & mask) ^ mixed`` is GF(2)-linear, so
    the state after ``c`` pushes is the XOR of the last ``⌈bits/2⌉`` pushed
    values at staggered shifts plus the carried seed — a sliding-window XOR
    kernel rather than a sequential loop.
    """
    update_count = mixed.shape[0]
    window = (bits - 1) // 2 + 1
    states = np.zeros(update_count + 1, dtype=np.uint64)
    for distance in range(1, min(window, update_count) + 1):
        states[distance:] ^= mixed[: update_count - distance + 1] << _U64(2 * (distance - 1))
    mask = (1 << bits) - 1
    for c in range(0, min(window, update_count + 1)):
        seed_term = (seed_value << (2 * c)) & mask
        if seed_term:
            states[c] ^= _U64(seed_term)
    states &= _U64(mask)
    return states


def _bhb_cleared(states: np.ndarray, reads, cleared_at, bits: int):
    """BHB values after ``reads`` pushes, had the register been cleared after
    ``cleared_at`` of them (``reads >= cleared_at``, elementwise).

    ``states`` is the uncleared :func:`_bhb_states` sequence.  The register
    is GF(2)-linear, so the clear removes exactly the value it found, shifted
    by the pushes made since: ``states[cleared_at] << 2·(reads − cleared_at)``
    within the mask.
    """
    shifts = 2 * (reads - cleared_at)
    carried = (states[cleared_at] << np.minimum(shifts, 63).astype(np.uint64)
               ) & _U64((1 << bits) - 1)
    return states[reads] ^ np.where(shifts < bits, carried, _U64(0))


def _extend_outcomes(outcomes: list, appended, max_outcomes: int, *,
                     slack: int = 256) -> None:
    """Exactly emulate a deferred-trim append-only history list.

    ``slack=256`` matches ``HistoryState.record_conditional``; the TAGE
    private global history trims with the same shape but ``slack=64``
    (``TAGEPredictor._push_history``).
    """
    block = max_outcomes + slack
    existing = len(outcomes)
    appended = list(appended)
    total = existing + len(appended)
    if total <= block:
        outcomes.extend(appended)
        return
    # First trim fires at the append that pushes the length past ``block``;
    # afterwards the length cycles between ``max_outcomes`` and ``block``.
    first_trim = block + 1 - existing
    period = block + 1 - max_outcomes
    final_length = max_outcomes + ((len(appended) - first_trim) % period)
    combined = outcomes + appended
    outcomes[:] = combined[len(combined) - final_length:]


#: A replay of fewer branches replays every span's BTB and RSB in the
#: per-branch loop (``_CompositeEngine.per_branch``): below it the kernel's
#: fixed costs per span exceed what the loop spends per branch.  Measured on
#: SKL replays and on unmonitored TAGE and (still stepped) Perceptron
#: replays alike (see EXPERIMENTS.md).
_KERNEL_MIN_BRANCHES = 3000

#: A monitored span after a fire covers at least this many branches
#: (``_STBPUKernel._run_monitored``).
_MONITOR_CAP_FLOOR = 128

#: Upper bound on one guarded stepper's span (``_CompositeEngine.run_span``),
#: so on TAGE's only: its allocation guard repairs same-index accesses of the
#: current span, so bounded spans bound the repair walks and the speculative
#: fold arrays.  Callers already resume from the span's stop.
_STEPPER_SPAN_LIMIT = 4096


def _strided_parity(bits: np.ndarray, width: int) -> np.ndarray:
    """Per-residue running parity: ``out[i]`` is the parity of
    ``bits[i % width], bits[i % width + width], ..., bits[i]``."""
    length = bits.shape[0]
    rows = -(-length // width)
    grid = np.zeros((rows, width), dtype=np.int64)
    grid.ravel()[:length] = bits
    # One axis-0 cumsum covers every residue class at once: column ``r`` of the
    # row-major grid is exactly the stride-``width`` slice starting at ``r``.
    np.cumsum(grid, axis=0, out=grid)
    parity = grid.ravel()[:length]
    parity &= 1
    return parity.view(np.uint64)


def _fold_values(parity: np.ndarray, pad: int, carried: int, count: int,
                 history_length: int, width: int) -> np.ndarray:
    """Folded-history register values for ``count`` consecutive predictions.

    Closed form of TAGE's :class:`~repro.bpu.tage._IncrementalFold`: after the
    register has absorbed a bit stream, its value is the XOR of the newest
    ``history_length`` bits placed at staggered positions —
    ``XOR_k stream[-1-k] << (k % width)`` — with missing (pre-stream) bits
    reading as 0.  ``parity`` is :func:`_strided_parity` of the extended
    stream ``[0]*pad + carried_history + span_outcomes``; the XOR of any
    same-residue run collapses to two parity reads, so each of the
    ``min(width, history_length)`` bit planes costs one vector XOR.
    ``pad`` must be at least ``history_length + width`` so every read stays
    in bounds.
    """
    if parity.dtype != np.uint64:
        parity = parity.view(np.uint64)
    first_newest = pad + carried - 1
    plane_count = min(width, history_length)
    if count * plane_count <= 16384:
        # Short spans: one 2-D gather beats a per-plane Python loop.
        planes = np.arange(plane_count, dtype=np.int64)
        chunks = (history_length - planes + width - 1) // width
        high_idx = ((first_newest + np.arange(count, dtype=np.int64))[None, :]
                    - planes[:, None])
        low_idx = high_idx - (chunks * width)[:, None]
        bits = parity[high_idx] ^ parity[low_idx]
        bits <<= planes[:, None].astype(np.uint64)
        return np.bitwise_or.reduce(bits, axis=0)
    values = np.zeros(count, dtype=np.uint64)
    plane_bits = np.empty(count, dtype=np.uint64)
    for plane in range(plane_count):
        chunks = (history_length - plane + width - 1) // width
        high = first_newest - plane
        low = high - chunks * width
        # ``j0`` is an arange, so each bit plane's reads are contiguous
        # slices — views, not gathers.
        np.bitwise_xor(parity[high:high + count], parity[low:low + count],
                       out=plane_bits)
        np.left_shift(plane_bits, _U64(plane), out=plane_bits)
        values |= plane_bits
    return values


def _ghr_commit(seed: int, executed_bits, bits: int) -> int:
    """GHR register value after pushing ``executed_bits`` onto ``seed``."""
    mask = (1 << bits) - 1
    tail = executed_bits[-bits:]
    packed = 0
    for bit in tail:
        packed = (packed << 1) | (1 if bit else 0)
    if len(executed_bits) >= bits:
        return packed & mask
    return ((seed << len(executed_bits)) | packed) & mask


# ------------------------------------------------------- BTB / RSB kernel

#: ``nxt`` value of a reference whose key is not referenced again.
_NO_NEXT = np.iinfo(np.int64).max


def _rsb_replay(stack: list, capacity: int, items: list, segments: list,
                ) -> tuple[list, int]:
    """Replay RSB pushes and pops on ``stack`` in place.

    ``items`` holds each call's encoded return address (``>= 0``) and ``-1``
    for each return, in order; a flush clears the stack before item
    ``segments[e]``.  Returns each pop's value (``-1``: underflow) and the
    overflow count.
    """
    popped = []
    record = popped.append
    pop = stack.pop
    push = stack.append
    overflows = 0
    begin = 0
    for epoch, end in enumerate((*segments, len(items))):
        if epoch:
            stack.clear()
        for value in items[begin:end]:
            if value < 0:
                record(pop() if stack else -1)
            else:
                if len(stack) >= capacity:
                    del stack[0]
                    overflows += 1
                push(value)
        begin = end
    return popped, overflows


def _lru_reach(nxt: np.ndarray, tops: np.ndarray, floors: np.ndarray,
               ways: int) -> np.ndarray:
    """Position of the ``ways``-th distinct key back from each top, or -1.

    ``nxt`` is a set-ordered reference stream's next-same-key positions.
    Scanning from ``tops[q] - 1`` down to ``floors[q] + 1``, a reference
    counts when it is its key's last before ``tops[q]`` (``nxt >= top``);
    the ``ways``-th counted one is the set's LRU key at ``tops[q]`` (the
    stack property: an LRU set holds exactly its ``ways`` most recently
    referenced keys).  -1 means fewer than ``ways`` distinct keys lie in the
    window.  Queries scan column chunks that double until each settles.
    """
    found = np.full(tops.shape[0], -1, dtype=np.int64)
    seen = np.zeros(tops.shape[0], dtype=np.int64)
    pending = np.arange(tops.shape[0])
    start = 0
    width = max(16, 2 * ways)
    while pending.shape[0]:
        top = tops[pending]
        positions = (top - 1)[:, None] - np.arange(start, start + width)
        inside = positions > floors[pending][:, None]
        counted = inside & (nxt[np.maximum(positions, 0)] >= top[:, None])
        run = np.cumsum(counted, axis=1)
        run += seen[pending][:, None]
        reached = run[:, -1] >= ways
        if reached.any():
            rows = np.flatnonzero(reached)
            first = np.argmax(run[rows] >= ways, axis=1)
            found[pending[rows]] = positions[rows, first]
        seen[pending] = run[:, -1]
        pending = pending[~reached & inside[:, -1]]
        start += width
        width *= 2
    return found


def _from_group_end(groups: np.ndarray) -> np.ndarray:
    """Each element's distance from the last element of its run in the
    sorted array ``groups`` (0 for the last)."""
    ends = np.flatnonzero(np.append(groups[1:] != groups[:-1], True))
    return (np.repeat(ends, np.diff(ends, prepend=-1))
            - np.arange(groups.shape[0]))


def _first_due(events: np.ndarray, remaining: int, count: int) -> int:
    """Position of the event that drives a down-counter at ``remaining`` to
    zero (``count``: none does)."""
    positions = np.flatnonzero(events)
    due = max(remaining, 1) - 1
    return int(positions[due]) if due < positions.shape[0] else count


def _settle_presence(ways, ncarried, set_order, id_order, group,
                     query_set_at, query_id_at, query_group, fallback,
                     maybe_own):
    """Whether each candidate reference finds its key, by fixpoint.

    ``set_order`` and ``id_order`` order the references by set and by key
    (``group``: each key-order position's key number); candidate ``c`` is
    reference ``ncarried + c``, its lookup sees the references before
    positions ``query_set_at[c]`` and ``query_id_at[c]`` of those orders,
    and ``query_group[c]`` is its key.  The ``fallback`` candidates (each
    followed by its branch's own reference) and the untaken lookups
    ``maybe_own`` join the streams only when they find their key; every
    other reference always does.  Returns the presence of every candidate
    and the settled set stream: its reference order, each reference's
    position in it, the key-ordered references and their positions, which
    of those share a key with their predecessor, and each position's next
    reference to the same key (``_NO_NEXT``: none).
    """
    refs = set_order.shape[0]
    ref_range = np.arange(refs)

    def survey(active):
        """One pass: each candidate's presence, given which references
        join the streams, and the streams it used."""
        in_stream = active[set_order]
        stream = set_order[in_stream]
        position = np.empty(refs, dtype=np.int64)
        position[stream] = np.arange(stream.shape[0])
        before = np.concatenate(([0], np.cumsum(in_stream)))
        # Stream positions in key order (-1: not in the stream).
        in_ids = active[id_order]
        id_stream = id_order[in_ids]
        stream_at = np.full(refs, -1, dtype=np.int64)
        stream_at[in_ids] = position[id_stream]
        active_at = stream_at[in_ids]
        active_groups = group[in_ids]
        same = active_groups[1:] == active_groups[:-1]
        nxt = np.full(stream.shape[0], _NO_NEXT, dtype=np.int64)
        nxt[active_at[:-1][same]] = active_at[1:][same]
        # Each lookup's stream position and its key's last reference.
        tops = before[query_set_at]
        last_in_ids = np.maximum.accumulate(np.where(in_ids, ref_range, -1))
        last = np.where(query_id_at > 0, last_in_ids[query_id_at - 1], -1)
        seen_before = (last >= 0) & (group[last] == query_group)
        previous_at = stream_at[last]
        present = seen_before & (tops - previous_at - 1 < ways)
        unsure = np.flatnonzero(seen_before & ~present)
        if unsure.shape[0]:
            present[unsure] = _lru_reach(nxt, tops[unsure], previous_at[unsure],
                                         ways) < 0
        return present, (stream, position, id_stream, active_at, same, nxt)

    conditional = ncarried + np.concatenate((fallback, maybe_own))
    active = np.ones(refs, dtype=bool)
    active[conditional] = False
    while True:
        present, streams = survey(active)
        joins = np.concatenate((present[fallback] & ~present[fallback + 1],
                                present[maybe_own]))
        if np.array_equal(joins, active[conditional]):
            return (present, *streams)
        del present, streams
        active[conditional] = joins


def _replay_structures(btb, rsb, ops, takens, entry1, entry2, encoded,
                       high_ok, fall_ok, calls, pushes, dir_ok, monitor,
                       clears):
    """Replay one span's BTB and RSB accesses with array kernels.

    The inputs are per-participant arrays, in order: the structural op
    (``_OP_*``), the resolved direction, the mode-1 and mode-2 BTB index
    keys, the encoded target, the ``high_ok`` / ``fall_ok`` target checks,
    the call flag and encoded return address, and the direction verdict; a
    flush lands before each participant in ``clears`` (sorted, unique, in
    ``[0, count]``).  Returns ``(target_ok, hits, evicts, unders,
    stopped_at)`` exactly as a per-participant walk of
    :meth:`~repro.bpu.btb.BranchTargetBuffer.lookup` / ``update`` and the
    RSB would, stopping after the access that fires ``monitor``
    (``stopped_at`` -1: none fired), and commits the executed prefix to
    ``btb``, ``rsb`` and ``monitor``.

    Each set's references form a stream: its valid entries first, in LRU
    order, then every update and every lookup that finds its key.  A key is present iff fewer than
    ``ways`` distinct keys were referenced in its set since its own last
    reference in the same flush epoch (the stack property).  An untaken
    lookup and a mode-1 fallback touch only a present key, so whether they
    join the stream depends on earlier references; a fixpoint starting
    from "none joins" settles them, because each pass fixes at least the
    first reference on which the previous pass was wrong.
    """
    ways = btb.way_count
    slot_count = btb.entry_count
    count = ops.shape[0]
    epochs = clears.shape[0]
    period = epochs + 1
    is_return = ops == _OP_RETURN
    indirect = ops == _OP_INDIRECT

    # ------------------------------------------------------------- RSB
    rsb_rel = np.flatnonzero(is_return | calls)
    items = np.where(calls[rsb_rel], pushes[rsb_rel], -1).tolist()
    segments = np.searchsorted(rsb_rel, clears).tolist()
    carried_stack = list(rsb._stack)
    stack = list(carried_stack)
    popped, overflows = _rsb_replay(stack, rsb.capacity, items, segments)
    ret_rel = np.flatnonzero(is_return)
    popped = np.asarray(popped, dtype=np.int64)
    unders = np.zeros(count, dtype=bool)
    unders[ret_rel] = popped < 0
    rsb_ok = np.zeros(count, dtype=bool)
    rsb_ok[ret_rel] = (popped == encoded[ret_rel]) & high_ok[ret_rel]

    # ------------------------------------------------- candidate references
    # Participant j may reference a key at time 2j (an indirect branch's
    # mode-1 fallback) and at 2j + 1 (its own key: an update when taken, a
    # lookup otherwise).  The same times order each set's stream.
    has_own = takens | (ops == _OP_LOOKUP1) | indirect | unders
    paired = np.empty(2 * count, dtype=np.int64)
    paired[0::2] = entry1
    paired[1::2] = np.where(ops <= _OP_UPDATE1, entry1, entry2)
    exists = np.empty(2 * count, dtype=bool)
    exists[0::2] = indirect
    exists[1::2] = has_own
    times = np.flatnonzero(exists)
    cand_entries = paired[times]
    del paired, exists
    owner = times >> 1
    own = (times & 1).astype(bool)
    updates = own & takens[owner]
    if epochs:
        epoch_of = np.searchsorted(clears, owner, side="right")
        cand_ident = cand_entries * period + epoch_of
    else:
        cand_ident = cand_entries
    cand_sets = (cand_entries % slot_count) // ways
    ncand = times.shape[0]
    del cand_entries

    # The ways of each referenced set, oldest first: the invalid ones,
    # then the valid entries in LRU order (``BranchTargetBuffer.update``
    # takes the first lowest rank).
    referenced = np.zeros(btb.set_count, dtype=bool)
    referenced[cand_sets] = True
    touched = np.flatnonzero(referenced)
    rows = touched.shape[0]
    all_ranks = np.array(btb._ranks, dtype=np.int64)
    slot_ranks = all_ranks.reshape(-1, ways)[touched]
    way_order = np.argsort(slot_ranks, axis=1, kind="stable")
    set_ways = touched[:, None] * ways + way_order
    way_ranks = np.take_along_axis(slot_ranks, way_order, axis=1)
    way_valid = way_ranks >= VALID
    invalid_ways = ways - np.count_nonzero(way_valid, axis=1)
    # Carried references: the valid entries.
    carried_slots = set_ways[way_valid]
    carried_ranks = way_ranks[way_valid]
    ncarried = carried_slots.shape[0]
    all_keys = np.array(btb._keys, dtype=np.int64)
    all_targets = np.array(btb._targets, dtype=np.int64)
    carried_keys = all_keys[carried_slots]
    carried_targets = all_targets[carried_slots]
    carried_entries = (carried_keys * slot_count
                       + carried_slots - carried_slots % ways)

    # References: the carried ones, then the candidates in time order.  The
    # set order lays out each set's stream; the key order groups each key's
    # references, oldest first.
    ref_ident = np.concatenate((carried_entries * period, cand_ident))
    ref_sets = np.concatenate((carried_slots // ways, cand_sets))
    refs = ref_ident.shape[0]
    ref_range = np.arange(refs)
    set_order = _stable_order(ref_sets)
    set_rank = np.empty(refs, dtype=np.int64)
    set_rank[set_order] = ref_range
    # Key order: the set order, stably sorted by each key's tag and epoch
    # within its set.
    id_order = set_order[_stable_order(
        (ref_ident // (slot_count * period) * period
         + ref_ident % period)[set_order])]
    id_rank = np.empty(refs, dtype=np.int64)
    id_rank[id_order] = ref_range
    # A lookup at participant j sees the references made before it: in
    # either order, everything before its own reference at 2j + 1 except
    # its fallback at 2j when that shares the set (or the key).
    paired_fallback = np.zeros(ncand, dtype=bool)
    paired_fallback[1:] = own[1:] & ~own[:-1] & (owner[1:] == owner[:-1])
    query_set_at = set_rank[ncarried:].copy()
    query_set_at[1:] -= paired_fallback[1:] & (cand_sets[1:] == cand_sets[:-1])
    query_id_at = id_rank[ncarried:].copy()
    query_id_at[1:] -= paired_fallback[1:] & (cand_ident[1:] == cand_ident[:-1])
    del set_rank, paired_fallback

    # Each reference's key as a group number in key order.
    ordered_keys = ref_ident[id_order]
    group = np.zeros(refs, dtype=np.int64)
    np.cumsum(ordered_keys[1:] != ordered_keys[:-1], out=group[1:])
    query_group = group[id_rank[ncarried:]]
    del ordered_keys

    fallback = np.flatnonzero(~own)
    present, stream, position, id_stream, active_at, same, nxt = (
        _settle_presence(ways, ncarried, set_order, id_order, group,
                         query_set_at, query_id_at, query_group, fallback,
                         np.flatnonzero(own & ~updates)))
    del set_order, group, query_set_at, query_group

    # ---------------------------------------------------------- flags
    own_at = np.flatnonzero(own)
    own_present = np.zeros(count, dtype=bool)
    own_present[owner[own_at]] = present[own_at]
    fallback_present = np.zeros(count, dtype=bool)
    fallback_present[owner[fallback]] = present[fallback]
    lookup1 = ops == _OP_LOOKUP1
    hits = np.where(indirect, own_present | fallback_present,
                    (lookup1 | unders) & own_present)
    del fallback_present
    # The reference each hit reads its stored target from.
    source = np.full(count, -1, dtype=np.int64)
    source[owner[own_at]] = own_at
    missed_own = ~present[fallback + 1]
    source[owner[fallback][missed_own]] = fallback[missed_own]
    hit_rel = np.flatnonzero(hits)
    hit_source = source[hit_rel]

    # A present key's stored target is its last update's, or its carried
    # entry's: the last write at or before its lookup in key order.
    writes = np.concatenate((np.ones(ncarried, dtype=bool), updates))
    target_of = np.concatenate((carried_targets, encoded[owner]))
    last_write = id_order[np.maximum.accumulate(
        np.where(writes[id_order], ref_range, 0))]
    del writes, ref_range, id_order

    stored = target_of[last_write[query_id_at[hit_source] - 1]]
    btb_ok = np.zeros(count, dtype=bool)
    btb_ok[hit_rel] = (stored == encoded[hit_rel]) & high_ok[hit_rel]
    correct = np.where(ops == _OP_UPDATE1, fall_ok,
                       np.where(is_return & ~unders, rsb_ok, btb_ok))
    target_ok = correct | ~takens
    del source, hit_source, stored, btb_ok, correct, rsb_ok, query_id_at

    # An install evicts when its set (in this flush epoch) already holds
    # ``ways`` distinct keys.
    installs = np.flatnonzero(updates & ~present)
    install_at = position[ncarried + installs]
    del position
    id_first = np.ones(stream.shape[0], dtype=bool)
    id_first[active_at[1:][same]] = False
    distinct = np.concatenate(([0], np.cumsum(id_first)))
    # Each set's stream, split at its flush epochs.
    stream_sets = ref_sets[stream]
    boundary = np.ones(stream.shape[0], dtype=bool)
    boundary[1:] = stream_sets[1:] != stream_sets[:-1]
    if epochs:
        stream_epochs = np.concatenate(
            (np.zeros(ncarried, dtype=np.int64), epoch_of))[stream]
        boundary[1:] |= stream_epochs[1:] != stream_epochs[:-1]
    segment_at = np.maximum.accumulate(
        np.where(boundary, np.arange(stream.shape[0]), 0))[install_at]
    full_set = distinct[install_at] - distinct[segment_at] >= ways
    evicts = np.zeros(count, dtype=bool)
    evicts[owner[installs[full_set]]] = True
    del id_first, distinct, boundary, segment_at, full_set
    # --------------------------------------------------------- monitor
    stopped_at = -1
    done = count
    if monitor is not None:
        config = monitor.config
        counters = monitor.counters
        mispredicted = ~(dir_ok & target_ok)
        if config.direction_misprediction_threshold is not None:
            direction = mispredicted & ~dir_ok
            main = mispredicted & dir_ok
        else:
            direction = np.zeros(count, dtype=bool)
            main = mispredicted
        due = min(_first_due(evicts, counters.evictions_remaining, count),
                  _first_due(main, counters.mispredictions_remaining, count),
                  _first_due(direction, counters.direction_remaining, count))
        if due < count:
            stopped_at = due
            done = due + 1
        monitor.observed_mispredictions += int(np.count_nonzero(
            mispredicted[:done]))
        monitor.observed_evictions += int(np.count_nonzero(evicts[:done]))
        if stopped_at >= 0:
            monitor.fired_count += 1
            monitor.reload()
        else:
            counters.evictions_remaining -= int(np.count_nonzero(evicts))
            counters.mispredictions_remaining -= int(np.count_nonzero(main))
            counters.direction_remaining -= int(np.count_nonzero(direction))

    # ------------------------------------------------ commit: the RSB
    if stopped_at < 0:
        flushed = epochs
        rsb._stack[:] = stack
    else:
        flushed = int(np.searchsorted(clears, stopped_at, side="right"))
        executed_items = int(np.searchsorted(rsb_rel, done))
        rsb._stack[:] = carried_stack
        _, overflows = _rsb_replay(rsb._stack, rsb.capacity,
                                   items[:executed_items],
                                   segments[:flushed])
    rsb.overflow_count += overflows
    rsb.underflow_count += int(np.count_nonzero(unders[:done]))

    # ------------------------------------------------ commit: the BTB
    # Clock ticks per participant: a mode-1 lookup 1, an indirect branch's
    # mode-2 lookup 1 and its fallback 1, an underflowed return's lookup 1,
    # and the update of a taken branch 1.
    ticks = (lookup1.astype(np.int64) + indirect + (indirect & ~own_present)
             + unders + takens)
    clock_after = btb._access_clock + np.cumsum(ticks)
    executed = int(np.searchsorted(times, 2 * done))
    in_prefix = stream < ncarried + executed
    # A key's residency runs from its install (or carried entry) to its
    # eviction.  An install takes its set's oldest invalid way while one is
    # left; after that it evicts, and LRU evicts residencies in the order
    # of their last references, so a set's k-th evicting install in the
    # prefix takes the way of the k-th residency to end there.  The set
    # keeps its ``ways`` most recent keys, unused invalid ways included.
    size = stream.shape[0]
    is_install = np.zeros(size, dtype=bool)
    is_install[install_at[installs < executed]] = True
    install_at = np.flatnonzero(is_install)
    row_of_set = np.cumsum(referenced) - 1
    install_rows = row_of_set[stream_sets[install_at]]
    row_installs = np.bincount(install_rows, minlength=rows)
    following = np.minimum(nxt, size - 1)
    continued = (nxt != _NO_NEXT) & in_prefix[following]
    last = in_prefix & ~continued
    final_at = np.flatnonzero(last)
    final_rows = row_of_set[stream_sets[final_at]]
    kept = _from_group_end(final_rows) < (
        ways - np.maximum(invalid_ways - row_installs, 0))[final_rows]
    ends = last | (continued & is_install[following])
    ends[final_at[kept]] = False
    evicted_at = np.flatnonzero(ends)
    # Each reference's residency start, then each install's way: an
    # invalid one, or that of the residency it evicts, through chains of
    # installs into one way.
    starts_ids = (id_stream < ncarried) | is_install[active_at]
    start_of = np.empty(size, dtype=np.int64)
    start_of[active_at] = active_at[np.maximum.accumulate(
        np.where(starts_ids, np.arange(size), -1))]
    install_index = np.full(size, -1, dtype=np.int64)
    install_index[install_at] = np.arange(install_at.shape[0])
    nth = np.arange(install_at.shape[0]) - np.repeat(
        np.cumsum(row_installs) - row_installs, row_installs)
    into_invalid = nth < invalid_ways[install_rows]
    install_slots = np.full(install_at.shape[0], -1, dtype=np.int64)
    install_slots[into_invalid] = set_ways[install_rows[into_invalid],
                                          nth[into_invalid]]
    evicting = np.flatnonzero(~into_invalid)
    row_evicted = np.bincount(row_of_set[stream_sets[evicted_at]],
                              minlength=rows)
    victim_rows = install_rows[evicting]
    victims = start_of[evicted_at[(np.cumsum(row_evicted) - row_evicted)[
        victim_rows] + nth[evicting] - invalid_ways[victim_rows]]]
    link = np.full(install_at.shape[0], -1, dtype=np.int64)
    link[evicting] = install_index[victims]
    from_carried = link[evicting] < 0
    install_slots[evicting[from_carried]] = carried_slots[
        stream[victims[from_carried]]]
    while True:
        pending = np.flatnonzero(install_slots < 0)
        if not pending.shape[0]:
            break
        install_slots[pending] = install_slots[link[pending]]
        link[pending] = link[link[pending]]
    final_at = final_at[kept]
    final_refs = stream[final_at]
    final_ident = ref_ident[final_refs]
    final_start = start_of[final_at]
    final_install = install_index[final_start]
    carried_start = final_install < 0
    final_slots = np.empty(final_at.shape[0], dtype=np.int64)
    final_slots[carried_start] = carried_slots[
        stream[final_start[carried_start]]]
    final_slots[~carried_start] = install_slots[final_install[~carried_start]]
    final_entries = final_ident // period
    final_valid = final_ident % period == flushed
    final_keys = final_entries // slot_count
    # A reference's stamp: its access's clock tick (a fallback's is the
    # second of its branch's ticks, an own reference's the last).
    final_ranks = np.where(final_valid, VALID, 0)
    carried_final = final_refs < ncarried
    final_ranks[carried_final] += carried_ranks[final_refs[carried_final]] - VALID
    made = final_refs[~carried_final] - ncarried
    final_ranks[~carried_final] += np.where(
        own[made], clock_after[owner[made]],
        clock_after[owner[made]] - ticks[owner[made]] + 2)
    final_targets = target_of[last_write[id_rank[final_refs]]]
    if flushed:
        all_ranks[all_ranks >= VALID] -= VALID
    all_keys[final_slots] = final_keys
    all_ranks[final_slots] = final_ranks
    all_targets[final_slots] = final_targets
    btb._keys[:] = all_keys.tolist()
    btb._ranks[:] = all_ranks.tolist()
    btb._targets[:] = all_targets.tolist()
    index = btb._slots
    if flushed:
        index.clear()
        changed = final_valid
    else:
        # Evicted carried entries leave the index; keys installed in the
        # span (re-installed ones included) enter it at their new ways.
        evicted_refs = stream[start_of[evicted_at]]
        evicted_refs = evicted_refs[evicted_refs < ncarried]
        for entry in carried_entries[evicted_refs].tolist():
            del index[entry]
        changed = final_valid & (final_install >= 0)
    index.update(zip(final_entries[changed].tolist(),
                     final_slots[changed].tolist()))
    if done:
        btb._access_clock = int(clock_after[done - 1])
    btb.eviction_count += int(np.count_nonzero(evicts[:done]))
    return target_ok, hits, evicts, unders, stopped_at


#: The span-stepper protocol: every direction stepper class must implement
#: all of these (enforced by the ``backend-parity`` lint rule).  A stepper
#: replays its predictor's own tables in place, so the predictor's own
#: ``flush`` applies between spans: ``begin``/``finish`` take and drop
#: zero-copy array views of them around a replay, ``prepare_span(cond_ips,
#: cond_ctx, cond_takens, engine)`` batches one span's prediction inputs,
#: and ``commit_span(cond_takens, executed_cond)`` commits the executed
#: prefix.  A stepper with ``guarded = False`` (SKL, Perceptron) returns the
#: span's conditional predictions from ``prepare_span`` and also applies the
#: flushes inside a span (``engine.cond_epochs``); the guarded one (TAGE)
#: returns a per-conditional ``step(ordinal) -> predicted`` closure whose
#: speculation repairs itself when a guard fails mid-span, and its spans end
#: at every flush.
STEPPER_PROTOCOL = ("begin", "prepare_span", "commit_span", "finish")


class _SKLStepper:
    """Closed-form replay of a :class:`~repro.bpu.pht.SKLConditionalPredictor`.

    The one-level, two-level and chooser tables are adopted as zero-copy
    ``uint8`` views of their ``bytearray`` counters, and a span's
    predictions come from three segmented counter scans — no
    per-conditional step.  A scan is pure until committed, so
    ``commit_span`` scatters only the executed prefix when a monitor fired
    mid-span.  A span with flushes scans each flush epoch under its own keys
    (offset by epoch × table length), and commit keeps the last epoch only.
    """

    __slots__ = ("direction", "maps", "one_table", "two_table",
                 "choice_table", "scans", "epochs")

    guarded = False

    def __init__(self, direction, maps):
        self.direction = direction
        self.maps = maps

    def begin(self) -> None:
        direction = self.direction
        self.one_table = np.frombuffer(direction.one_level._values, np.uint8)
        self.two_table = np.frombuffer(direction.two_level._values, np.uint8)
        self.choice_table = np.frombuffer(direction.chooser._values, np.uint8)

    def finish(self) -> None:
        self.one_table = self.two_table = self.choice_table = None
        self.scans = None

    def prepare_span(self, cond_ips, cond_ctx, cond_takens, engine):
        sizes = engine.sizes
        bits = sizes.ghr_bits
        ghr_pre = _ghr_window(cond_takens.astype(np.uint64),
                              engine.history.ghr.value, bits)
        epochs = engine.cond_epochs
        self.epochs = engine.epochs
        if epochs is not None:
            # A flush clears the GHR: a later epoch's windows keep only the
            # outcomes pushed since the epoch began.
            since = (np.arange(epochs.shape[0])
                     - np.searchsorted(epochs, epochs)).clip(max=bits)
            kept = (_U64(1) << since.astype(np.uint64)) - _U64(1)
            ghr_pre = np.where(epochs > 0, ghr_pre & kept, ghr_pre)
        one_idx = np.asarray(self.maps.pht1(cond_ips, cond_ctx)).astype(np.int64)
        two_idx = np.asarray(
            self.maps.pht2(cond_ips, ghr_pre, cond_ctx)).astype(np.int64)
        entries = sizes.pht_entries
        if entries & (entries - 1):
            # Non-power-of-two tables: the scalar PatternHistoryTable wraps
            # every access with ``index % entries``; fold/mask outputs can
            # exceed the table, so apply the same wrap up front.
            one_idx %= entries
            two_idx %= entries
        if epochs is not None:
            # Every flush epoch scans a flushed copy of the tables.
            one_idx += epochs * entries
            two_idx += epochs * entries
        updates = np.where(cond_takens, np.uint8(MAP_INCREMENT),
                           np.uint8(MAP_DECREMENT))
        one_pre, one_scan, one_order = _scan_counters(one_idx, updates, self.one_table)
        two_pre, two_scan, _ = _scan_counters(two_idx, updates, self.two_table)
        one_pred = one_pre > 1
        two_pred = two_pre > 1
        one_correct = one_pred == cond_takens
        two_correct = two_pred == cond_takens
        choice_updates = np.where(
            one_correct != two_correct,
            np.where(two_correct, np.uint8(MAP_INCREMENT), np.uint8(MAP_DECREMENT)),
            np.uint8(MAP_IDENTITY))
        choice_pre, choice_scan, _ = _scan_counters(
            one_idx, choice_updates, self.choice_table, order=one_order)
        self.scans = ((one_scan, self.one_table), (two_scan, self.two_table),
                      (choice_scan, self.choice_table))
        return np.where(choice_pre > 1, two_pred, one_pred)

    def commit_span(self, cond_takens, executed_cond: int) -> None:
        upto = None if executed_cond == cond_takens.shape[0] else executed_cond
        for scan, table in self.scans:
            if self.epochs:
                table.fill(FLUSHED_COUNTER)
            if scan is not None:
                scan.commit(table, upto, self.epochs)


class _TAGEStepper:
    """Span-stepping replay of a :class:`~repro.bpu.tage.TAGEPredictor`.

    Prediction inputs for a whole span — per-table folded histories (via the
    prefix-parity closed form of the incremental fold), table indices and
    tags (vectorised mapping kernels), tagged-entry hit bits, bimodal / loop /
    statistical-corrector indices — are precomputed with array kernels; a
    slim per-conditional closure then applies the scalar predict/update
    algorithm in exact order to the predictor's own columns, in place.  The
    hit bits read zero-copy views of the valid and tag columns.  The same
    closed form gives each fold register's value after the span's executed
    prefix, which ``commit_span`` stores, so the registers stay exact without
    being carried bit by bit.

    The speculative piece is the hit-bit precompute: it assumes span-start
    tag-store contents, but a TAGE allocation rewrites a tag mid-span.  An
    allocation scans the remainder of the span's index column for later
    accesses of the overwritten entry and repairs exactly the precomputed
    hit bits the rewrite invalidated — speculate on "no allocation touches
    my entry", patch precisely where that guard fails.
    """

    __slots__ = ("direction", "maps", "config", "_pad", "valid", "tags", "folds")

    guarded = True

    def __init__(self, direction, maps):
        self.direction = direction
        self.maps = maps
        self.config = direction.config
        self._pad = direction._max_history + 64

    # ------------------------------------------------------------------ state

    def begin(self) -> None:
        direction = self.direction
        self.valid = [np.frombuffer(column, dtype=bool)
                      for column in direction._valid]
        self.tags = [np.frombuffer(column, dtype=np.int64)
                     for column in direction._tags]

    def finish(self) -> None:
        self.valid = self.tags = self.folds = None

    def commit_span(self, cond_takens, executed_cond: int) -> None:
        direction = self.direction
        direction._access_count += executed_cond
        if executed_cond:
            _extend_outcomes(
                direction._ghist,
                cond_takens[:executed_cond].astype(np.int64).tolist(),
                direction._max_history, slack=64)
            for fold, values in zip(
                    (*direction._index_folds, *direction._tag_folds), self.folds):
                fold.value = int(values[executed_cond])

    # ------------------------------------------------------------------- spans

    def prepare_span(self, cond_ips, cond_ctx, cond_takens, engine):
        config = self.config
        direction = self.direction
        maps = self.maps
        ncond = cond_ips.shape[0]
        pad = self._pad

        # ---------------------------------------- folded histories per table
        ghist_tail = direction._ghist[-direction._max_history:]
        carried = len(ghist_tail)
        ext = np.zeros(pad + carried + ncond, dtype=np.int64)
        if carried:
            ext[pad:pad + carried] = ghist_tail
        ext[pad + carried:] = cond_takens
        parity_cache: dict[int, np.ndarray] = {}

        def parity(width: int) -> np.ndarray:
            cached = parity_cache.get(width)
            if cached is None:
                cached = _strided_parity(ext, width)
                parity_cache[width] = cached
            return cached

        # ------------------------------------- indices / tags / hit bits
        table_count = config.table_count
        history_lengths = config.history_lengths
        index_widths = direction._table_index_bits
        tag_widths = config.tag_bits

        def batched_maps(method, fold_list, widths):
            """One vectorised map call per distinct output width (the map
            kernels accept per-element table numbers, so same-width tables
            share a single hash pass)."""
            out = [None] * table_count
            groups: dict[int, list[int]] = {}
            for table_no, width in enumerate(widths):
                groups.setdefault(width, []).append(table_no)
            for width, members in groups.items():
                if len(members) == 1:
                    table_no = members[0]
                    out[table_no] = np.asarray(method(
                        cond_ips, fold_list[table_no], table_no, width,
                        cond_ctx))
                    continue
                stacked = np.asarray(method(
                    np.concatenate([cond_ips] * len(members)),
                    np.concatenate([fold_list[t] for t in members]),
                    np.repeat(np.asarray(members, dtype=np.uint64), ncond),
                    width,
                    None if cond_ctx is None
                    else np.concatenate([cond_ctx] * len(members))))
                for position, table_no in enumerate(members):
                    out[table_no] = stacked[position * ncond:
                                            (position + 1) * ncond]
            return out

        # One value past the span: the registers after its last outcome.
        fold_idx = [_fold_values(parity(index_widths[t]), pad, carried, ncond + 1,
                                 history_lengths[t], index_widths[t])
                    for t in range(table_count)]
        fold_tag = [_fold_values(parity(tag_widths[t]), pad, carried, ncond + 1,
                                 history_lengths[t], tag_widths[t])
                    for t in range(table_count)]
        self.folds = fold_idx + fold_tag
        fold_idx = [values[:ncond] for values in fold_idx]
        fold_tag = [values[:ncond] for values in fold_tag]
        idx_list = batched_maps(maps.tage_indices, fold_idx, index_widths)
        tag_list = batched_maps(maps.tage_tags, fold_tag, tag_widths)

        hit_bits = np.zeros(ncond, dtype=np.int64)
        idx_matrix = np.empty((table_count, ncond), dtype=np.int64)
        tag_matrix = np.empty((table_count, ncond), dtype=np.int64)
        for table_no, entries in enumerate(config.tagged_table_entries):
            idx = (idx_list[table_no] % _U64(entries)).astype(np.int64)
            tag = tag_list[table_no].astype(np.int64)
            idx_matrix[table_no] = idx
            tag_matrix[table_no] = tag
            hit = self.valid[table_no][idx] & (self.tags[table_no][idx] == tag)
            hit_bits |= hit.astype(np.int64) << table_no
        hbs = hit_bits.tolist()

        # ------------------------------------------------- bimodal and loop
        bim_idx = (np.asarray(maps.pht1(cond_ips, cond_ctx))
                   % _U64(config.bimodal_entries)).astype(np.int64).tolist()
        use_loop = config.use_loop_predictor
        if use_loop:
            loop_idx = ((cond_ips >> _U64(2)) % _U64(config.loop_entries)
                        ).astype(np.int64).tolist()
            loop_tag_vals = ((cond_ips >> _U64(8)) & _U64(0x3FF)
                             ).astype(np.int64).tolist()
        else:
            loop_idx = loop_tag_vals = None

        # ------------------------------------------- statistical corrector
        use_sc = config.use_statistical_corrector
        sc_idx: list[list[int]] = []
        if use_sc:
            max_sc = max(config.sc_history_lengths)
            tail = engine.history.outcomes[-max_sc:]
            carried_sc = len(tail)
            ext_sc = np.zeros(carried_sc + ncond, dtype=np.int64)
            if carried_sc:
                ext_sc[:carried_sc] = np.array(tail, dtype=bool)
            ext_sc[carried_sc:] = cond_takens
            for component, depth in enumerate(config.sc_history_lengths):
                folded = np.zeros(ncond, dtype=np.int64)
                cold = max(0, min(depth - carried_sc, ncond))
                for position in range(cold):
                    # Shorter-than-depth histories anchor fold positions at
                    # the oldest outcome (``FoldedHistory.fold``).
                    value = 0
                    for offset in range(carried_sc + position):
                        if ext_sc[offset]:
                            value ^= 1 << (offset % 10)
                    folded[position] = value
                if ncond > cold:
                    windows = np.lib.stride_tricks.sliding_window_view(
                        ext_sc, depth)
                    block = windows[carried_sc + cold - depth:
                                    carried_sc + ncond - depth]
                    warm = np.zeros(ncond - cold, dtype=np.int64)
                    for position in range(depth):
                        warm ^= block[:, position] << (position % 10)
                    folded[cold:] = warm
                mixed = ((cond_ips >> _U64(2))
                         ^ (folded.astype(np.uint64) * _U64(3))
                         ^ _U64(component * 0x61))
                sc_idx.append((mixed % _U64(config.sc_table_entries))
                              .astype(np.int64).tolist())
        sc_count = len(sc_idx)
        sc_tables = direction._sc_tables
        if sc_count == 3:
            sc_i0, sc_i1, sc_i2 = sc_idx
            sc_t0, sc_t1, sc_t2 = sc_tables
        else:
            sc_i0 = sc_i1 = sc_i2 = sc_t0 = sc_t1 = sc_t2 = None

        # ----------------------------------------------------- the step closure
        takens_list = cond_takens.tolist()
        idx_rows = idx_matrix.T.tolist()
        # Next-occurrence chains for allocation repair, built lazily: a table
        # pays for its chain (one stable argsort) only on its first
        # allocation this span.
        span_next: list[list[int] | None] = [None] * table_count
        span_tags: list[list[int] | None] = [None] * table_count
        valid = direction._valid
        tags = direction._tags
        counters = direction._counters
        useful = direction._useful
        bimodal = direction._bimodal
        loop_valid = direction._loop_valid
        loop_tags = direction._loop_tags
        loop_past = direction._loop_past
        loop_current = direction._loop_current
        loop_conf = direction._loop_conf
        low, high = direction._counter_limits()
        useful_max = (1 << config.useful_bits) - 1
        reset_period = config.useful_reset_period
        sc_threshold = direction._sc_threshold
        sc_train_band = sc_threshold * 2
        # The scalar update halves every usefulness counter whenever its
        # access count reaches a multiple of the period: first at this
        # ordinal, then every period after it.  The running access count
        # itself is committed once per span (``commit_span``).
        next_reset = (-(direction._access_count + 1)) % reset_period

        def step(ordinal: int) -> bool:
            nonlocal next_reset
            taken = takens_list[ordinal]

            # ---------------------------------------------------- predict
            bim_position = bim_idx[ordinal]
            bimodal_taken = bimodal[bim_position] >= 2
            hit_mask = hbs[ordinal]
            if hit_mask:
                idx_row = idx_rows[ordinal]
                provider = hit_mask.bit_length() - 1
                provider_position = idx_row[provider]
                provider_counter = counters[provider][provider_position]
                provider_taken = provider_counter >= 0
                rest = hit_mask ^ (1 << provider)
                if rest:
                    alt = rest.bit_length() - 1
                    alt_taken = counters[alt][idx_row[alt]] >= 0
                else:
                    alt_taken = bimodal_taken
                weak = (useful[provider][provider_position] == 0
                        and (provider_counter == -1 or provider_counter == 0))
                if weak and direction._use_alt_on_na >= 8:
                    tage_taken = alt_taken
                else:
                    tage_taken = provider_taken
            else:
                provider = -1
                weak = False
                tage_taken = alt_taken = bimodal_taken
            prediction_taken = tage_taken

            if use_loop:
                loop_position = loop_idx[ordinal]
                loop_tag = loop_tag_vals[ordinal]
                loop_match = (loop_valid[loop_position]
                              and loop_tags[loop_position] == loop_tag)
                if loop_match and loop_conf[loop_position] >= 3:
                    prediction_taken = (loop_current[loop_position] + 1
                                        < loop_past[loop_position])
            if sc_count == 3:
                # Unrolled for the standard three-component corrector.
                total = (2 if prediction_taken else -2) \
                    + sc_t0[sc_i0[ordinal]] + sc_t1[sc_i1[ordinal]] \
                    + sc_t2[sc_i2[ordinal]]
                sc_used = False
                if ((total >= sc_threshold or total <= -sc_threshold)
                        and (total >= 0) != prediction_taken):
                    sc_used = True
                    prediction_taken = total >= 0
            elif sc_count:
                total = 2 if prediction_taken else -2
                for component in range(sc_count):
                    total += sc_tables[component][sc_idx[component][ordinal]]
                sc_used = False
                if ((total >= sc_threshold or total <= -sc_threshold)
                        and (total >= 0) != prediction_taken):
                    sc_used = True
                    prediction_taken = total >= 0

            # ----------------------------------------------------- update
            if use_loop:
                if loop_match:
                    if taken:
                        loop_current[loop_position] += 1
                    else:
                        if (loop_current[loop_position]
                                == loop_past[loop_position]):
                            confidence = loop_conf[loop_position]
                            loop_conf[loop_position] = (
                                confidence + 1 if confidence < 7 else 7)
                        else:
                            loop_past[loop_position] = (
                                loop_current[loop_position])
                            loop_conf[loop_position] = 0
                        loop_current[loop_position] = 0
                elif not taken:
                    if (not loop_valid[loop_position]
                            or loop_conf[loop_position] == 0):
                        loop_valid[loop_position] = True
                        loop_tags[loop_position] = loop_tag
                        loop_past[loop_position] = 0
                        loop_current[loop_position] = 0
                        loop_conf[loop_position] = 0

            if sc_count and (sc_used or -sc_train_band < total < sc_train_band):
                delta = 1 if taken else -1
                if sc_count == 3:
                    position = sc_i0[ordinal]
                    value = sc_t0[position] + delta
                    sc_t0[position] = (-31 if value < -31
                                       else (31 if value > 31 else value))
                    position = sc_i1[ordinal]
                    value = sc_t1[position] + delta
                    sc_t1[position] = (-31 if value < -31
                                       else (31 if value > 31 else value))
                    position = sc_i2[ordinal]
                    value = sc_t2[position] + delta
                    sc_t2[position] = (-31 if value < -31
                                       else (31 if value > 31 else value))
                else:
                    for component in range(sc_count):
                        table = sc_tables[component]
                        position = sc_idx[component][ordinal]
                        value = table[position] + delta
                        table[position] = (-31 if value < -31
                                           else (31 if value > 31 else value))

            if hit_mask:
                if weak and tage_taken != alt_taken:
                    if alt_taken == taken:
                        if direction._use_alt_on_na < 15:
                            direction._use_alt_on_na += 1
                    elif direction._use_alt_on_na > 0:
                        direction._use_alt_on_na -= 1
                table = counters[provider]
                value = table[provider_position] + 1 if taken else (
                    table[provider_position] - 1)
                table[provider_position] = (high if value > high
                                            else (low if value < low else value))
                if tage_taken != alt_taken:
                    table = useful[provider]
                    if tage_taken == taken:
                        if table[provider_position] < useful_max:
                            table[provider_position] += 1
                    elif table[provider_position] > 0:
                        table[provider_position] -= 1
            else:
                value = bimodal[bim_position]
                bimodal[bim_position] = ((value + 1 if value < 3 else 3)
                                         if taken
                                         else (value - 1 if value > 0 else 0))

            if tage_taken != taken:
                start = provider + 1
                allocated = False
                idx_row = idx_rows[ordinal]
                for table_no in range(start, table_count):
                    position = idx_row[table_no]
                    if (not valid[table_no][position]
                            or useful[table_no][position] == 0):
                        new_tag = int(tag_matrix[table_no, ordinal])
                        valid[table_no][position] = 1
                        tags[table_no][position] = new_tag
                        counters[table_no][position] = 0 if taken else -1
                        useful[table_no][position] = 0
                        # Guard repair: later accesses of this span computed
                        # their hit bit against the overwritten tag — walk
                        # this entry's same-index followers and patch them.
                        chain = span_next[table_no]
                        if chain is None:
                            idx_col = idx_matrix[table_no]
                            nxt = np.full(ncond, -1, dtype=np.int64)
                            if ncond > 1:
                                order = _stable_order(idx_col)
                                ordered = idx_col[order]
                                same = ordered[1:] == ordered[:-1]
                                nxt[order[:-1][same]] = order[1:][same]
                            chain = span_next[table_no] = nxt.tolist()
                            span_tags[table_no] = tag_matrix[table_no].tolist()
                        table_tags = span_tags[table_no]
                        bit = 1 << table_no
                        follower = chain[ordinal]
                        while follower != -1:
                            if table_tags[follower] == new_tag:
                                hbs[follower] |= bit
                            else:
                                hbs[follower] &= ~bit
                            follower = chain[follower]
                        allocated = True
                        break
                if not allocated:
                    for table_no in range(start, table_count):
                        position = idx_row[table_no]
                        if useful[table_no][position] > 0:
                            useful[table_no][position] -= 1

            if ordinal == next_reset:
                next_reset += reset_period
                for table in useful:
                    table[:] = [value >> 1 for value in table]

            return prediction_taken

        return step


#: A perceptron span replays in row rounds while at least this many rows
#: are active (:func:`_perceptron_replay`); below it each remaining row
#: walks its accesses in order.  Measured on figure5-smt's co-runs (see
#: EXPERIMENTS.md).
_ROUND_MIN_ROWS = 8

#: Accesses a row walk predicts ahead from its current weights; the window
#: doubles while none of them trains.
_WALK_AHEAD = 16


def _perceptron_layout(keys: np.ndarray):
    """Round order of a perceptron span's accesses.

    Round ``k`` holds every key's ``k``-th access, so its keys are
    distinct.  Keys take slots in order of their access count, most first,
    so round ``k``'s keys are slots ``0 .. m_k - 1`` and its accesses sit at
    positions ``bounds[k] + slot``.  Returns ``(ordinals, bounds,
    slot_keys)``: the access ordinal at each position, the rounds' start
    positions (and the end) and each slot's key.
    """
    count = keys.shape[0]
    order = _stable_order(keys)
    sorted_keys = keys[order]
    first = np.empty(count, dtype=bool)
    first[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    group = np.cumsum(first) - 1
    rank = np.arange(count) - starts[group]
    by_count = np.argsort(-np.diff(np.append(starts, count)), kind="stable")
    slots = np.empty(by_count.shape[0], dtype=np.int64)
    slots[by_count] = np.arange(by_count.shape[0])
    bounds = np.zeros(int(rank.max()) + 2, dtype=np.int64)
    np.cumsum(np.bincount(rank), out=bounds[1:])
    ordinals = np.empty(count, dtype=np.int64)
    ordinals[bounds[rank] + slots[group]] = order
    return ordinals, bounds, sorted_keys[starts][by_count]


def _walk_row(weights: np.ndarray, inputs: np.ndarray, threshold: int,
              limit: int) -> np.ndarray:
    """Margins of one row's accesses in order, training ``weights`` in place.

    The margins of the next accesses come from the current weights in one
    product; the first access that trains updates the row, and the walk
    resumes after it from the new weights.
    """
    count = inputs.shape[0]
    margins = np.empty(count, dtype=np.int64)
    position = 0
    ahead = _WALK_AHEAD
    while position < count:
        stop = min(count, position + ahead)
        margin = inputs[position:stop] @ weights
        trains = np.flatnonzero(margin <= threshold)
        if not trains.shape[0]:
            margins[position:stop] = margin
            position = stop
            ahead *= 2
            continue
        done = position + int(trains[0]) + 1
        margins[position:done] = margin[:done - position]
        weights += inputs[done - 1]
        np.minimum(weights, limit, out=weights)
        np.maximum(weights, -limit - 1, out=weights)
        position = done
        ahead = _WALK_AHEAD
    return margins


def _perceptron_replay(work: np.ndarray, inputs: np.ndarray,
                       bounds: np.ndarray, threshold: int, limit: int,
                       ) -> np.ndarray:
    """Replay a span's perceptron accesses on the working rows ``work``.

    ``inputs`` holds each access's ±1 inputs (the bias input first) times
    its ±1 outcome, in the round order of :func:`_perceptron_layout`, so an
    access's margin — its dot product times its outcome — is one product,
    it trains exactly when the margin is at most ``threshold`` (a
    misprediction or a dot product within ±``threshold``), and training adds
    its inputs to its row, clamped to ``[-limit - 1, limit]``.  Round ``k``
    replays every active row's ``k``-th access at once; once fewer than
    ``_ROUND_MIN_ROWS`` rows are active, each remaining row walks its
    accesses in order (:func:`_walk_row`).  Returns the margins.
    """
    margins = np.empty(inputs.shape[0], dtype=np.int64)
    floor = -limit - 1
    few = _ROUND_MIN_ROWS
    edges = bounds.tolist()
    rounds = len(edges) - 1
    k = 0
    while k < rounds:
        lo, hi = edges[k], edges[k + 1]
        if hi - lo < few:
            break
        rows = work[:hi - lo]
        block = inputs[lo:hi]
        margin = np.einsum("ij,ij->i", rows, block, out=margins[lo:hi])
        np.add(rows, block, out=rows, where=(margin <= threshold)[:, None])
        np.minimum(rows, limit, out=rows)
        np.maximum(rows, floor, out=rows)
        k += 1
    if k < rounds:
        starts = bounds[k:-1]
        sizes = np.diff(bounds[k:])
        for slot in range(int(sizes[0])):
            positions = starts[:int(np.count_nonzero(sizes > slot))] + slot
            margins[positions] = _walk_row(work[slot], inputs[positions],
                                           threshold, limit)
    return margins


class _PerceptronStepper:
    """Closed-form replay of a :class:`~repro.bpu.perceptron.PerceptronPredictor`.

    A perceptron's rows never interact: an access reads and trains only its
    own row, and its inputs are history bits the span already holds.  So
    ``prepare_span`` replays the span in row rounds
    (:func:`_perceptron_replay`) on a working copy of the rows it touches,
    with no per-conditional step, and returns its predictions.  The
    predictor's own weights (a zero-copy 2-D view of its int64 array) stay
    untouched until ``commit_span`` writes the rows back; when a monitor
    fired mid-span it re-runs the rounds over the executed prefix and writes
    those.  A span with flushes keys each flush epoch's rows apart (offset
    by epoch × table size), later epochs start from zero weights and read
    history older than their flush as not taken, and commit keeps the last
    epoch only.
    """

    __slots__ = ("direction", "maps", "table_size", "history_length",
                 "weights", "keys", "windows", "signs", "epochs", "replayed")

    guarded = False

    def __init__(self, direction, maps):
        self.direction = direction
        self.maps = maps
        config = direction.config
        self.table_size = config.table_size
        self.history_length = config.history_length

    def begin(self) -> None:
        self.weights = np.frombuffer(self.direction._weights, dtype=np.int64
                                     ).reshape(self.table_size, -1)

    def finish(self) -> None:
        self.weights = self.keys = self.windows = self.signs = None
        self.replayed = None

    def prepare_span(self, cond_ips, cond_ctx, cond_takens, engine):
        depth = self.history_length
        count = cond_ips.shape[0]
        keys = np.asarray(self.maps.perceptron_rows(
            cond_ips, self.table_size, cond_ctx)).astype(np.int64)
        epochs = engine.cond_epochs
        self.epochs = engine.epochs
        tail = engine.history.outcomes[-depth:]
        carried = len(tail)
        # ±1 stream: "not taken" pads for missing pre-trace history, then the
        # carried outcomes, then this span's outcomes.
        stream = np.full(depth + carried + count, -1, dtype=np.int8)
        if carried:
            stream[depth:depth + carried][np.array(tail, dtype=bool)] = 1
        signs = stream[depth + carried:]
        signs[cond_takens] = 1
        windows = np.lib.stride_tricks.sliding_window_view(
            stream, depth)[carried:carried + count]
        if epochs is not None:
            keys += epochs * self.table_size
            # A flush clears the history: a later epoch's windows keep only
            # the outcomes pushed since the epoch began.
            since = np.arange(count) - np.searchsorted(epochs, epochs)
            masked = np.flatnonzero((epochs > 0) & (since < depth))
            windows = windows.copy()
            windows[masked] = np.where(
                np.arange(depth) < (depth - since[masked])[:, None],
                np.int8(-1), windows[masked])
        self.keys = keys
        self.windows = windows
        self.signs = signs
        self.replayed = self._replay(count)
        if not count:
            return np.zeros(0, dtype=bool)
        ordinals, margins = self.replayed[0], self.replayed[3]
        # The dot product is the margin times the outcome's sign.
        predictions = np.empty(count, dtype=bool)
        predictions[ordinals] = np.where(cond_takens[ordinals], margins,
                                         -margins) >= 0
        return predictions

    def _replay(self, count: int):
        """Replay the span's first ``count`` accesses from the committed
        weights: ``(ordinals, work, slot_keys, margins)``."""
        if not count:
            return None
        ordinals, bounds, slot_keys = _perceptron_layout(self.keys[:count])
        work = np.zeros((slot_keys.shape[0], self.history_length + 1),
                        dtype=np.int64)
        unflushed = slot_keys < self.table_size
        work[unflushed] = self.weights[slot_keys[unflushed]]
        signs = self.signs[ordinals]
        inputs = np.empty((count, self.history_length + 1), dtype=np.int8)
        inputs[:, 0] = signs
        np.multiply(self.windows[ordinals], signs[:, None], out=inputs[:, 1:])
        direction = self.direction
        margins = _perceptron_replay(work, inputs, bounds,
                                     direction._threshold,
                                     direction._weight_limit)
        return ordinals, work, slot_keys, margins

    def commit_span(self, cond_takens, executed_cond: int) -> None:
        replayed = self.replayed
        if executed_cond < cond_takens.shape[0]:
            replayed = self._replay(executed_cond)
        if self.epochs:
            self.weights.fill(0)
        if replayed is None:
            return
        _, work, slot_keys, _ = replayed
        base = self.epochs * self.table_size
        last = slot_keys >= base
        self.weights[slot_keys[last] - base] = work[last]


class _CompositeEngine:
    """Vector replay engine over one :class:`~repro.bpu.composite.CompositeBPU`.

    Every structure is replayed on the composite's own objects: the BTB's
    slot lists and index, the RSB stack and its overflow and underflow
    counts, the history registers, and the direction predictor's tables (the
    stepper wraps its buffers as arrays).  Each :meth:`run_span` call leaves
    them as the reference loop would after its executed prefix:
    :func:`_replay_structures` rebuilds the BTB and RSB state from its
    arrays, and :meth:`_structural_loop` (guarded spans under a monitor)
    mutates them in place.  :meth:`flush` is the composite's own flush.
    Wrapper kernels (flushing, conservative, STBPU) drive the span schedule
    and event semantics.
    """

    __slots__ = (
        "composite", "pht_maps", "btb_maps", "codec", "stepper", "sizes",
        "btb", "ways", "set_count", "slot_count", "rsb", "history", "arrays",
        "n", "is_cond", "is_direct", "is_indirect", "is_return", "is_call",
        "is_ind_or_ret", "bhb_updates", "mixed", "fallthrough_ok", "high_ok",
        "base_opcode", "dir_ok", "target_ok", "btb_hit", "btb_evict",
        "rsb_under", "map_contexts", "phi_table", "cond_epochs", "epochs",
        "spans", "prepared", "loop_branches", "per_branch",
    )

    def __init__(self, composite, pht_maps, btb_maps, codec, stepper):
        self.composite = composite
        self.pht_maps = pht_maps
        self.btb_maps = btb_maps
        self.codec = codec
        #: The direction component's span stepper (``STEPPER_PROTOCOL``).
        self.stepper = stepper
        self.sizes = composite.sizes
        btb = self.btb = composite.btb
        self.ways = btb.way_count
        self.set_count = btb.set_count
        self.slot_count = btb.entry_count
        self.rsb = composite.rsb
        self.history = composite.history

    # ------------------------------------------------------------------ state

    def begin(self, arrays) -> None:
        self.stepper.begin()

        # ---------------------------------------------- whole-trace invariants
        self.arrays = arrays
        #: The per-branch ``contexts`` column the maps receive, and the
        #: slot → ϕ table the codec gathers from (``None``: the live token's
        #: ϕ).  The STBPU kernel swaps in its slot column and ϕ table.
        self.map_contexts = arrays.context_ids
        self.phi_table = None
        #: The flush epoch of each conditional in the span being replayed
        #: (``None``: the span has no flush) and the span's flush count.
        self.cond_epochs = None
        self.epochs = 0
        #: :meth:`run_span` calls in this replay, the branches they
        #: prepared (a fired span's discarded tail included) and the
        #: branches :meth:`_structural_loop` replayed.
        self.spans = 0
        self.prepared = 0
        self.loop_branches = 0
        ips = arrays.ips
        targets = arrays.targets
        types = arrays.types
        self.n = ips.shape[0]
        #: Whether every span replays its BTB and RSB in the per-branch
        #: loop (a short replay); otherwise only guarded spans under a
        #: monitor do.
        self.per_branch = self.n < _KERNEL_MIN_BRANCHES
        self.is_cond = types == _COND
        self.is_direct = (types == _DJ) | (types == _DC)
        self.is_indirect = (types == _IJ) | (types == _IC)
        self.is_return = types == _RET
        self.is_call = (types == _DC) | (types == _IC)
        self.is_ind_or_ret = self.is_indirect | self.is_return
        self.bhb_updates = arrays.takens & (self.is_cond | self.is_direct)
        self.mixed = (ips & _U64(0x3F_FFFF)) ^ ((targets & _U64(0x3F_FFFF)) << _U64(1))
        self.fallthrough_ok = ((ips + _U64(4)) & _U64(VIRTUAL_ADDRESS_MASK)) == targets
        self.high_ok = (ips >> _U64(32)) == (targets >> _U64(32))
        opcode = np.empty(self.n, dtype=np.uint8)
        opcode[self.is_direct] = _OP_LOOKUP1
        opcode[self.is_indirect] = _OP_INDIRECT
        opcode[self.is_return] = _OP_RETURN
        self.base_opcode = opcode  # conditional entries filled per span

        # Whole-trace result flags, filled span by span.
        self.dir_ok = np.ones(self.n, dtype=bool)
        self.target_ok = np.ones(self.n, dtype=bool)
        self.btb_hit = np.zeros(self.n, dtype=bool)
        self.btb_evict = np.zeros(self.n, dtype=bool)
        self.rsb_under = np.zeros(self.n, dtype=bool)

    def _btb_entries(self, index, key):
        """The BTB index's keys (``key * slot_count + first slot of the
        set``) for the map outputs ``index`` and ``key``."""
        index = index.astype(np.int64)
        if self.set_count != self.sizes.btb_sets:
            index %= self.set_count
        return key.astype(np.int64) * self.slot_count + index * self.ways

    def _encode(self, values, span: slice):
        """Codec-encode ``values`` (branches ``span``), each under its own ϕ."""
        if self.phi_table is None:
            return np.asarray(self.codec.vector_encode(values))
        return np.asarray(self.codec.vector_encode(
            values, self.phi_table[self.map_contexts[span]]))

    def finish(self) -> None:
        self.stepper.finish()

    def flush(self) -> None:
        """Flush the composite between spans, as the reference hooks do."""
        self.composite.flush_predictor_state()

    # ------------------------------------------------------------------- spans

    def run_span(self, lo: int, hi: int, monitor=None,
                 flushes=()) -> tuple[int, bool]:
        """Replay branches ``[lo, hi)``; return ``(executed_to, fired)``.

        The stepper supplies the span's direction predictions, the prelude
        computes its histories and BTB keys in array kernels, and
        :func:`_replay_structures` replays the BTB/RSB accesses.  With
        ``monitor`` set (STBPU), the replay also feeds the re-randomization
        counters and stops right after the access that exhausts one; only
        the executed prefix is committed, so the caller re-keys and resumes
        from ``executed_to``.  The guarded (TAGE) stepper's span is capped at
        ``_STEPPER_SPAN_LIMIT`` branches, so ``executed_to`` may fall short
        of ``hi`` without a fire as well.

        A closed-form stepper (SKL, Perceptron) predicts the whole span
        before the structures replay and commits any executed prefix, so its
        monitored spans replay in the array kernel too.  The guarded stepper
        steps all of a span's conditionals first (a step reads no BTB or RSB
        state), except under a monitor: a step cannot be taken back past a
        re-randomization, so those spans replay in :meth:`_structural_loop`,
        one branch at a time, stepping each conditional where it falls.
        Every span of a short replay (``per_branch``) replays there too.

        ``flushes`` (sorted positions in ``[lo, hi]``, each flushing the
        predictor before that branch) split an unguarded stepper's span into
        epochs, applied in closed form; a span never carries both flushes
        and a monitor, and a span bound for the loop with flushes raises
        ``ValueError``.
        """
        stepper = self.stepper
        guarded = stepper.guarded
        # A guarded stepper under a monitor steps in the loop (a step cannot
        # be taken back past a fire), and so does every span of a short
        # replay.  The loop replays no flush: callers split those spans at
        # their flushes.
        looped = self.per_branch or (guarded and monitor is not None)
        if looped and flushes:
            raise ValueError("the per-branch loop cannot replay a span "
                             "with flushes")
        self.spans += 1
        if guarded:
            hi = min(hi, lo + _STEPPER_SPAN_LIMIT)
        arrays = self.arrays
        span = slice(lo, hi)
        length = hi - lo
        self.prepared += length
        ips = arrays.ips[span]
        takens = arrays.takens[span]
        contexts = self.map_contexts[span]
        is_cond = self.is_cond[span]
        cond_rel = np.flatnonzero(is_cond)
        cond_takens = takens[cond_rel]
        bhb_bits = self.sizes.bhb_bits
        if flushes:
            # Epoch ``e`` runs from the span's ``e``-th flush.
            flush_rel = np.asarray(flushes, dtype=np.int64) - lo
            self.cond_epochs = np.searchsorted(flush_rel, cond_rel, side="right")
            self.epochs = flush_rel.shape[0]
        else:
            flush_rel = self.cond_epochs = None
            self.epochs = 0
        prediction = stepper.prepare_span(
            ips[cond_rel], contexts[cond_rel], cond_takens, self)

        # --------------------------------------------------------- histories
        history = self.history
        update_mask = self.bhb_updates[span]
        mixed = self.mixed[span][update_mask]
        bhb_states = _bhb_states(mixed, history.bhb.value, bhb_bits)
        update_cum = np.cumsum(update_mask)
        ind_ret_rel = np.flatnonzero(self.is_ind_or_ret[span])
        updates_before = update_cum[ind_ret_rel] - update_mask[ind_ret_rel]
        bhb_at = bhb_states[updates_before]
        if flush_rel is not None:
            # BHB pushes made before each flush; a read in a later epoch
            # drops the value its epoch's flush cleared.
            flush_pushes = np.concatenate(([0], update_cum))[flush_rel]
            read_epochs = np.searchsorted(flush_rel, ind_ret_rel, side="right")
            later = np.flatnonzero(read_epochs)
            bhb_at[later] = _bhb_cleared(
                bhb_states, updates_before[later],
                flush_pushes[read_epochs[later] - 1], bhb_bits)

        # ---------------------------------------------------------- BTB keys
        mode1 = self._btb_entries(*self.btb_maps.btb1(ips, contexts))
        encoded = self._encode(arrays.targets[span], span).astype(np.int64)
        push_values = self._encode(
            (ips + _U64(4)) & _U64(VIRTUAL_ADDRESS_MASK), span).astype(np.int64)
        mode2 = np.zeros(length, dtype=np.int64)
        if ind_ret_rel.shape[0]:
            mode2[ind_ret_rel] = self._btb_entries(*self.btb_maps.btb2(
                ips[ind_ret_rel], bhb_at, contexts[ind_ret_rel]))

        # ------------------------------------------------------- participants
        if looped and guarded:
            # Every branch enters the loop; conditionals resolve there
            # through the step closure, which fills ``dir_ok``.
            part = slice(None)
            ops = self.base_opcode[span]
            dir_flags = [True] * length
            conds, step = is_cond.tolist(), prediction
        else:
            if guarded:
                prediction = np.fromiter(map(prediction, range(cond_rel.shape[0])),
                                         dtype=bool, count=cond_rel.shape[0])
            # A conditional predicted and resolved not-taken touches no
            # structure and feeds the monitor nothing, so it does not
            # participate.
            predicted = np.zeros(length, dtype=bool)
            predicted[cond_rel] = prediction
            ops = self.base_opcode[span].copy()
            ops[cond_rel] = np.where(prediction, np.uint8(_OP_LOOKUP1),
                                     np.uint8(_OP_UPDATE1))
            part = np.flatnonzero(~is_cond | predicted | takens)
            dir_flags = (~is_cond | (predicted == takens))[part]
            conds = step = None
        columns = (ops[part], takens[part], mode1[part], mode2[part],
                   encoded[part], self.high_ok[span][part],
                   self.fallthrough_ok[span][part], self.is_call[span][part],
                   push_values[part])
        if looped:
            if conds is None:
                dir_flags = dir_flags.tolist()
            target_ok, hits, evicts, unders, stopped_at = self._structural_loop(
                *(column.tolist() for column in columns), dir_flags, monitor,
                conds, step)
        else:
            # The participants each flush lands before (the participant
            # count when it lands after the last one).
            clears = (np.empty(0, dtype=np.int64) if flush_rel is None
                      else np.unique(np.searchsorted(part, flush_rel)))
            target_ok, hits, evicts, unders, stopped_at = _replay_structures(
                self.btb, self.rsb, *columns, dir_flags, monitor, clears)
        flags = (dir_flags, target_ok, hits, evicts, unders)
        fired = stopped_at >= 0
        executed_rel = length
        if fired:
            # Store and commit only the executed prefix; the resumed span
            # replays the rest.
            done = stopped_at + 1
            if conds is not None:
                executed_rel, part = done, slice(0, done)
            else:
                executed_rel, part = int(part[stopped_at]) + 1, part[:done]
            flags = [values[:done] for values in flags]
        if looped:
            self.loop_branches += executed_rel

        # Non-participating conditionals keep the defaults.
        for column, values, default in zip(
                (self.dir_ok, self.target_ok, self.btb_hit, self.btb_evict,
                 self.rsb_under), flags, (True, True, False, False, False)):
            view = column[lo:lo + executed_rel]
            view[:] = default
            view[part] = values

        # ------------------------------------------------ commit predictor state
        executed_cond = int(np.searchsorted(cond_rel, executed_rel))
        pushes = update_cum[executed_rel - 1]
        if flush_rel is None:
            ghr_seed, first_cond = history.ghr.value, 0
            history.bhb.value = int(bhb_states[pushes])
        else:
            # The histories restart at the span's last flush.
            ghr_seed = 0
            first_cond = int(np.searchsorted(cond_rel, flush_rel[-1]))
            history.bhb.value = int(_bhb_cleared(bhb_states, pushes,
                                                 flush_pushes[-1], bhb_bits))
            history.outcomes.clear()
        executed_outcomes = cond_takens[first_cond:executed_cond].tolist()
        history.ghr.value = _ghr_commit(ghr_seed, executed_outcomes,
                                        self.sizes.ghr_bits)
        stepper.commit_span(cond_takens, executed_cond)
        _extend_outcomes(history.outcomes, executed_outcomes,
                         history.max_outcomes)
        return lo + executed_rel, fired

    # --------------------------------------------------------- structural loop

    def _structural_loop(self, ops, takens, entry1, entry2, encoded, high_ok,
                         fall_ok, calls, pushes, dir_ok, monitor, conds, step):
        """Replay a span's participants one branch at a time.

        With ``conds`` set (a guarded stepper), every branch participates
        and each conditional is stepped where it falls, so a fire stops the
        stepper too; otherwise ``dir_ok`` holds the direction verdicts.
        The BTB and RSB are replayed on their own lists in place, and the
        span has no flush.  Returns the flags :func:`_replay_structures`
        returns.
        """
        btb = self.btb
        keys = btb._keys
        ranks = btb._ranks
        stored = btb._targets
        index = btb._slots
        probe = index.get
        clock = btb._access_clock
        evictions = btb.eviction_count
        ways = self.ways
        slot_count = self.slot_count
        rsb = self.rsb._stack
        rsb_capacity = self.rsb.capacity
        overflows = self.rsb.overflow_count
        underflows = self.rsb.underflow_count
        count = len(ops)
        target_ok = [True] * count
        hits = [False] * count
        evicts = [False] * count
        unders = [False] * count
        stopped_at = -1
        ordinal = 0

        watching = monitor is not None
        if watching:
            # The loop works on local copies of the monitor's thresholds
            # and counters (attribute reads cost per access) and writes the
            # counters back on exit.
            config = monitor.config
            counters = monitor.counters
            mis_threshold = config.misprediction_threshold
            ev_threshold = config.eviction_threshold
            has_direction = config.direction_misprediction_threshold is not None
            dir_threshold = (config.direction_misprediction_threshold
                             if has_direction else mis_threshold)
            mis_remaining = counters.mispredictions_remaining
            ev_remaining = counters.evictions_remaining
            dir_remaining = counters.direction_remaining
            observed_mis = monitor.observed_mispredictions
            observed_ev = monitor.observed_evictions
            fired_count = monitor.fired_count

        for j in range(count):
            taken = takens[j]
            if conds is not None and conds[j]:
                # Guarded stepper: resolve the direction prediction in place.
                predicted = step(ordinal)
                ordinal += 1
                dir_ok[j] = predicted == taken
                if predicted:
                    op = 0
                elif taken:
                    op = 1
                else:
                    # Predicted and resolved not-taken: the fall-through
                    # target is implicitly correct, no structure is
                    # touched, and the monitor sees neither misprediction
                    # nor eviction.
                    continue
            else:
                op = ops[j]
            hit = False
            correct = False
            evicted = False
            # ``slot`` ends as the update entry's slot (``None``: absent).
            if op == 0:  # mode-1 lookup (cond. predicted-taken / direct)
                clock += 1
                entry = entry1[j]
                slot = probe(entry)
                if slot is not None:
                    ranks[slot] = VALID + clock
                    hit = True
                    if stored[slot] == encoded[j] and high_ok[j]:
                        correct = True
            elif op == 1:  # cond. predicted not-taken, resolved taken
                entry = entry1[j]
                slot = probe(entry)
                correct = fall_ok[j]
            elif op == 2:  # indirect: mode-2 lookup, mode-1 fallback
                clock += 1
                entry = entry2[j]
                slot = probe(entry)
                if slot is not None:
                    ranks[slot] = VALID + clock
                    hit = True
                    if stored[slot] == encoded[j] and high_ok[j]:
                        correct = True
                else:
                    clock += 1
                    fallback = probe(entry1[j])
                    if fallback is not None:
                        ranks[fallback] = VALID + clock
                        hit = True
                        if stored[fallback] == encoded[j] and high_ok[j]:
                            correct = True
            else:  # return: RSB pop, mode-2 lookup on underflow
                entry = entry2[j]
                slot = probe(entry)
                if rsb:
                    popped = rsb.pop()
                    if popped == encoded[j] and high_ok[j]:
                        correct = True
                else:
                    underflows += 1
                    unders[j] = True
                    clock += 1
                    if slot is not None:
                        ranks[slot] = VALID + clock
                        hit = True
                        if stored[slot] == encoded[j] and high_ok[j]:
                            correct = True

            if taken:
                target_ok[j] = correct
                # ------------------------------------------------- BTB update
                clock += 1
                if slot is None:
                    base = entry % slot_count
                    set_ranks = ranks[base:base + ways]
                    slot = base + set_ranks.index(min(set_ranks))
                    if ranks[slot] >= VALID:
                        evictions += 1
                        evicted = True
                        evicts[j] = True
                        del index[keys[slot] * slot_count + base]
                    keys[slot] = entry // slot_count
                    index[entry] = slot
                stored[slot] = encoded[j]
                ranks[slot] = VALID + clock
            hits[j] = hit

            if calls[j]:
                if len(rsb) >= rsb_capacity:
                    del rsb[0]
                    overflows += 1
                rsb.append(pushes[j])

            if watching:
                mispredicted = not (dir_ok[j] and (correct or not taken))
                if mispredicted or evicted:
                    fire = False
                    if evicted:
                        observed_ev += 1
                        ev_remaining -= 1
                        if ev_remaining <= 0:
                            fire = True
                    if mispredicted:
                        observed_mis += 1
                        if has_direction and not dir_ok[j]:
                            dir_remaining -= 1
                            if dir_remaining <= 0:
                                fire = True
                        else:
                            mis_remaining -= 1
                            if mis_remaining <= 0:
                                fire = True
                    if fire:
                        fired_count += 1
                        mis_remaining = mis_threshold
                        ev_remaining = ev_threshold
                        dir_remaining = dir_threshold
                        stopped_at = j
                        break

        btb._access_clock = clock
        btb.eviction_count = evictions
        self.rsb.overflow_count = overflows
        self.rsb.underflow_count = underflows
        if watching:
            counters.mispredictions_remaining = mis_remaining
            counters.evictions_remaining = ev_remaining
            counters.direction_remaining = dir_remaining
            monitor.observed_mispredictions = observed_mis
            monitor.observed_evictions = observed_ev
            monitor.fired_count = fired_count
        return target_ok, hits, evicts, unders, stopped_at


# --------------------------------------------------------------------- stats

def _accumulate(engine: _CompositeEngine, stats: PredictorStats,
                measured) -> None:
    """Fold the flags of the ``measured`` branches (a slice or an index
    array) into ``stats``, exactly like the reference loop records them."""
    conditional = engine.is_cond[measured]
    taken = engine.arrays.takens[measured]
    dir_ok = engine.dir_ok[measured]
    target_ok = engine.target_ok[measured]
    effective = dir_ok & target_ok
    count = conditional.shape[0]
    conditional_count = int(np.count_nonzero(conditional))
    stats.branches += count
    stats.conditional_branches += conditional_count
    stats.direction_predictions += conditional_count
    stats.direction_correct += int(np.count_nonzero(conditional & dir_ok))
    stats.target_predictions += int(np.count_nonzero(taken))
    stats.target_correct += int(np.count_nonzero(taken & target_ok))
    stats.effective_correct += int(np.count_nonzero(effective))
    stats.mispredictions += count - int(np.count_nonzero(effective))
    stats.btb_evictions += int(np.count_nonzero(engine.btb_evict[measured]))
    stats.btb_hits += int(np.count_nonzero(engine.btb_hit[measured]))
    stats.rsb_underflows += int(np.count_nonzero(engine.rsb_under[measured]))


# ------------------------------------------------------------------- kernels

class _KernelBase:
    """Shared replay scaffolding for the per-model vector kernels.

    A kernel adopts the trace, walks its OS events once in Python
    (:meth:`_run`) and replays every branch in as few spans as the model's
    event semantics allow.
    """

    __slots__ = ("engine", "model")

    def __init__(self, engine: _CompositeEngine, model):
        self.engine = engine
        self.model = model

    def run_trace(self, trace: Trace, warmup: int, stats: PredictorStats) -> None:
        """Replay ``trace`` and record every branch past the first
        ``warmup``, as the reference loop does (a negative warm-up records
        them all)."""
        self._replay(trace)
        _accumulate(self.engine, stats, slice(max(warmup, 0), None))

    def run_smt(self, merged: ColumnarTrace, thread_offset: int, warmup: int,
                per_thread_stats) -> None:
        """Replay a co-run; the warm-up counts each thread's own branches."""
        self._replay(merged)
        engine = self.engine
        thread_one = engine.arrays.context_ids >= thread_offset
        for stats, mask in zip(per_thread_stats, (~thread_one, thread_one)):
            _accumulate(engine, stats, np.flatnonzero(mask)[max(warmup, 0):])

    def _replay(self, trace: Trace | ColumnarTrace) -> None:
        columns = trace.columns()
        engine = self.engine
        engine.begin(columns.arrays())
        self._run(columns.segments)
        engine.finish()

    def _run(self, segments) -> None:
        """Replay the adopted trace's branches and apply its OS events
        (``segments``, as in :class:`~repro.trace.branch.TraceColumns`)."""
        self._run_spans(0, self.engine.n)

    def _run_spans(self, lo: int, hi: int) -> None:
        engine = self.engine
        position = lo
        while position < hi:
            # run_span may stop early (stepper span cap); resume until done.
            position, _ = engine.run_span(position, hi)


class _PlainKernel(_KernelBase):
    """Unprotected :class:`~repro.bpu.composite.CompositeBPU`: every OS-event
    hook is a no-op."""

    __slots__ = ()


class _ConservativeKernel(_KernelBase):
    """Conservative model: the partition slot is per-branch data (the maps
    receive the context column), so events only influence the mapping's final
    ``current_context`` value, set after replay."""

    __slots__ = ()

    def _run(self, segments) -> None:
        super()._run(segments)
        mapping = self.model._mapping
        context_ids = self.engine.arrays.context_ids
        for start, stop, event in reversed(segments):
            if event is not None and event.kind is EventKind.CONTEXT_SWITCH:
                mapping.current_context = event.context_id
                return
            if stop > start:
                mapping.current_context = int(context_ids[stop - 1])
                return


class _FlushingKernel(_KernelBase):
    """µcode-style protection: the flush-on-event hooks become flush points.

    One walk over the events applies the hooks' rules — a context switch
    flushes when it leaves a known context, a kernel entry or interrupt
    flushes always, each when its policy is on — to ``flush_count`` and
    ``_current_context``.  An SKL or Perceptron composite then replays the
    whole trace in one span whose flushes are in-span epochs
    (:meth:`_CompositeEngine.run_span`); the guarded TAGE stepper cannot see
    a reset inside a span, nor can the per-branch loop of a short replay, so
    their spans end at each flush, and the composite is flushed in between,
    as the reference hooks flush it.
    """

    __slots__ = ()

    def _run(self, segments) -> None:
        model = self.model
        engine = self.engine
        flushes = []
        current = model._current_context
        for _, stop, event in segments:
            if event is None:
                continue
            kind = event.kind
            if kind is EventKind.CONTEXT_SWITCH:
                if (current is not None and event.context_id != current
                        and model.flush_on_context_switch):
                    flushes.append(stop)
                current = event.context_id
            elif ((kind is EventKind.MODE_SWITCH_ENTER_KERNEL
                   or kind is EventKind.INTERRUPT)
                  and model.flush_on_mode_switch):
                flushes.append(stop)
        model.flush_count += len(flushes)
        model._current_context = current
        # Back-to-back flushes leave the same state as one.
        points = sorted(set(flushes))
        n = engine.n
        if n and not engine.stepper.guarded and not engine.per_branch:
            engine.run_span(0, n, flushes=points)
            return
        position = 0
        for point in points:
            self._run_spans(position, point)
            engine.flush()
            position = point
        self._run_spans(position, n)


class _STBPUKernel(_KernelBase):
    """STBPU: the secret token is per-branch data, not a span boundary.

    Each branch's effective context (``KERNEL_CONTEXT_ID`` in kernel mode) is
    numbered into a dense slot, and the maps and the codec gather ψ and ϕ per
    branch from slot → token tables, so one span crosses context switches —
    OS events and SMT co-runs included.  The hooks touch only the token
    machinery, so events are bookkeeping: each event loads a token and sets
    the current context (``KERNEL_CONTEXT_ID`` for a kernel entry or an
    interrupt, the event's context otherwise), and a branch loads one when
    its effective context differs from the previous event's or branch's.
    Spans end only where a context with no token is installed for the first
    time, by an event or a branch (its token is drawn there: the generator
    serves first draws and re-randomizations alike, so drawing ahead would
    reorder them), at monitor-fired re-randomizations and at the stepper cap.
    """

    __slots__ = ("_slot_contexts", "_loaded", "_psi", "_phi")

    def _run(self, segments) -> None:
        from repro.core.stbpu import KERNEL_CONTEXT_ID

        model = self.model
        engine = self.engine
        arrays = engine.arrays
        n = engine.n
        effective = np.where(arrays.kernel_modes, np.int64(KERNEL_CONTEXT_ID),
                             arrays.context_ids)
        contexts, first, slots = np.unique(effective, return_index=True,
                                           return_inverse=True)
        slot_contexts = contexts.tolist()
        tokens = model._context_tokens

        # The context each branch finds current: the previous branch's, or
        # that of the last event before it.
        previous = np.empty(n, dtype=np.int64)
        previous[1:] = effective[:-1]
        current = model._current_context
        previous[:1] = current
        # Context → (position, rank) of its first install when it has no
        # token yet; an event ranks before the branch at its position.
        installs = {}
        for rank, (_, stop, event) in enumerate(segments):
            if event is None:
                continue
            kind = event.kind
            if (kind is EventKind.MODE_SWITCH_ENTER_KERNEL
                    or kind is EventKind.INTERRUPT):
                current = KERNEL_CONTEXT_ID
            else:
                current = event.context_id
            if stop < n:
                previous[stop] = current
            if current not in tokens:
                installs.setdefault(current, (stop, rank))
        for context, branch in zip(slot_contexts, first.tolist()):
            if context not in tokens:
                installs[context] = min(installs.get(context, (n, 0)),
                                        (branch, len(segments)))
        if segments[-1][0] < n:
            current = int(effective[-1])

        self._slot_contexts = slot_contexts
        self._loaded = [None] * len(slot_contexts)
        self._psi = np.zeros(len(slot_contexts), dtype=np.uint64)
        self._phi = np.zeros(len(slot_contexts), dtype=np.uint64)
        engine.map_contexts = slots
        for maps in (engine.pht_maps, engine.btb_maps):
            if getattr(maps, "token_dependent", False):
                maps.psi_table = self._psi
        if engine.codec.token_dependent:
            engine.phi_table = self._phi
        self._refresh()

        position = 0
        for (point, _), context in sorted(
                (point, context) for context, point in installs.items()):
            self._run_monitored(position, point, effective)
            position = point
            model._token_for_context(context)
            self._refresh()
        self._run_monitored(position, n, effective)

        # Leave the token machinery as the hooks leave it: the loads counted,
        # the context of the last event or branch current, and the register,
        # mapping and codec on its token.
        stats = model.stats
        stats.token_loads += (len(segments) - 1
                              + int(np.count_nonzero(effective != previous)))
        stats.contexts_seen.update(slot_contexts)
        token = tokens[current]
        model._current_context = current
        model.register.load(token)
        model.mapping.set_token(token)
        model.codec.set_token(token)

    def _run_monitored(self, lo: int, hi: int, effective) -> None:
        """Replay ``[lo, hi)``, re-randomizing where the monitor fires.

        A fire discards the prepared tail of its span, so spans adapt: after
        a fire the next span covers ``max(_MONITOR_CAP_FLOOR, 2 ×
        executed)`` branches, and a span that runs to its cap doubles it.
        """
        model = self.model
        position = lo
        cap = None
        while position < hi:
            stop = hi if cap is None else min(hi, position + cap)
            reached, fired = self.engine.run_span(position, stop, model.monitor)
            if fired:
                cap = max(_MONITOR_CAP_FLOOR, 2 * (reached - position))
                model._current_context = int(effective[reached - 1])
                model.rerandomize_current()
                self._refresh()
            elif cap is not None and reached == stop:
                cap *= 2
            position = reached

    def _refresh(self) -> None:
        """Re-read the slot tables from the model's per-context tokens."""
        tokens = self.model._context_tokens
        loaded = self._loaded
        for slot, context in enumerate(self._slot_contexts):
            token = tokens.get(context)
            if token is not None and token is not loaded[slot]:
                loaded[slot] = token
                self._psi[slot] = token.psi
                self._phi[slot] = token.phi


# ------------------------------------------------------------ kernel builders

def _make_engine(composite) -> _CompositeEngine | None:
    """Build the vector engine for a composite, or ``None`` when any piece
    (direction component, mapping, codec, structure subclass) has no exact
    array form."""
    from repro.bpu.btb import BranchTargetBuffer
    from repro.bpu.composite import CompositeBPU
    from repro.bpu.perceptron import PerceptronPredictor
    from repro.bpu.pht import SKLConditionalPredictor
    from repro.bpu.rsb import ReturnStackBuffer
    from repro.bpu.tage import TAGEPredictor

    if type(composite) is not CompositeBPU:
        return None
    direction = composite.direction
    if type(direction) is SKLConditionalPredictor:
        if composite.sizes.pht_counter_bits != 2:
            return None
        stepper_type, map_methods = _SKLStepper, ()
    elif type(direction) is TAGEPredictor:
        stepper_type, map_methods = _TAGEStepper, ("tage_indices", "tage_tags")
    elif type(direction) is PerceptronPredictor:
        stepper_type, map_methods = _PerceptronStepper, ("perceptron_rows",)
    else:
        return None
    if type(composite.btb) is not BranchTargetBuffer:
        return None
    if type(composite.rsb) is not ReturnStackBuffer:
        return None
    codec = composite.btb.codec
    if codec is not composite.rsb.codec:
        return None
    if codec.vector_encode(np.zeros(0, dtype=np.uint64)) is None:
        return None
    pht_maps = direction.mapping.vector_maps()
    btb_maps = composite.btb.mapping.vector_maps()
    if pht_maps is None or btb_maps is None:
        return None
    if not all(hasattr(pht_maps, name) for name in map_methods):
        return None
    return _CompositeEngine(composite, pht_maps, btb_maps, codec,
                            stepper_type(direction, pht_maps))


def composite_kernel(model):
    """Vector kernel for an unprotected :class:`CompositeBPU` (or ``None``)."""
    engine = _make_engine(model)
    return _PlainKernel(engine, model) if engine is not None else None


def flushing_kernel(model):
    """Vector kernel for :class:`~repro.bpu.protections.FlushingProtectedBPU`."""
    from repro.bpu.protections import FlushingProtectedBPU

    if type(model) is not FlushingProtectedBPU:
        return None
    engine = _make_engine(model.inner)
    return _FlushingKernel(engine, model) if engine is not None else None


def conservative_kernel(model):
    """Vector kernel for :class:`~repro.bpu.protections.ConservativeBPU`."""
    from repro.bpu.protections import ConservativeBPU

    if type(model) is not ConservativeBPU:
        return None
    engine = _make_engine(model.inner)
    return _ConservativeKernel(engine, model) if engine is not None else None


def stbpu_kernel(model):
    """Vector kernel for :class:`~repro.core.stbpu.STBPU`."""
    from repro.core.monitoring import RerandomizationMonitor
    from repro.core.stbpu import STBPU

    if type(model) is not STBPU:
        return None
    if type(model.monitor) is not RerandomizationMonitor:
        return None
    engine = _make_engine(model.inner)
    return _STBPUKernel(engine, model) if engine is not None else None


# -------------------------------------------------------------- entry points

def kernel_for(model):
    """The model's vector kernel, or ``None`` when it has none."""
    return model.vector_kernel()


def kernel_status(model) -> str:
    """Backend coverage class for ``model``.

    ``"kernel"``
        Closed-form array kernels end to end: the direction stepper is not
        guarded (SKL and Perceptron composites).
    ``"guarded"``
        Array kernels plus a guarded-specialization direction stepper
        (TAGE): span inputs are speculative and repaired when a guard
        fails.
    ``"fallback"``
        No vector kernel; replay runs the reference loop.

    The class is the kernel's ``engine.stepper.guarded`` flag.  A kernel
    accepts every trace — ``trace``, ``cpu`` and ``smt`` jobs — so the class
    says which path replays all of the model's jobs.
    """
    kernel = model.vector_kernel()
    if kernel is None:
        return "fallback"
    return "guarded" if kernel.engine.stepper.guarded else "kernel"


def _count_decline(model, kind: str) -> None:
    obs_metrics.inc("repro_replay_declines_total",
                    model=getattr(model, "name", type(model).__name__),
                    kind=kind)


def _count_replay(model, kind: str, engine: _CompositeEngine) -> None:
    """Count an accepted replay's spans and branches, labelled like a
    decline."""
    labels = {"model": getattr(model, "name", type(model).__name__),
              "kind": kind}
    obs_metrics.inc("repro_replay_spans_total", engine.spans, **labels)
    obs_metrics.inc("repro_replay_branches_total", engine.n, **labels)
    obs_metrics.inc("repro_replay_prepared_branches_total", engine.prepared,
                    **labels)
    obs_metrics.inc("repro_replay_loop_branches_total", engine.loop_branches,
                    **labels)


def try_replay_trace(model, trace: Trace, warmup: int,
                     stats: PredictorStats) -> bool:
    """Vector-replay ``trace`` through ``model`` into ``stats`` if possible.

    ``False`` means the model has no kernel; it is counted as a
    ``kind="trace"`` decline and the caller then runs the reference loop.
    An accepted replay adds its spans and branches to
    ``repro_replay_spans_total`` and ``repro_replay_branches_total``, the
    branches its spans prepared to ``repro_replay_prepared_branches_total``
    and those the per-branch loop replayed to
    ``repro_replay_loop_branches_total``.
    """
    kernel = kernel_for(model)
    if kernel is None:
        _count_decline(model, "trace")
        return False
    kernel.run_trace(trace, warmup, stats)
    _count_replay(model, "trace", kernel.engine)
    return True


def try_replay_smt(model, merged: ColumnarTrace, thread_offset: int,
                   warmup: int, per_thread_stats) -> bool:
    """Vector-replay an SMT co-run, like :func:`try_replay_trace`.

    ``merged`` is the co-run as columns
    (:func:`~repro.trace.branch.merge_columns_round_robin`), thread B's
    contexts offset by ``thread_offset``; a model without a kernel is
    counted as a ``kind="smt"`` decline, and an accepted co-run's spans and
    branches are counted under ``kind="smt"``.
    """
    kernel = kernel_for(model)
    if kernel is None:
        _count_decline(model, "smt")
        return False
    kernel.run_smt(merged, thread_offset, warmup, per_thread_stats)
    _count_replay(model, "smt", kernel.engine)
    return True
