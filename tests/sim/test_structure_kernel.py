"""The BTB/RSB array kernel against the structures called one access at a time.

:func:`repro.sim.vector._replay_structures` replays a span's BTB and RSB
accesses with array kernels: LRU hits from reuse distance, a fixpoint for
the lookups that touch only a present key, evictions from each set's count
of distinct keys, and a rebuild of the committed state.  The property here
drives the same accesses through :meth:`BranchTargetBuffer.lookup` /
``update``, :class:`ReturnStackBuffer` and
:meth:`RerandomizationMonitor.observe` in order, the way
``CompositeBPU.access_with_events`` does, and requires equal flags for the
executed prefix, the same stop, and equal BTB, RSB and monitor state after
it.  It draws BTBs of 1–8 ways, carried state (valid, evicted and flushed
entries), flush epochs, monitor stops at any position, untaken lookups,
indirect fallbacks and untaken unconditional records.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bpu.btb import BranchTargetBuffer
from repro.bpu.common import AccessResult, Prediction, StructureSizes
from repro.bpu.mapping import BaselineMappingProvider, BTBLookupKey
from repro.bpu.rsb import ReturnStackBuffer
from repro.core.monitoring import MonitorConfig, RerandomizationMonitor
from repro.sim import vector
from repro.trace.branch import VIRTUAL_ADDRESS_MASK, BranchRecord, BranchType

#: Keys per set the accesses draw from: few enough that sets overflow.
_TAGS = 5

#: The branch types each structural op replays.
_OPS = {
    vector._OP_LOOKUP1: (BranchType.CONDITIONAL, BranchType.DIRECT_JUMP,
                         BranchType.DIRECT_CALL),
    vector._OP_UPDATE1: (BranchType.CONDITIONAL,),
    vector._OP_INDIRECT: (BranchType.INDIRECT_JUMP, BranchType.INDIRECT_CALL),
    vector._OP_RETURN: (BranchType.RETURN,),
}


class _KeyedMapping(BaselineMappingProvider):
    """Mode-1 key from the ip's low bits, mode-2 key from the history: the
    drawn accesses pick their keys directly."""

    def btb_mode1(self, ip):
        low = ip & 0xFFFF
        return BTBLookupKey(index=low % self.sizes.btb_sets,
                            tag=(low // self.sizes.btb_sets) % _TAGS, offset=0)

    def btb_mode2(self, ip, bhb):
        return BTBLookupKey(index=bhb % self.sizes.btb_sets,
                            tag=(bhb // self.sizes.btb_sets) % _TAGS, offset=1)


@st.composite
def _accesses(draw, sets, max_size):
    """``(op, branch type, ip, bhb, taken, target, dir_ok)`` per access."""
    keys = sets * _TAGS
    accesses = []
    for _ in range(draw(st.integers(0, max_size))):
        op = draw(st.sampled_from(sorted(_OPS)))
        branch_type = draw(st.sampled_from(_OPS[op]))
        ip = draw(st.integers(0, keys - 1)) + (draw(st.integers(0, 1)) << 32)
        bhb = draw(st.integers(0, keys - 1))
        # Unconditional records may be untaken too; UPDATE1 is a
        # conditional predicted not-taken that resolved taken.
        taken = op == vector._OP_UPDATE1 or draw(st.integers(0, 3)) > 0
        if draw(st.booleans()):
            target = (ip + 4) & VIRTUAL_ADDRESS_MASK
        else:
            target = draw(st.integers(0, 3)) * 0x100 + (
                draw(st.integers(0, 1)) << 32)
        conditional = branch_type is BranchType.CONDITIONAL
        dir_ok = (op == vector._OP_LOOKUP1) == taken if conditional else True
        accesses.append((op, branch_type, ip, bhb, taken, target, dir_ok))
    return accesses


def _access(btb, rsb, op, branch_type, ip, bhb, taken, target):
    """One access as ``CompositeBPU.access_with_events`` makes it, with the
    direction already predicted: ``(target_ok, hit, evicted, underflow)``."""
    hit = underflow = evicted = False
    if op == vector._OP_LOOKUP1:
        lookup = btb.lookup(ip)
        hit = lookup.hit
        correct = lookup.predicted_target == target
    elif op == vector._OP_UPDATE1:
        correct = (ip + 4) & VIRTUAL_ADDRESS_MASK == target
    elif op == vector._OP_INDIRECT:
        lookup = btb.lookup(ip, bhb)
        if not lookup.hit:
            lookup = btb.lookup(ip)
        hit = lookup.hit
        correct = lookup.predicted_target == target
    else:
        pop = rsb.pop(ip)
        correct = pop.predicted_target == target
        if pop.underflow:
            underflow = True
            lookup = btb.lookup(ip, bhb)
            hit = lookup.hit
            correct = lookup.predicted_target == target
    if taken:
        mode2 = op in (vector._OP_INDIRECT, vector._OP_RETURN)
        evicted = btb.update(ip, target, bhb if mode2 else None
                             ).evicted_valid_entry
    if branch_type in (BranchType.DIRECT_CALL, BranchType.INDIRECT_CALL):
        rsb.push((ip + 4) & VIRTUAL_ADDRESS_MASK)
    return correct or not taken, hit, evicted, underflow


def _structures(sizes, warmup, flush_at):
    btb = BranchTargetBuffer(sizes, _KeyedMapping(sizes))
    rsb = ReturnStackBuffer(sizes.rsb_entries)
    for position, (op, branch_type, ip, bhb, taken, target, _) in enumerate(
            warmup):
        if position == flush_at:
            btb.flush()
        _access(btb, rsb, op, branch_type, ip, bhb, taken, target)
    return btb, rsb


def _state(btb, rsb, monitor):
    counters = monitor.counters
    return (list(btb._keys), list(btb._ranks), list(btb._targets),
            sorted(btb._slots.items()), btb._access_clock, btb.eviction_count,
            list(rsb._stack), rsb.overflow_count, rsb.underflow_count,
            (counters.mispredictions_remaining, counters.evictions_remaining,
             counters.direction_remaining, monitor.fired_count,
             monitor.observed_mispredictions, monitor.observed_evictions))


def _monitor(config, spent):
    monitor = RerandomizationMonitor(config)
    counters = monitor.counters
    counters.mispredictions_remaining -= spent % config.misprediction_threshold
    counters.evictions_remaining -= spent % config.eviction_threshold
    counters.direction_remaining -= spent % (
        config.direction_misprediction_threshold
        or config.misprediction_threshold)
    return monitor


def _kernel_inputs(btb, accesses):
    """The per-participant columns ``run_span`` hands the kernel."""
    codec = btb.codec

    def entry(key):
        return (btb._packed(key) * btb.entry_count + key.index * btb.way_count)

    columns = {name: [] for name in (
        "ops", "takens", "entry1", "entry2", "encoded", "high_ok", "fall_ok",
        "calls", "pushes", "dir_ok")}
    for op, branch_type, ip, bhb, taken, target, dir_ok in accesses:
        columns["ops"].append(op)
        columns["takens"].append(taken)
        columns["entry1"].append(entry(btb._key(ip, None)))
        columns["entry2"].append(entry(btb._key(ip, bhb)))
        columns["encoded"].append(codec.encode(target))
        columns["high_ok"].append(ip >> 32 == target >> 32)
        columns["fall_ok"].append((ip + 4) & VIRTUAL_ADDRESS_MASK == target)
        columns["calls"].append(branch_type in (BranchType.DIRECT_CALL,
                                                BranchType.INDIRECT_CALL))
        columns["pushes"].append(codec.encode((ip + 4) & VIRTUAL_ADDRESS_MASK))
        columns["dir_ok"].append(dir_ok)
    dtypes = {"ops": np.uint8, "entry1": np.int64, "entry2": np.int64,
              "encoded": np.int64, "pushes": np.int64}
    return {name: np.array(values, dtype=dtypes.get(name, bool))
            for name, values in columns.items()}


@st.composite
def _spans(draw):
    sets = draw(st.sampled_from([1, 2, 4]))
    sizes = StructureSizes(btb_sets=sets, btb_ways=draw(st.integers(1, 8)),
                           rsb_entries=draw(st.integers(1, 4)))
    warmup = draw(_accesses(sets, 40))
    flush_at = draw(st.integers(-1, 40))
    span = draw(_accesses(sets, 120))
    clears = sorted(set(draw(st.lists(st.integers(0, len(span)), max_size=4))))
    monitored = draw(st.booleans())
    config = MonitorConfig(draw(st.integers(1, 30)), draw(st.integers(1, 12)),
                           draw(st.one_of(st.none(), st.integers(1, 30))))
    return sizes, warmup, flush_at, span, clears if not monitored else [], (
        config if monitored else None), draw(st.integers(0, 40))


@settings(max_examples=300, deadline=None)
@given(case=_spans())
def test_kernel_matches_structures_called_in_order(case):
    sizes, warmup, flush_at, span, clears, config, spent = case
    btb, rsb = _structures(sizes, warmup, flush_at)
    monitor = _monitor(config or MonitorConfig(1, 1), spent)
    expected, stopped = [], -1
    for position, access in enumerate(span):
        if position in clears:
            btb.flush()
            rsb.flush()
        op, branch_type, ip, bhb, taken, target, dir_ok = access
        flags = _access(btb, rsb, op, branch_type, ip, bhb, taken, target)
        expected.append(flags)
        if config is not None:
            target_ok, hit, evicted, underflow = flags
            branch = BranchRecord(ip=ip, target=target, taken=taken,
                                  branch_type=branch_type)
            result = AccessResult(
                Prediction(taken, None, ""), dir_ok, target_ok,
                dir_ok and target_ok, hit, evicted, underflow,
                not (dir_ok and target_ok))
            if monitor.observe(branch, result):
                stopped = position
                break
    if len(span) in clears:
        btb.flush()
        rsb.flush()
    want = _state(btb, rsb, monitor)

    btb, rsb = _structures(sizes, warmup, flush_at)
    monitor = _monitor(config or MonitorConfig(1, 1), spent)
    inputs = _kernel_inputs(btb, span)
    target_ok, hits, evicts, unders, stopped_at = vector._replay_structures(
        btb, rsb, monitor=monitor if config is not None else None,
        clears=np.array(clears, dtype=np.int64), **inputs)
    done = len(expected)
    got = list(zip(target_ok[:done].tolist(), hits[:done].tolist(),
                   evicts[:done].tolist(), unders[:done].tolist()))
    assert stopped_at == stopped
    assert got == expected
    assert _state(btb, rsb, monitor) == want


def test_kernel_replays_an_empty_span_and_a_trailing_flush():
    sizes = StructureSizes(btb_sets=2, btb_ways=2)
    btb, rsb = _structures(sizes, [
        (vector._OP_LOOKUP1, BranchType.DIRECT_CALL, 1, 0, True, 0x100, True),
    ], -1)
    inputs = _kernel_inputs(btb, [])
    flags = vector._replay_structures(btb, rsb, monitor=None,
                                      clears=np.array([0]), **inputs)
    assert flags[-1] == -1
    assert btb.valid_entry_count() == 0 and list(rsb._stack) == []
    assert max(btb._ranks) < vector.VALID
