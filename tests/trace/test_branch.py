"""Tests for the branch-record data model."""

import pytest

from repro.trace.branch import (
    STORED_TARGET_MASK,
    VIRTUAL_ADDRESS_MASK,
    BranchRecord,
    BranchType,
    EventKind,
    PrivilegeMode,
    Trace,
    TraceEvent,
    merge_columns_round_robin,
    merge_round_robin,
)


def _branch(ip=0x1000, target=0x2000, taken=True, btype=BranchType.DIRECT_JUMP, ctx=0):
    return BranchRecord(ip=ip, target=target, taken=taken, branch_type=btype, context_id=ctx)


class TestBranchType:
    def test_call_classification(self):
        assert BranchType.DIRECT_CALL.is_call
        assert BranchType.INDIRECT_CALL.is_call
        assert not BranchType.RETURN.is_call

    def test_indirect_classification(self):
        assert BranchType.INDIRECT_JUMP.is_indirect
        assert BranchType.RETURN.is_indirect
        assert not BranchType.CONDITIONAL.is_indirect

    def test_direct_and_conditional(self):
        assert BranchType.CONDITIONAL.is_direct
        assert BranchType.CONDITIONAL.is_conditional
        assert not BranchType.INDIRECT_CALL.is_direct


class TestBranchRecord:
    def test_addresses_masked_to_48_bits(self):
        record = _branch(ip=(1 << 60) | 0x1234, target=(1 << 55) | 0x5678)
        assert record.ip == 0x1234
        assert record.target == 0x5678
        assert record.ip <= VIRTUAL_ADDRESS_MASK

    def test_fall_through_and_stored_target(self):
        record = _branch(ip=0xABC0, target=0x1_2345_6789)
        assert record.fall_through == 0xABC4
        assert record.stored_target == 0x1_2345_6789 & STORED_TARGET_MASK

    def test_with_context_changes_only_context(self):
        record = _branch(ctx=1)
        moved = record.with_context(7, PrivilegeMode.KERNEL)
        assert moved.context_id == 7
        assert moved.mode is PrivilegeMode.KERNEL
        assert moved.ip == record.ip and moved.target == record.target


class TestTrace:
    def test_counts_and_iteration(self):
        trace = Trace(name="t")
        trace.append(_branch())
        trace.append(TraceEvent(EventKind.CONTEXT_SWITCH, context_id=2))
        trace.append(_branch(btype=BranchType.CONDITIONAL, taken=False))
        assert len(trace) == 3
        assert trace.branch_count == 2
        assert trace.event_count == 1
        assert trace.context_ids == {0, 2}

    def test_fraction_helpers(self):
        trace = Trace()
        trace.append(_branch(btype=BranchType.CONDITIONAL, taken=True))
        trace.append(_branch(btype=BranchType.CONDITIONAL, taken=False))
        trace.append(_branch(btype=BranchType.DIRECT_JUMP, taken=True))
        assert trace.conditional_fraction() == pytest.approx(2 / 3)
        assert trace.taken_fraction() == pytest.approx(2 / 3)

    def test_empty_trace_fractions_are_zero(self):
        trace = Trace()
        assert trace.conditional_fraction() == 0.0
        assert trace.taken_fraction() == 0.0


class TestMergeRoundRobin:
    def test_preserves_all_items(self):
        a = Trace(name="a")
        b = Trace(name="b")
        for i in range(10):
            a.append(_branch(ip=0x1000 + i * 4, ctx=0))
        for i in range(25):
            b.append(_branch(ip=0x9000 + i * 4, ctx=1))
        merged = merge_round_robin([a, b], quantum=4)
        assert merged.branch_count == 35
        assert merged.context_ids == {0, 1}

    def test_interleaving_respects_quantum(self):
        a = Trace()
        b = Trace()
        for i in range(8):
            a.append(_branch(ctx=0))
            b.append(_branch(ctx=1))
        merged = merge_round_robin([a, b], quantum=2)
        contexts = [item.context_id for item in merged.branches()]
        assert contexts[:4] == [0, 0, 1, 1]

    def test_rejects_non_positive_quantum(self):
        with pytest.raises(ValueError):
            merge_round_robin([Trace()], quantum=0)
        for quantum in (0, -3):
            with pytest.raises(ValueError, match="quantum must be positive"):
                merge_columns_round_robin(Trace(), Trace(), quantum=quantum)
