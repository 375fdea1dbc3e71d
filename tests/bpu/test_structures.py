"""Tests for the individual BPU structures: BTB, PHT, RSB, history registers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bpu.btb import VALID, BranchTargetBuffer
from repro.bpu.common import StructureSizes, fold_bits
from repro.bpu.history import BranchHistoryBuffer, FoldedHistory, GlobalHistoryRegister, HistoryState
from repro.bpu.mapping import (
    BaselineMappingProvider,
    FullAddressMappingProvider,
    IdentityTargetCodec,
    fold_bits_array,
)
from repro.bpu.pht import PatternHistoryTable, SaturatingCounter, SKLConditionalPredictor
from repro.bpu.rsb import ReturnStackBuffer


class TestFoldBits:
    def test_folds_within_range(self):
        assert fold_bits(0xFFFF_FFFF, 32, 8) < 256

    def test_identity_when_already_narrow(self):
        assert fold_bits(0x3A, 8, 8) == 0x3A

    def test_rejects_non_positive_output(self):
        with pytest.raises(ValueError):
            fold_bits(1, 8, 0)


class TestStructureSizes:
    def test_skylake_defaults(self):
        sizes = StructureSizes()
        assert sizes.btb_entries == 4096
        assert sizes.btb_index_bits == 9
        assert sizes.pht_index_bits == 14
        assert sizes.rsb_entries == 16


class _PerWayBTB:
    """The BTB algorithm over per-way records ``[valid, tag, offset, stored,
    stamp]``: the victim is the first way with the lowest ``(valid, stamp)``,
    a hit refreshes the stamp, and a flush clears only the valid bits."""

    def __init__(self, btb):
        self.mapping, self.codec = btb.mapping, btb.codec
        self.sets = [[[False, 0, 0, 0, 0] for _ in range(btb.way_count)]
                     for _ in range(btb.set_count)]
        self.clock = self.evictions = 0

    def _find(self, ip, bhb):
        key = (self.mapping.btb_mode1(ip) if bhb is None
               else self.mapping.btb_mode2(ip, bhb))
        ways = self.sets[key.index % len(self.sets)]
        match = [way for way in ways
                 if way[0] and way[1:3] == [key.tag, key.offset]]
        return ways, match[0] if match else None, key

    def lookup(self, ip, bhb):
        self.clock += 1
        _, way, _ = self._find(ip, bhb)
        if way is None:
            return False, None
        way[4] = self.clock
        return True, self.codec.extend(way[3], ip)

    def update(self, ip, target, bhb):
        self.clock += 1
        ways, way, key = self._find(ip, bhb)
        if way is not None:
            way[3:] = [self.codec.encode(target), self.clock]
            return False, True
        victim = min(ways, key=lambda way: (way[0], way[4]))
        evicted = victim[0]
        self.evictions += evicted
        victim[:] = [True, key.tag, key.offset, self.codec.encode(target),
                     self.clock]
        return evicted, False

    def contains(self, ip, bhb):
        return self._find(ip, bhb)[1] is not None

    def flush(self):
        ways = [way for ways in self.sets for way in ways]
        dropped = sum(way[0] for way in ways)
        for way in ways:
            way[0] = False
        return dropped


_BTB_OPS = st.lists(st.tuples(
    st.sampled_from(["lookup", "update", "contains", "flush"]),
    st.integers(0, 23).map(lambda k: 0x40_0000 + 0x24 * k),
    st.sampled_from([0x50_0000, 0x7FFF_0041_2345, 0x1234]),
    st.sampled_from([None, None, 0, 0x5A5, 0x3_FFFF_FFFF_FFFF])), max_size=80)


class TestBTB:
    @settings(max_examples=300, deadline=None)
    @given(ops=_BTB_OPS, sets=st.integers(2, 4), ways=st.integers(1, 3),
           scale=st.sampled_from([0.5, 1.0]))
    def test_matches_per_way_model(self, ops, sets, ways, scale):
        btb = BranchTargetBuffer(StructureSizes(btb_sets=sets, btb_ways=ways),
                                 capacity_scale=scale)
        model = _PerWayBTB(btb)
        offset_bits = btb.sizes.btb_offset_bits
        for op, ip, target, bhb in ops:
            if op == "lookup":
                result = btb.lookup(ip, bhb)
                assert (result.hit, result.predicted_target) == model.lookup(ip, bhb)
            elif op == "update":
                result = btb.update(ip, target, bhb)
                assert (result.evicted_valid_entry, result.replaced_same_branch) \
                    == model.update(ip, target, bhb)
            elif op == "contains":
                assert btb.contains(ip, bhb) == model.contains(ip, bhb)
            else:
                assert btb.flush() == model.flush()
            assert btb.eviction_count == model.evictions
            assert btb._access_clock == model.clock
            assert [(rank >= VALID, key >> offset_bits,
                     key & ((1 << offset_bits) - 1), stored, rank % VALID)
                    for key, rank, stored in zip(btb._keys, btb._ranks,
                                                 btb._targets)] \
                == [tuple(way) for records in model.sets for way in records]
            # The index maps exactly the valid slots.
            assert btb._slots == {
                key * btb.entry_count + slot - slot % ways: slot
                for slot, (key, rank) in enumerate(zip(btb._keys, btb._ranks))
                if rank >= VALID}
            assert btb.valid_entry_count() == len(btb._slots)

    def test_miss_then_hit_after_update(self):
        btb = BranchTargetBuffer()
        assert not btb.lookup(0x40_0000).hit
        btb.update(0x40_0000, 0x41_0000)
        result = btb.lookup(0x40_0000)
        assert result.hit
        assert result.predicted_target == 0x41_0000

    def test_target_extension_uses_branch_upper_bits(self):
        btb = BranchTargetBuffer()
        ip = 0x7FFF_0040_0000
        target = 0x7FFF_0041_2345
        btb.update(ip, target)
        assert btb.lookup(ip).predicted_target == target

    def test_lru_eviction_within_a_set(self):
        sizes = StructureSizes()
        btb = BranchTargetBuffer(sizes)
        base = 0x40_0000
        stride = sizes.btb_sets << sizes.btb_offset_bits  # same index, different tag
        installed = [base + way * stride for way in range(sizes.btb_ways + 1)]
        for address in installed:
            btb.update(address, address + 0x100)
        assert btb.eviction_count >= 1
        # The first-installed (least recently used) entry was the victim.
        assert not btb.contains(installed[0])
        assert btb.contains(installed[-1])

    def test_flush_drops_all_entries(self):
        btb = BranchTargetBuffer()
        for index in range(50):
            btb.update(0x40_0000 + index * 64, 0x50_0000)
        dropped = btb.flush()
        assert dropped == 50
        assert btb.valid_entry_count() == 0

    def test_mode2_separates_contexts_by_history(self):
        btb = BranchTargetBuffer()
        btb.update(0x40_0000, 0x50_0000, bhb=0x123)
        assert btb.lookup(0x40_0000, bhb=0x123).hit
        assert not btb.lookup(0x40_0000, bhb=0x456).hit

    def test_capacity_scale_halves_sets(self):
        full = BranchTargetBuffer()
        half = BranchTargetBuffer(capacity_scale=0.5)
        assert half.set_count == full.set_count // 2
        with pytest.raises(ValueError):
            BranchTargetBuffer(capacity_scale=0.0)

    def test_update_same_branch_refreshes_without_eviction(self):
        btb = BranchTargetBuffer()
        btb.update(0x40_0000, 0x50_0000)
        result = btb.update(0x40_0000, 0x60_0000)
        assert result.replaced_same_branch
        assert not result.evicted_valid_entry
        assert btb.lookup(0x40_0000).predicted_target == 0x60_0000


class TestSaturatingCounterAndPHT:
    def test_counter_saturates_at_bounds(self):
        counter = SaturatingCounter(bits=2, value=0)
        for _ in range(10):
            counter.update(True)
        assert counter.value == 3 and counter.taken
        for _ in range(10):
            counter.update(False)
        assert counter.value == 0 and not counter.taken

    def test_pht_learns_direction(self):
        pht = PatternHistoryTable(entries=16)
        for _ in range(4):
            pht.update(5, True)
        assert pht.predict(5)
        assert not pht.predict(6) or pht.counter_value(6) <= 1

    def test_pht_rejects_bad_size(self):
        with pytest.raises(ValueError):
            PatternHistoryTable(entries=0)

    def test_pht_rejects_counters_a_byte_cannot_hold(self):
        for bits in (0, 9):
            with pytest.raises(ValueError, match="counter_bits"):
                PatternHistoryTable(entries=4, counter_bits=bits)
        for initial in (-1, 4):
            with pytest.raises(ValueError, match="initial"):
                PatternHistoryTable(entries=4, counter_bits=2, initial=initial)
        assert PatternHistoryTable(entries=4, counter_bits=8, initial=255) \
            .counter_value(3) == 255

    def test_skl_predictor_learns_biased_branch(self):
        predictor = SKLConditionalPredictor()
        history = HistoryState()
        correct = 0
        for step in range(400):
            taken = True
            prediction = predictor.predict(0x1234, history)
            if prediction.taken == taken:
                correct += 1
            predictor.update(prediction, taken)
            history.record_conditional(taken)
        assert correct / 400 > 0.95

    def test_skl_predictor_learns_alternation(self):
        predictor = SKLConditionalPredictor()
        history = HistoryState()
        correct = 0
        for step in range(600):
            taken = step % 2 == 0
            prediction = predictor.predict(0x5678, history)
            if prediction.taken == taken:
                correct += 1
            predictor.update(prediction, taken)
            history.record_conditional(taken)
        assert correct / 600 > 0.9


class TestRSB:
    def test_lifo_order(self):
        rsb = ReturnStackBuffer(entries=4)
        rsb.push(0x100)
        rsb.push(0x200)
        assert rsb.pop(0x500).predicted_target == 0x200
        assert rsb.pop(0x500).predicted_target == 0x100

    def test_underflow_reported(self):
        rsb = ReturnStackBuffer(entries=4)
        result = rsb.pop(0x500)
        assert result.underflow
        assert result.predicted_target is None
        assert rsb.underflow_count == 1

    def test_overflow_drops_oldest(self):
        rsb = ReturnStackBuffer(entries=2)
        rsb.push(0x1)
        rsb.push(0x2)
        rsb.push(0x3)
        assert rsb.overflow_count == 1
        assert rsb.pop(0).predicted_target == 0x3
        assert rsb.pop(0).predicted_target == 0x2
        assert rsb.pop(0).underflow

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            ReturnStackBuffer(entries=0)


class TestHistoryRegisters:
    def test_ghr_shifts_and_masks(self):
        ghr = GlobalHistoryRegister(bits=4)
        for taken in (True, False, True, True):
            ghr.push(taken)
        assert ghr.snapshot() == 0b1011
        ghr.push(True)
        assert ghr.snapshot() == 0b0111

    def test_bhb_changes_with_path(self):
        a = BranchHistoryBuffer()
        b = BranchHistoryBuffer()
        a.push(0x1000, 0x2000)
        b.push(0x1000, 0x2004)
        assert a.snapshot() != b.snapshot()

    def test_folded_history_bounded(self):
        fold = FoldedHistory(history_length=64, folded_bits=10)
        outcomes = [bool(i % 3) for i in range(200)]
        assert fold.fold(outcomes) < (1 << 10)

    def test_history_state_clear(self):
        state = HistoryState()
        state.record_conditional(True)
        state.record_taken_branch(0x10, 0x20)
        state.clear()
        assert state.ghr.snapshot() == 0
        assert state.bhb.snapshot() == 0
        assert not state.outcomes


class TestMappingProviders:
    def test_baseline_truncation_allows_aliasing(self):
        mapping = BaselineMappingProvider()
        key_low = mapping.btb_mode1(0x0000_1234_5678)
        key_aliased = mapping.btb_mode1(0x0001_1234_5678)  # differs only above bit 31
        assert key_low == key_aliased

    def test_full_address_provider_distinguishes_aliases(self):
        mapping = FullAddressMappingProvider()
        assert mapping.btb_mode1(0x0000_1234_5678) != mapping.btb_mode1(0x0001_1234_5678)

    def test_pht_indexes_within_range(self):
        mapping = BaselineMappingProvider()
        sizes = mapping.sizes
        for ip in (0x400000, 0x7FFF_FFFF_FFFF, 0x12345678):
            assert 0 <= mapping.pht_index_1level(ip) < sizes.pht_entries
            assert 0 <= mapping.pht_index_2level(ip, 0x3FFFF) < sizes.pht_entries

    def test_one_entry_tables_index_row_zero(self):
        # A one-entry table's index has no bits, so every branch indexes
        # row 0.  The scalar maps are checked first, so a regression fails
        # here instead of hanging in an array fold to 0 bits.
        from repro.core.remapping import STMappingProvider
        from repro.core.secret_token import SecretToken

        sizes = StructureSizes(btb_sets=1, pht_entries=1)
        ips = [0x40_1234, 0x7FFF_0040_0ABC]
        for mapping in (BaselineMappingProvider(sizes),
                        STMappingProvider(SecretToken(0xA5A5_1234_DEAD_BEEF),
                                          sizes)):
            for ip in ips:
                assert mapping.btb_mode2(ip, 0x3FF_FFFF_FFFF).index == 0
                assert mapping.pht_index_1level(ip) == 0
                assert mapping.pht_index_2level(ip, 0x3FFFF) == 0
                assert mapping.perceptron_index(ip, 1) == 0
            maps = mapping.vector_maps()
            values = np.array(ips, dtype=np.uint64)
            assert maps.btb2(values, values)[0].tolist() == [0, 0]
            assert maps.pht1(values).tolist() == [0, 0]
            assert maps.pht2(values, values).tolist() == [0, 0]
            assert maps.perceptron_rows(values, 1).tolist() == [0, 0]
        # Like the scalar fold, the array fold refuses a 0-bit output.
        with pytest.raises(ValueError):
            fold_bits_array(np.array(ips, dtype=np.uint64), 8, 0)

    def test_identity_codec_roundtrip_and_extend(self):
        codec = IdentityTargetCodec()
        assert codec.decode(codec.encode(0x1234_5678)) == 0x1234_5678
        extended = codec.extend(0x0041_2345, ip=0x7FFF_0040_0000)
        assert extended == 0x7FFF_0041_2345
