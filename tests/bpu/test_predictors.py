"""Tests for the TAGE, Perceptron and composite predictor models."""

import pytest

from repro.bpu.common import PredictorStats
from repro.bpu.composite import make_skl_composite
from repro.bpu.history import HistoryState
from repro.bpu.perceptron import PerceptronConfig, PerceptronPredictor
from repro.bpu.protections import (
    make_conservative,
    make_ucode_protection_1,
    make_ucode_protection_2,
    make_unprotected_baseline,
)
from repro.bpu.tage import TAGE_SC_L_8KB, TAGE_SC_L_64KB, TAGEConfig, TAGEPredictor
from repro.trace.branch import BranchRecord, BranchType, PrivilegeMode


def _run_direction(predictor, outcome_fn, ip=0x40_0100, steps=800):
    history = HistoryState()
    correct = 0
    for step in range(steps):
        taken = outcome_fn(step)
        prediction = predictor.predict(ip, history)
        if prediction.taken == taken:
            correct += 1
        predictor.update(prediction, taken, ip=ip)
        history.record_conditional(taken)
    return correct / steps


class TestTAGE:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            TAGEConfig(name="bad", bimodal_entries=16,
                       tagged_table_entries=(16, 16), tag_bits=(8,), history_lengths=(4, 8))
        with pytest.raises(ValueError, match="tag_bits"):
            # Tags are stored in int64 columns.
            TAGEConfig(name="wide", bimodal_entries=16, tagged_table_entries=(16,),
                       tag_bits=(64,), history_lengths=(4,))

    def test_learns_bias(self):
        assert _run_direction(TAGEPredictor(TAGE_SC_L_8KB), lambda i: True) > 0.97

    def test_learns_long_pattern(self):
        pattern = [True, True, False, True, False, False, True, False]
        accuracy = _run_direction(TAGEPredictor(TAGE_SC_L_64KB),
                                  lambda i: pattern[i % len(pattern)], steps=1200)
        assert accuracy > 0.9

    def test_loop_predictor_catches_fixed_trip_count(self):
        predictor = TAGEPredictor(TAGE_SC_L_64KB)
        # 7 taken iterations then one not-taken exit, repeatedly.
        accuracy = _run_direction(predictor, lambda i: (i % 8) != 7, steps=1600)
        assert accuracy > 0.9

    def test_flush_resets_learning(self):
        predictor = TAGEPredictor(TAGE_SC_L_8KB)
        _run_direction(predictor, lambda i: True, steps=200)
        predictor.flush()
        history = HistoryState()
        first = predictor.predict(0x40_0100, history)
        # After a flush the bimodal base is back to weakly not-taken.
        assert first.provider_table is None

    def test_8kb_and_64kb_have_expected_relative_capacity(self):
        assert sum(TAGE_SC_L_64KB.tagged_table_entries) > sum(TAGE_SC_L_8KB.tagged_table_entries)
        assert max(TAGE_SC_L_64KB.history_lengths) > max(TAGE_SC_L_8KB.history_lengths)


class TestPerceptron:
    def test_learns_bias(self):
        assert _run_direction(PerceptronPredictor(), lambda i: True) > 0.97

    def test_learns_linearly_separable_pattern_with_noise_history(self):
        pattern = [True, False, False, True]
        accuracy = _run_direction(PerceptronPredictor(),
                                  lambda i: pattern[i % len(pattern)], steps=1000)
        assert accuracy > 0.9

    def test_threshold_follows_history_length(self):
        short = PerceptronConfig(history_length=16)
        long = PerceptronConfig(history_length=64)
        assert long.threshold > short.threshold

    def test_weights_saturate(self):
        config = PerceptronConfig(weight_bits=4, history_length=8)
        predictor = PerceptronPredictor(config)
        _run_direction(predictor, lambda i: True, steps=500)
        limit = config.weight_limit
        assert all(-limit - 1 <= w <= limit for w in predictor._weights)


def _conditional(ip, taken, ctx=0):
    target = ip + 0x100 if taken else ip + 4
    return BranchRecord(ip=ip, target=target, taken=taken,
                        branch_type=BranchType.CONDITIONAL, context_id=ctx)


class TestCompositeBPU:
    def test_direct_jump_learns_target(self):
        model = make_skl_composite()
        branch = BranchRecord(ip=0x40_0000, target=0x41_0000, taken=True,
                              branch_type=BranchType.DIRECT_JUMP)
        first = model.access_with_events(branch)
        second = model.access_with_events(branch)
        assert not first.effective_correct
        assert second.effective_correct and second.btb_hit

    def test_oae_requires_both_direction_and_target(self):
        model = make_skl_composite()
        branch = _conditional(0x40_0200, True)
        # Train direction until predicted taken, but with a cold BTB the first
        # taken prediction cannot supply the target.
        result = None
        for _ in range(8):
            result = model.access_with_events(branch)
        assert result.direction_correct
        assert result.effective_correct  # by now both direction and target are warm

    def test_return_uses_rsb(self):
        model = make_skl_composite()
        call = BranchRecord(ip=0x40_0300, target=0x42_0000, taken=True,
                            branch_type=BranchType.DIRECT_CALL)
        model.access_with_events(call)
        ret = BranchRecord(ip=0x42_0040, target=call.fall_through, taken=True,
                           branch_type=BranchType.RETURN)
        result = model.access_with_events(ret)
        assert result.prediction.source == "rsb"
        assert result.effective_correct

    def test_rsb_underflow_falls_back(self):
        model = make_skl_composite()
        ret = BranchRecord(ip=0x42_0040, target=0x40_0304, taken=True,
                           branch_type=BranchType.RETURN)
        result = model.access_with_events(ret)
        assert result.rsb_underflow

    def test_flush_loses_btb_state(self):
        model = make_skl_composite()
        branch = BranchRecord(ip=0x40_0000, target=0x41_0000, taken=True,
                              branch_type=BranchType.DIRECT_JUMP)
        model.access_with_events(branch)
        model.flush_predictor_state()
        again = model.access_with_events(branch)
        assert not again.btb_hit

    def test_stats_accumulate(self, small_mcf_trace):
        model = make_skl_composite()
        stats = PredictorStats()
        for branch in small_mcf_trace.branches():
            stats.record(model.access_with_events(branch), branch)
        assert stats.branches == small_mcf_trace.branch_count
        assert 0.0 < stats.oae_accuracy < 1.0
        assert stats.direction_predictions == stats.conditional_branches


class TestProtections:
    def test_flushing_counts_flushes(self):
        model = make_ucode_protection_1()
        model.on_context_switch(1)
        model.on_context_switch(2)
        model.on_mode_switch(PrivilegeMode.KERNEL, 2)
        assert model.flush_count == 2  # second context switch + kernel entry

    def test_ucode2_does_not_segment_btb(self):
        p1 = make_ucode_protection_1()
        p2 = make_ucode_protection_2()
        assert p1.inner.btb.set_count < p2.inner.btb.set_count

    def test_conservative_isolates_contexts(self):
        model = make_conservative()
        branch_a = BranchRecord(ip=0x40_0000, target=0x41_0000, taken=True,
                                branch_type=BranchType.DIRECT_JUMP, context_id=0)
        model.access(branch_a)
        model.access(branch_a)
        # The same branch address executed by another context must not reuse
        # the entry (partitioned structures).
        branch_b = branch_a.with_context(1)
        result = model.access(branch_b)
        assert not result.btb_hit

    def test_unprotected_baseline_shares_across_contexts(self):
        model = make_unprotected_baseline()
        branch_a = BranchRecord(ip=0x40_0000, target=0x41_0000, taken=True,
                                branch_type=BranchType.DIRECT_JUMP, context_id=0)
        model.access_with_events(branch_a)
        result = model.access_with_events(branch_a.with_context(1))
        assert result.btb_hit
