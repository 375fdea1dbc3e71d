"""Tests for :mod:`repro.faults`: the spec mini-language, the seeded
injector, and the fault-wrapping store decorator."""

import time

import pytest

from repro.faults import (
    CORRUPT_PAYLOAD,
    FAULTS_ENV,
    FaultInjector,
    FaultPlan,
    FaultyStore,
    parse_fault_spec,
    plan_from_env,
    wrap_store,
)
from repro.store import MemoryStore

FP = "a" * 64


class TestSpecParsing:
    def test_full_spec_round_trips(self):
        plan = parse_fault_spec(
            "error=0.2, latency=0.1, latency_seconds=0.002, corrupt=0.05,"
            " seed=7, hang=wedge, hang_seconds=30")
        assert plan == FaultPlan(
            error_rate=0.2, latency_rate=0.1, latency_seconds=0.002,
            corrupt_rate=0.05, seed=7, hang="wedge", hang_seconds=30.0)
        assert plan.active

    def test_empty_clauses_are_tolerated(self):
        assert parse_fault_spec("error=0.5,,") == FaultPlan(error_rate=0.5)
        assert parse_fault_spec("") == FaultPlan()

    @pytest.mark.parametrize("spec", [
        "error",            # no separator
        "error=",           # no value
        "turbulence=0.5",   # unknown key
        "error=lots",       # not a float
        "seed=1.5",         # not an int
    ])
    def test_malformed_clauses_raise(self, spec):
        with pytest.raises(ValueError):
            parse_fault_spec(spec)

    @pytest.mark.parametrize("spec", [
        "error=1.5", "latency=-0.1", "corrupt=2",     # rates out of [0, 1]
        "latency_seconds=-1", "hang_seconds=-0.5",    # negative durations
    ])
    def test_out_of_range_values_raise(self, spec):
        with pytest.raises(ValueError):
            parse_fault_spec(spec)

    def test_seed_only_plan_is_inactive(self):
        assert not parse_fault_spec("seed=42").active
        assert not FaultPlan().active

    def test_plan_from_env(self):
        assert plan_from_env({}) is None
        assert plan_from_env({FAULTS_ENV: ""}) is None
        plan = plan_from_env({FAULTS_ENV: "error=0.25,seed=3"})
        assert plan == FaultPlan(error_rate=0.25, seed=3)


class TestInjector:
    def test_rolls_are_deterministic_per_seed(self):
        plan = parse_fault_spec("error=0.5,seed=11")
        first = FaultInjector(plan)
        second = FaultInjector(plan)
        rolls = [first.roll(0.5) for _ in range(64)]
        assert rolls == [second.roll(0.5) for _ in range(64)]
        assert any(rolls) and not all(rolls)

    def test_zero_rate_never_rolls_nor_consumes_entropy(self):
        injector = FaultInjector(parse_fault_spec("error=0.5,seed=11"))
        reference = FaultInjector(parse_fault_spec("error=0.5,seed=11"))
        assert not injector.roll(0.0)
        # The zero-rate roll must not advance the RNG: later rolls stay in
        # lockstep with an injector that never saw it.
        assert [injector.roll(0.5) for _ in range(16)] == \
            [reference.roll(0.5) for _ in range(16)]

    def test_maybe_hang_only_wedges_matching_names(self):
        injector = FaultInjector(
            parse_fault_spec("hang=wedge,hang_seconds=0"))
        assert injector.maybe_hang("calm-scenario") is False
        assert injector.maybe_hang("wedge-this-one") is True
        assert injector.counters()["hangs"] == 1

    def test_maybe_hang_honours_abort(self):
        injector = FaultInjector(
            parse_fault_spec("hang=wedge,hang_seconds=60"))
        start = time.monotonic()
        assert injector.maybe_hang("wedge", should_abort=lambda: True,
                                   tick=0.01) is True
        assert time.monotonic() - start < 5.0


class TestFaultyStore:
    def test_certain_error_rate_fails_every_round_trip(self):
        store = FaultyStore(MemoryStore(), parse_fault_spec("error=1"))
        with pytest.raises(OSError, match="injected"):
            store.put("envelope", FP, {"x": 1})
        with pytest.raises(OSError, match="injected"):
            store.get("envelope", FP)
        assert store.injector.counters()["injected_errors"] == 2
        assert store.inner.stats()["entries"] == 0

    def test_certain_corruption_mangles_hits_only(self):
        store = FaultyStore(MemoryStore(), parse_fault_spec("corrupt=1"))
        assert store.get("envelope", FP) is None  # a miss stays a miss
        store.put("envelope", FP, {"x": 1})
        assert store.get("envelope", FP) == CORRUPT_PAYLOAD
        # The inner store is untouched: corruption is a read-side illusion.
        assert store.inner.get("envelope", FP) == {"x": 1}
        assert store.injector.counters()["injected_corruption"] == 1

    def test_latency_injection_counts(self):
        store = FaultyStore(
            MemoryStore(),
            parse_fault_spec("latency=1,latency_seconds=0"))
        store.put("envelope", FP, {"x": 1})
        assert store.get("envelope", FP) == {"x": 1}
        assert store.injector.counters()["injected_latency"] == 2

    def test_counters_are_shared_with_the_inner_store(self):
        store = FaultyStore(MemoryStore(), parse_fault_spec("seed=1"))
        store.put("envelope", FP, {"x": 1})
        store.get("envelope", FP)
        assert store.counters is store.inner.counters
        assert store.counters.hits == 1 and store.counters.writes == 1

    def test_stats_carry_the_fault_counters(self):
        store = FaultyStore(MemoryStore(), parse_fault_spec("corrupt=1"))
        store.put("envelope", FP, {"x": 1})
        store.get("envelope", FP)
        stats = store.stats()
        assert stats["faults"]["injected_corruption"] == 1
        assert stats["backend"] == "memory"

    def test_identical_seeds_inject_identically(self):
        # The reproducible-chaos contract: same plan, same operation
        # sequence, same faults.
        def run(seed):
            store = FaultyStore(MemoryStore(),
                                parse_fault_spec(f"error=0.4,seed={seed}"))
            outcomes = []
            for index in range(32):
                try:
                    store.put("envelope", FP, {"i": index})
                    outcomes.append("ok")
                except OSError:
                    outcomes.append("fault")
            return outcomes

        assert run(5) == run(5)
        assert run(5) != run(6)


class TestWrapStore:
    def test_inactive_or_missing_inputs_are_identity(self):
        store = MemoryStore()
        assert wrap_store(None, FaultPlan(error_rate=1.0)) == (None, None)
        assert wrap_store(store, None) == (store, None)
        assert wrap_store(store, FaultPlan(seed=9)) == (store, None)

    def test_active_plan_wraps_and_exposes_the_injector(self):
        store = MemoryStore()
        wrapped, injector = wrap_store(store, FaultPlan(error_rate=1.0))
        assert isinstance(wrapped, FaultyStore)
        assert wrapped.inner is store
        assert injector is wrapped.injector
