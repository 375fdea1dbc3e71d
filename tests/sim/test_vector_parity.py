"""Differential tests: ``vector`` against the ``reference`` oracle.

The vector backend replays with array kernels (segmented counter scans,
history window kernels, a slim structural loop); these tests pin it — per
model family, including a re-randomization-heavy STBPU scenario and an SMT
pair — to byte-identical serialized result frames and post-replay model
state against the per-item reference loop, plus unit-level parity of the
underlying kernels.
"""

from array import array
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bpu.common import fold_bits
from repro.bpu.mapping import fold_bits_array
from repro.bpu.protections import make_unprotected_baseline
from repro.core.monitoring import MonitorConfig
from repro.core.remapping import keyed_remap, keyed_remap_array
from repro.core.stbpu import make_stbpu_skl
from repro.engine import EngineRunner, ExperimentScale, ModelSpec, SimulationGrid
from repro.obs import metrics as obs_metrics
from repro.sim import fastpath, vector
from repro.sim.bpu_sim import TraceSimulator
from repro.sim.smt import SMTSimulator
from repro.trace.branch import BranchRecord, BranchType, Trace

BACKENDS = ("reference", "vector")


def _family_jobs():
    """One representative grid cell per model family, every simulator kind.

    ``ST_SKLCond[r=0.0005]`` has aggressively low monitor thresholds, so its
    cells re-randomize many times mid-trace — exercising the vector backend's
    fired-chunk prefix commit, in single traces and in SMT co-runs where one
    span crosses the two threads' tokens.  The TAGE cells (both sizes,
    protected and unprotected) replay through the guarded span stepper and
    the Perceptron cells through row rounds, and every ablation facade rides
    along, so each registry family's kernel is pinned against the reference
    loop.
    """
    scale = ExperimentScale(branch_count=2_000, warmup_branches=200, seed=13)
    rerand_heavy = ModelSpec.of("ST_SKLCond", r=0.0005)
    grids = [
        SimulationGrid(
            kind="trace",
            models=("baseline", "ucode_protection_1", "ucode_protection_2",
                    "conservative", "stbpu_variant", "ST_SKLCond", rerand_heavy,
                    "TAGE_SC_L_8KB", "TAGE_SC_L_64KB", "PerceptronBP",
                    "ST_TAGE_SC_L_8KB", "ST_TAGE_SC_L_64KB",
                    "ST_PerceptronBP"),
            workloads=("505.mcf", "apache2_prefork_c128"), scale=scale),
        SimulationGrid(
            kind="cpu", models=("baseline", "conservative", "ST_SKLCond",
                                "TAGE_SC_L_8KB", "PerceptronBP"),
            workloads=("541.leela",), scale=scale),
        SimulationGrid(
            kind="smt",
            models=("baseline", "ucode_protection_2", "conservative",
                    "ST_SKLCond", rerand_heavy, "ST_TAGE_SC_L_8KB",
                    "ST_TAGE_SC_L_64KB", "ST_PerceptronBP"),
            workloads=(("505.mcf", "541.leela"),), scale=scale),
    ]
    jobs = []
    for grid in grids:
        jobs.extend(grid.jobs(start_index=len(jobs)))
    return jobs


#: The vector backend's two BTB/RSB paths: at the shipped crossover a span
#: without a flush that is shorter than ``_KERNEL_MIN_BRANCHES`` replays in
#: the per-branch loop, and at 0 every span replays in the array kernel.
KERNEL_MINIMA = (vector._KERNEL_MIN_BRANCHES, 0)


def _across_backends(run):
    """``run()`` under the reference backend, then under the vector backend
    once per ``KERNEL_MINIMA`` entry: ``(reference, [vector, ...])``."""
    with fastpath.forced_backend("reference"):
        reference = run()
    replays = []
    for minimum in KERNEL_MINIMA:
        with fastpath.forced_backend("vector"), mock.patch.object(
                vector, "_KERNEL_MIN_BRANCHES", minimum):
            replays.append(run())
    return reference, replays


class TestThreeWayParity:
    """Reference-vs-vector frame and state parity.  The class name predates
    the removal of a third backend and is kept so test ids stay stable.

    Replays shorter than ``_KERNEL_MIN_BRANCHES`` (the grid's 2,000-branch
    trace and cpu cells among them) run on the vector backend at both
    ``KERNEL_MINIMA``, so the same traces pin the loop and the kernel."""

    def test_family_grid_json_identical_across_backends(self):
        reference, replays = _across_backends(
            lambda: EngineRunner().run_jobs(_family_jobs()).to_json())
        assert replays == [reference] * len(KERNEL_MINIMA)

    def test_rerandomization_heavy_replay_matches_scalar_state(self):
        """Mid-chunk monitor firings must leave *identical model state*, not
        just identical stats — tokens, counters, tables, BTB and histories."""
        from repro.engine import trace_for

        trace = trace_for("505.mcf", 5_000, 7)
        snapshots = {}
        for backend in BACKENDS:
            with fastpath.forced_backend(backend):
                config = MonitorConfig(misprediction_threshold=60,
                                       eviction_threshold=45,
                                       direction_misprediction_threshold=None)
                model = make_stbpu_skl(monitor_config=config, seed=5)
                TraceSimulator(warmup_branches=250).run(model, trace)
                inner = model.inner
                snapshots[backend] = (
                    model.protection_stats(),
                    model.current_token().value,
                    (model.monitor.counters.mispredictions_remaining,
                     model.monitor.counters.evictions_remaining,
                     model.monitor.fired_count,
                     model.monitor.observed_mispredictions,
                     model.monitor.observed_evictions),
                    bytes(inner.direction.one_level._values),
                    bytes(inner.direction.two_level._values),
                    bytes(inner.direction.chooser._values),
                    _composite_state(inner),
                )
        assert snapshots["reference"][0]["rerandomizations"] > 5
        assert snapshots["reference"] == snapshots["vector"]

    def test_non_power_of_two_pht_entries(self):
        # The scalar PatternHistoryTable wraps every access with `% entries`;
        # the vector backend must apply the same wrap (regression: fold
        # outputs past a 12000-entry table raised IndexError).
        from repro.bpu.common import StructureSizes
        from repro.bpu.protections import make_unprotected_baseline
        from repro.engine import trace_for

        trace = trace_for("505.mcf", 2_000, 7)
        sizes = StructureSizes(pht_entries=12_000)
        reference, replays = _across_backends(
            lambda: TraceSimulator(warmup_branches=100).run(
                make_unprotected_baseline(sizes), trace).stats)
        assert replays == [reference] * len(KERNEL_MINIMA)

    @pytest.mark.parametrize("warmup", [0, 3, 7, 50])
    def test_warmup_boundaries(self, warmup):
        trace = Trace(name="edge")
        for index in range(40):
            trace.append(BranchRecord(
                ip=0x4000 + index * 64, target=0x9000 + (index % 5) * 256,
                taken=index % 3 != 0, branch_type=BranchType.CONDITIONAL))
        reference, replays = _across_backends(
            lambda: TraceSimulator(warmup_branches=warmup).run(
                make_unprotected_baseline(), trace).stats)
        assert replays == [reference] * len(KERNEL_MINIMA), f"warmup={warmup}"

    def test_negative_smt_warmup_records_every_branch(self):
        # The reference co-run loop records a thread's branch once its count
        # passes the warm-up, so a negative warm-up records all of them.
        from repro.engine import trace_for
        from repro.sim.config import SimulationLengths

        traces = (trace_for("505.mcf", 2_000, 7), trace_for("541.leela", 2_000, 7))
        thread_stats = {}
        for backend in BACKENDS:
            with fastpath.forced_backend(backend):
                simulator = SMTSimulator(
                    lengths=SimulationLengths(warmup_branches=-5))
                thread_stats[backend] = simulator.run(
                    make_unprotected_baseline(), *traces).thread_stats
        assert thread_stats["reference"] == thread_stats["vector"]
        for trace, stats in zip(traces, thread_stats["vector"]):
            assert stats.branches == sum(
                isinstance(item, BranchRecord) for item in trace)


def _replay_total(counter: str, model: str, kind: str) -> float:
    """The ``repro_replay_<counter>_total`` sample for ``(model, kind)``."""
    family = obs_metrics.registry().snapshot().get(
        f"repro_replay_{counter}_total", {"samples": []})
    for sample in family["samples"]:
        if sample["labels"] == {"model": model, "kind": kind}:
            return sample["value"]
    return 0.0


def _fold_register_value(ghist: list, history_length: int, width: int) -> int:
    """A TAGE fold register's value over a history list, bit by bit: the
    reference for the closed form the TAGE stepper computes in bulk."""
    value = 0
    length = len(ghist)
    for k in range(min(history_length, length)):
        if ghist[length - 1 - k]:
            value ^= 1 << (k % width)
    return value


def _tage_state(direction):
    """Complete TAGE-SC-L predictor state, every column and register."""
    return (
        list(direction._bimodal),
        [(bytes(valid), list(tags), list(counters), list(useful))
         for valid, tags, counters, useful in zip(
             direction._valid, direction._tags, direction._counters,
             direction._useful)],
        [f.value for f in direction._index_folds],
        [f.value for f in direction._tag_folds],
        list(direction._ghist),
        direction._use_alt_on_na,
        direction._access_count,
        [list(column) for column in (
            direction._loop_tags, direction._loop_past,
            direction._loop_current, direction._loop_conf,
            direction._loop_valid)],
        [list(t) for t in direction._sc_tables],
    )


def _perceptron_state(direction):
    """The weight table, row by row."""
    weights = list(direction._weights)
    width = direction.config.history_length + 1
    return [weights[start:start + width]
            for start in range(0, len(weights), width)]


def _token_state(model):
    """An STBPU's token machinery: tables, generator, register, monitor."""
    monitor = model.monitor
    counters = monitor.counters
    return (
        {context: token.value
         for context, token in model._context_tokens.items()},
        {group: token.value for group, token in model._group_tokens.items()},
        model.generator.generated_count,
        model.register.rerandomization_count,
        (counters.mispredictions_remaining, counters.evictions_remaining,
         counters.direction_remaining, monitor.fired_count,
         monitor.observed_mispredictions, monitor.observed_evictions),
        model._current_context,
        sorted(model.stats.contexts_seen),
        model.current_token().value,
        model.mapping.token.value,
        model.codec.token.value,
    )


def _composite_state(composite):
    """Shared composite structures: BTB, RSB and the history registers.

    The BTB is its three slot lists and its index, so a stale index entry
    fails parity as well as a wrong slot.
    """
    btb = composite.btb
    return (
        list(btb._keys),
        list(btb._ranks),
        list(btb._targets),
        sorted(btb._slots.items()),
        btb._access_clock,
        btb.eviction_count,
        list(composite.rsb._stack),
        composite.rsb.overflow_count,
        composite.rsb.underflow_count,
        composite.history.ghr.value,
        composite.history.bhb.value,
        list(composite.history.outcomes),
    )


def _state_objects(model):
    """Every list, buffer and dict a replay mutates, by attribute path: the
    direction predictor's (and its PHTs'), the BTB's, the RSB's and the
    history's, and the inner lists of a list of lists."""
    inner = getattr(model, "inner", model)
    direction = inner.direction
    owners = {"direction": direction, "btb": inner.btb, "rsb": inner.rsb,
              "history": inner.history}
    for name in ("one_level", "two_level", "chooser"):
        if hasattr(direction, name):
            owners[name] = getattr(direction, name)
    found = {}

    def walk(path, value):
        if isinstance(value, list):
            found[path] = value
            for position, item in enumerate(value):
                walk(f"{path}[{position}]", item)
        elif isinstance(value, (bytearray, array, dict)):
            found[path] = value

    for owner_name, owner in owners.items():
        for cls in type(owner).__mro__:
            for name in getattr(cls, "__slots__", ()):
                if hasattr(owner, name):
                    walk(f"{owner_name}.{name}", getattr(owner, name))
    return found


class TestPredictorStateParity:
    """Reference-vs-vector *state* parity for the TAGE and Perceptron
    kernels.

    The frame-level grid above already pins the serialized stats; these
    tests additionally require the post-replay predictor state — every
    tagged entry, fold register, weight row, BTB entry and history register
    — to be bit-identical, which is what makes mid-trace guard repairs,
    prefix commits and resumes observable even when they happen to leave
    the stats alone.
    """

    def _replay(self, factory, workload, state_fn, branches=6_000, seed=7):
        from repro.engine import trace_for

        trace = trace_for(workload, branches, seed)
        snapshots = {}
        for backend in BACKENDS:
            with fastpath.forced_backend(backend):
                model = factory()
                result = TraceSimulator(warmup_branches=250).run(model, trace)
                inner = getattr(model, "inner", model)
                token = (model.current_token().value
                         if hasattr(model, "current_token") else None)
                stats = (model.protection_stats()
                         if hasattr(model, "current_token") else None)
                snapshots[backend] = (result, stats, token,
                                      state_fn(inner.direction),
                                      _composite_state(inner))
        return snapshots

    @pytest.mark.parametrize("workload", ["505.mcf", "apache2_prefork_c128"])
    @pytest.mark.parametrize("config_name", ["TAGE_SC_L_8KB", "TAGE_SC_L_64KB"])
    def test_unprotected_tage_state(self, config_name, workload):
        from repro.bpu import tage as tage_module
        from repro.core.stbpu import make_unprotected_tage

        config = getattr(tage_module, config_name)
        snapshots = self._replay(lambda: make_unprotected_tage(config),
                                 workload, _tage_state)
        assert snapshots["reference"] == snapshots["vector"]

    @pytest.mark.parametrize("workload", ["505.mcf", "apache2_prefork_c128"])
    def test_unprotected_perceptron_state(self, workload):
        from repro.core.stbpu import make_unprotected_perceptron

        snapshots = self._replay(make_unprotected_perceptron, workload,
                                 _perceptron_state)
        assert snapshots["reference"] == snapshots["vector"]

    @pytest.mark.parametrize("config_name", ["TAGE_SC_L_8KB", "TAGE_SC_L_64KB"])
    def test_rerand_heavy_st_tage_state(self, config_name):
        # Aggressive monitor thresholds force the monitor to fire *inside*
        # stepper spans: the stepper must commit the executed prefix, abort
        # the rest of the block, re-specialize under the new token, and
        # resume exactly.  The rerandomization count pins that the abort
        # path actually ran.
        from repro.bpu import tage as tage_module
        from repro.core.stbpu import make_stbpu_tage

        config = getattr(tage_module, config_name)
        monitor = MonitorConfig(misprediction_threshold=60,
                                eviction_threshold=45,
                                direction_misprediction_threshold=None)
        snapshots = self._replay(
            lambda: make_stbpu_tage(config, monitor_config=monitor, seed=5),
            "505.mcf", _tage_state)
        assert snapshots["reference"][1]["rerandomizations"] > 5
        assert snapshots["reference"] == snapshots["vector"]

    def test_rerand_heavy_st_perceptron_state(self):
        from repro.core.stbpu import make_stbpu_perceptron

        monitor = MonitorConfig(misprediction_threshold=60,
                                eviction_threshold=45,
                                direction_misprediction_threshold=None)
        snapshots = self._replay(
            lambda: make_stbpu_perceptron(monitor_config=monitor, seed=5),
            "505.mcf", _perceptron_state)
        assert snapshots["reference"][1]["rerandomizations"] > 5
        assert snapshots["reference"] == snapshots["vector"]

    def test_perceptron_guard_abort_resumes_exactly(self):
        """A single hot conditional drives every access into one weight row:
        row rounds would replay one access per round, so the row walks its
        accesses in order instead, predicting ahead from its weights and
        resuming after each training, and must leave the reference loop's
        weights."""
        from repro.core.stbpu import make_unprotected_perceptron

        trace = Trace(name="hot-row")
        for index in range(1_500):
            trace.append(BranchRecord(
                ip=0x4040, target=0x9000,
                taken=(index * 7) % 11 < 6,
                branch_type=BranchType.CONDITIONAL))
        snapshots = {}
        for backend in BACKENDS:
            with fastpath.forced_backend(backend):
                model = make_unprotected_perceptron()
                result = TraceSimulator(warmup_branches=100).run(model, trace)
                snapshots[backend] = (result,
                                      _perceptron_state(model.direction))
        # The row trained (so the walk resumed after trainings) …
        assert any(any(weight for weight in row)
                   for row in snapshots["vector"][1])
        # … and resumed bit-identically.
        assert snapshots["reference"] == snapshots["vector"]

    def test_tage_span_boundaries_resume_exactly(self, monkeypatch):
        # A tiny span cap forces many prepare/commit cycles mid-trace; the
        # carried history and fold registers must reseed each span exactly.
        from repro.core.stbpu import make_unprotected_tage

        monkeypatch.setattr(vector, "_STEPPER_SPAN_LIMIT", 64)
        snapshots = self._replay(make_unprotected_tage, "505.mcf",
                                 _tage_state, branches=2_000)
        assert snapshots["reference"] == snapshots["vector"]

    def test_tage_useful_reset_fires_every_period_in_a_span(self):
        # A guarded span runs up to _STEPPER_SPAN_LIMIT conditionals, so a
        # short reset period falls due several times inside one span; each
        # periodic usefulness reset must land where the scalar access count
        # reaches a multiple of the period.
        import dataclasses

        from repro.bpu.tage import TAGE_SC_L_8KB
        from repro.core.stbpu import make_unprotected_tage

        config = dataclasses.replace(TAGE_SC_L_8KB, useful_reset_period=16)
        snapshots = self._replay(lambda: make_unprotected_tage(config),
                                 "505.mcf", _tage_state, branches=1_000,
                                 seed=1)
        assert snapshots["reference"] == snapshots["vector"]

    @pytest.mark.parametrize("name", ["baseline", "TAGE_SC_L_8KB",
                                      "PerceptronBP", "flushing_TAGE_SC_L_8KB",
                                      "flushing_PerceptronBP"])
    def test_vector_replay_keeps_state_objects(self, name):
        """The vector engine replays the predictor's own tables, RSB stack
        and history list in place: a replay rebinds none of them, a guarded
        one whose spans end at mid-trace flushes included."""
        from repro.bpu.protections import FlushingProtectedBPU
        from repro.bpu.tage import TAGE_SC_L_8KB
        from repro.core.stbpu import (
            make_unprotected_perceptron,
            make_unprotected_tage,
        )
        from repro.engine import trace_for

        factories = {
            "baseline": make_unprotected_baseline,
            "TAGE_SC_L_8KB": lambda: make_unprotected_tage(TAGE_SC_L_8KB),
            "PerceptronBP": make_unprotected_perceptron,
        }
        flushing = name.startswith("flushing_")
        model = factories[name.removeprefix("flushing_")]()
        if flushing:
            model = FlushingProtectedBPU(model, name)
        before = _state_objects(model)
        trace = trace_for("apache2_prefork_c128", 3_000, 7)
        with fastpath.forced_backend("vector"):
            TraceSimulator(warmup_branches=0).run(model, trace)
        after = _state_objects(model)
        if flushing:
            assert model.flush_count > 0
        assert after.keys() == before.keys()
        assert [path for path, value in before.items()
                if after[path] is not value] == []


class TestBackendSwitch:
    def test_default_backend_is_vector(self):
        assert fastpath.backend() in fastpath.BACKENDS
        assert fastpath.DEFAULT_BACKEND == "vector"

    def test_forced_backend_restores(self):
        before = fastpath.backend()
        with fastpath.forced_backend("reference"):
            assert fastpath.backend() == "reference"
            assert not fastpath.vector_enabled()
        assert fastpath.backend() == before

    def test_unknown_backend_rejected(self):
        assert fastpath.BACKENDS == ("reference", "vector")
        for name in ("simd", "fast"):
            with pytest.raises(ValueError, match="unknown backend"):
                fastpath.set_backend(name)

    def test_cli_backend_option(self, capsys, tmp_path):
        from repro.cli import main

        json_path = tmp_path / "f3.json"
        # --backend sets the process-wide switch; restore it afterwards.
        with fastpath.forced_backend(fastpath.backend()):
            assert main(["figure3", "--workload-limit", "1", "--branches",
                         "800", "--warmup", "80", "--backend", "reference",
                         "--json", str(json_path)]) == 0
        assert json_path.exists()
        with pytest.raises(SystemExit) as excinfo:
            main(["figure3", "--backend", "fast"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'fast'" in capsys.readouterr().err

    def test_decline_is_counted_once(self):
        from repro.bpu.common import StructureSizes
        from repro.bpu.composite import make_skl_composite
        from repro.engine import trace_for

        # Every registry model has a vector kernel, so the kernel-less path
        # is pinned with a 3-bit-counter SKL composite (the SKL engine
        # builder only handles the 2-bit transition tables).
        def make_model():
            return make_skl_composite(
                sizes=StructureSizes(pht_counter_bits=3), name="ThreeBitCond")

        trace = trace_for("505.mcf", 600, 7)
        assert vector.kernel_status(make_model()) == "fallback"
        before = _replay_total("declines", "ThreeBitCond", "trace")
        stats = {}
        for backend in BACKENDS:
            with fastpath.forced_backend(backend):
                stats[backend] = TraceSimulator(warmup_branches=60).run(
                    make_model(), trace).stats
        # One decline for the vector run; the reference run never tries.
        assert _replay_total("declines", "ThreeBitCond", "trace") == before + 1
        assert stats["reference"] == stats["vector"]

    def test_stbpu_smt_corun_is_not_declined(self):
        from repro.engine import trace_for

        # SMT merges swap tokens every scheduling quantum; the STBPU kernel
        # reads each branch's token from its slot table, so it replays the
        # co-run itself and no decline is counted.
        trace_a = trace_for("505.mcf", 600, 7)
        trace_b = trace_for("541.leela", 600, 7)
        stats = {}
        for backend in BACKENDS:
            with fastpath.forced_backend(backend):
                model = make_stbpu_skl(seed=5)
                before = _replay_total("declines", "ST_SKLCond", "smt")
                result = SMTSimulator().run(model, trace_a, trace_b)
                assert _replay_total("declines", "ST_SKLCond", "smt") == before
                stats[backend] = (result.thread_stats, result.protection,
                                  _token_state(model),
                                  _composite_state(model.inner))
        assert stats["reference"] == stats["vector"]

    def test_every_registry_model_has_a_kernel(self):
        from repro.engine.registry import build_model, list_models

        # The class comes from the stepper's ``guarded`` flag and feeds
        # list-models, the bench's predictors block and perfbench's
        # sim.guarded_s, so the whole table is pinned.
        statuses = {name: vector.kernel_status(build_model(name, seed=0))
                    for name in list_models()}
        guarded = {"TAGE_SC_L_8KB", "TAGE_SC_L_64KB", "ST_TAGE_SC_L_8KB",
                   "ST_TAGE_SC_L_64KB"}
        kernel = {"baseline", "SKLCond", "ST_SKLCond", "conservative",
                  "stbpu_variant", "ucode_protection_1", "ucode_protection_2",
                  "PerceptronBP", "ST_PerceptronBP"}
        assert statuses == {**{name: "guarded" for name in guarded},
                            **{name: "kernel" for name in kernel}}


class TestSpanSchedule:
    """OS events do not end vector spans.

    µcode flushes are epochs inside one SKL span, and STBPU events are token
    bookkeeping: an STBPU span ends only where a context with no token is
    installed for the first time (here: the kernel context in 505.mcf, and
    the kernel plus six more contexts in apache2_prefork_c128).
    """

    @pytest.mark.parametrize("workload, spans, protection", [
        ("505.mcf",
         {"ucode_protection_1": 1, "ucode_protection_2": 1, "ST_SKLCond": 2},
         {"flushes": 11, "token_loads": 23, "contexts_seen": 2}),
        ("apache2_prefork_c128",
         {"ucode_protection_1": 1, "ucode_protection_2": 1, "ST_SKLCond": 8},
         {"flushes": 48, "token_loads": 82, "contexts_seen": 8}),
    ])
    def test_os_events_do_not_end_spans(self, workload, spans, protection):
        from repro.engine import trace_for
        from repro.engine.registry import build_model

        trace = trace_for(workload, 20_000, 7)
        for name, expected in spans.items():
            model = build_model(ModelSpec(name), seed=7)
            with mock.patch.object(
                    vector._CompositeEngine, "run_span", autospec=True,
                    side_effect=vector._CompositeEngine.run_span) as run_span:
                TraceSimulator(warmup_branches=2_000).run(model, trace)
            assert run_span.call_count == expected, name
            stats = model.protection_stats()
            for key in stats.keys() & protection.keys():
                assert stats[key] == protection[key], (name, key)

    def test_replay_counters(self):
        from repro.engine import trace_for
        from repro.engine.registry import build_model

        trace = trace_for("505.mcf", 20_000, 7)
        model = build_model(ModelSpec("ucode_protection_2"), seed=7)
        before = {counter: _replay_total(counter, "ucode_protection_2", "trace")
                  for counter in ("spans", "branches")}
        TraceSimulator(warmup_branches=2_000).run(model, trace)
        assert _replay_total("spans", "ucode_protection_2", "trace") \
            == before["spans"] + 1
        assert _replay_total("branches", "ucode_protection_2", "trace") \
            == before["branches"] + 20_000


class TestReplayWork:
    """``repro_replay_prepared_branches_total`` and
    ``repro_replay_loop_branches_total``: the work a replay prepared
    (prepared − replayed is what fires discarded) and the branches only the
    per-branch loop replayed."""

    COUNTERS = ("spans", "branches", "prepared_branches", "loop_branches")

    def _deltas(self, spec):
        from repro.engine import trace_for
        from repro.engine.registry import build_model

        trace = trace_for("505.mcf", 4_000, 7)
        model = build_model(spec, seed=7)
        before = {counter: _replay_total(counter, model.name, "trace")
                  for counter in self.COUNTERS}
        TraceSimulator(warmup_branches=400).run(model, trace)
        return ({counter: _replay_total(counter, model.name, "trace")
                 - before[counter] for counter in self.COUNTERS},
                model.protection_stats()["rerandomizations"])

    def test_fired_skl_spans_prepare_more_than_they_replay(self):
        # 33 fires: after each, the next span covers max(floor, 2 x
        # executed) branches, so the discarded tails stay bounded.  Every
        # span is shorter than _KERNEL_MIN_BRANCHES, so the per-branch loop
        # replays them all.
        deltas, fires = self._deltas(ModelSpec.of("ST_SKLCond", r=5e-05))
        assert fires == 33
        assert deltas == {"spans": 36, "branches": 4_006,
                          "prepared_branches": 9_021, "loop_branches": 4_006}

    @staticmethod
    def _crossover_replay(records):
        """Replay ``records`` through ``ST_SKLCond`` on both backends;
        return the branches the vector backend's loop replayed, once its
        stats and composite state match the reference's."""
        trace = Trace(items=records, name="crossover")
        results = {}
        for backend in BACKENDS:
            with fastpath.forced_backend(backend):
                before = _replay_total("loop_branches", "ST_SKLCond", "trace")
                model = make_stbpu_skl(seed=5)
                results[backend] = (
                    TraceSimulator(warmup_branches=100).run(model, trace).stats,
                    _composite_state(model.inner))
                looped = _replay_total("loop_branches", "ST_SKLCond",
                                       "trace") - before
        assert results["reference"] == results["vector"]
        return looped

    @staticmethod
    def _apache2_records(count):
        from repro.engine import trace_for

        return [item for item in trace_for("apache2_prefork_c128", 4_000, 7)
                if isinstance(item, BranchRecord)][:count]

    @pytest.mark.parametrize("short", [True, False])
    def test_replays_below_the_kernel_minimum_use_the_loop(self, short):
        # Both sides of the crossover, on branches moved into one user
        # context so that no token install cuts the replay's one span: one
        # branch short of _KERNEL_MIN_BRANCHES it replays in the per-branch
        # loop, at it in the array kernel.
        length = vector._KERNEL_MIN_BRANCHES - (1 if short else 0)
        records = [BranchRecord(ip=record.ip, target=record.target,
                                taken=record.taken,
                                branch_type=record.branch_type)
                   for record in self._apache2_records(length)]
        assert self._crossover_replay(records) == (length if short else 0)

    def test_spans_cut_at_token_installs_use_the_loop(self):
        # The crossover applies per span: in their own contexts the same
        # branches are cut at token installs into spans each shorter than
        # _KERNEL_MIN_BRANCHES, so the loop replays every one of them.
        length = vector._KERNEL_MIN_BRANCHES
        assert self._crossover_replay(self._apache2_records(length)) == length

    def test_short_flushing_replays_take_the_kernel_in_one_span(self):
        # A closed-form stepper replays flushes as epochs, so a flushing
        # replay under _KERNEL_MIN_BRANCHES is one array-kernel span; the
        # per-branch loop, which replays no flush, never sees it.  These
        # 2,000 branches flush six times, at context switches and kernel
        # entries.
        from repro.bpu.protections import make_ucode_protection_1
        from repro.engine import trace_for

        trace = trace_for("apache2_prefork_c128", 2_000, 7)
        assert sum(isinstance(item, BranchRecord) for item in trace) \
            < vector._KERNEL_MIN_BRANCHES
        results = {}
        for backend in BACKENDS:
            with fastpath.forced_backend(backend):
                before = {counter: _replay_total(
                    counter, "ucode_protection_1", "trace")
                    for counter in ("spans", "loop_branches")}
                model = make_ucode_protection_1()
                stats = TraceSimulator(warmup_branches=200).run(
                    model, trace).stats
                results[backend] = (stats, model.protection_stats(),
                                    _composite_state(model.inner))
                deltas = {counter: _replay_total(
                    counter, "ucode_protection_1", "trace") - before[counter]
                    for counter in before}
        assert results["reference"] == results["vector"]
        assert results["vector"][1]["flushes"] == 6
        assert deltas == {"spans": 1, "loop_branches": 0}

    def test_short_watched_perceptron_spans_replay_in_the_loop(self):
        # The perceptron's row rounds commit any executed prefix, so a
        # monitored span is cut at its fire like an SKL one: 23 fires, and
        # every span is shorter than _KERNEL_MIN_BRANCHES, so the per-branch
        # loop replays them all.
        deltas, fires = self._deltas(ModelSpec.of("ST_PerceptronBP", r=5e-05))
        assert fires == 23
        assert deltas == {"spans": 28, "branches": 4_006,
                          "prepared_branches": 8_679, "loop_branches": 4_006}

    def test_watched_tage_spans_replay_in_the_loop(self):
        # A guarded stepper under a monitor steps branch by branch, fire or
        # not: every branch goes through the loop.
        deltas, fires = self._deltas(ModelSpec("ST_TAGE_SC_L_8KB"))
        assert fires == 0
        assert deltas == {"spans": 2, "branches": 4_006,
                          "prepared_branches": 4_006, "loop_branches": 4_006}


def _counter_scan_cases():
    """``(indices, entries, epoch)`` inputs for the counter-scan walk."""
    rng = np.random.default_rng(3)
    for _ in range(5):
        yield rng.integers(0, 17, size=int(rng.integers(1, 200))), 17, 0
    # Same-index runs on both sides of 2^k boundaries: each needs exactly
    # the Hillis-Steele passes whose shift stays below its length.
    for run in (2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 65, 129):
        yield rng.permutation(np.concatenate(
            [np.full(run, 5), rng.integers(6, 17, size=9)])), 17, 0
    # Epoch keys over a flushed table reach past 65,535: the stable order
    # takes a second 16-bit digit.
    epochs = np.sort(rng.integers(0, 6, size=400))
    yield rng.integers(0, 12, size=400) + epochs * 16_384, 16_384, 5
    yield np.array([4]), 17, 0


class TestVectorKernels:
    def test_counter_scan_matches_naive_walk(self):
        rng = np.random.default_rng(5)
        for indices, entries, epoch in _counter_scan_cases():
            indices = indices.astype(np.int64)
            count = indices.shape[0]
            takens = rng.integers(0, 2, size=count).astype(bool)
            table = rng.integers(0, 4, size=entries).astype(np.uint8)
            maps = np.where(takens, np.uint8(vector.MAP_INCREMENT),
                            np.uint8(vector.MAP_DECREMENT))
            # A key past the table addresses a flushed copy of it.
            initial = table.tolist()
            counters = {}
            expected_pre = []
            for key, taken in zip(indices.tolist(), takens.tolist()):
                value = counters.get(key, initial[key] if key < entries
                                     else vector.FLUSHED_COUNTER)
                expected_pre.append(value)
                counters[key] = (min(3, value + 1) if taken
                                 else max(0, value - 1))
            pre, scan, _ = vector._scan_counters(indices, maps, table)
            # Commit scatters the last epoch's counters into the flushed
            # table.
            committed = table.copy()
            if epoch:
                committed.fill(vector.FLUSHED_COUNTER)
            expected_table = committed.tolist()
            for key, value in counters.items():
                if key // entries == epoch:
                    expected_table[key % entries] = value
            scan.commit(committed, epoch=epoch)
            assert pre.tolist() == expected_pre, (count, entries)
            assert committed.tolist() == expected_table, (count, entries)

    @settings(max_examples=200, deadline=None)
    @given(keys=st.sampled_from([16, 32, 62]).flatmap(
        lambda bits: st.lists(st.integers(0, (1 << bits) - 1), max_size=120)
        .map(lambda drawn: drawn + drawn[1::3])))
    def test_stable_order_matches_stable_argsort(self, keys):
        keys = np.asarray(keys, dtype=np.int64)
        assert vector._stable_order(keys).tolist() \
            == np.argsort(keys, kind="stable").tolist()

    def test_counter_scan_prefix_commit(self):
        indices = np.array([4, 4, 9, 4, 9], dtype=np.int64)
        maps = np.full(5, vector.MAP_INCREMENT, dtype=np.uint8)
        table = np.zeros(16, dtype=np.uint8)
        _, scan, _ = vector._scan_counters(indices, maps, table)
        scan.commit(table, upto=3)  # only the first three accesses executed
        assert table[4] == 2 and table[9] == 1

    def test_ghr_window_matches_shift_register(self):
        rng = np.random.default_rng(11)
        bits = 7
        outcomes = rng.integers(0, 2, size=50).astype(np.uint64)
        seed = 0b1011001
        values = vector._ghr_window(outcomes, seed, bits)
        register = seed
        for position, outcome in enumerate(outcomes.tolist()):
            assert values[position] == register
            assert vector._ghr_commit(seed, outcomes[:position].tolist(),
                                      bits) == register
            register = ((register << 1) | outcome) & ((1 << bits) - 1)
        assert vector._ghr_commit(seed, outcomes.tolist(), bits) == register

    def test_bhb_states_match_shift_register(self):
        rng = np.random.default_rng(17)
        bits = 58
        mixed = rng.integers(0, 1 << 23, size=80).astype(np.uint64)
        seed = int(rng.integers(0, 1 << 58))
        states = vector._bhb_states(mixed, seed, bits)
        mask = (1 << bits) - 1
        register = seed
        assert states[0] == register & mask
        for position, value in enumerate(mixed.tolist()):
            register = (((register << 2) & mask) ^ value) & mask
            assert states[position + 1] == register

    def test_fold_bits_array_matches_scalar(self):
        rng = np.random.default_rng(23)
        values = rng.integers(0, 1 << 58, size=64).astype(np.uint64)
        for input_bits, output_bits in ((32, 14), (58, 8), (48, 9), (8, 14)):
            folded = fold_bits_array(values, input_bits, output_bits)
            for raw, out in zip(values.tolist(), folded.tolist()):
                assert out == fold_bits(raw, input_bits, output_bits)

    def test_keyed_remap_array_matches_scalar(self):
        rng = np.random.default_rng(29)
        ips = rng.integers(0, 1 << 48, size=32).astype(np.uint64)
        bhbs = rng.integers(0, 1 << 58, size=32).astype(np.uint64)
        psi = 0xDEADBEEF
        out = keyed_remap_array(psi, ips, bhbs, output_bits=14, domain=4)
        for ip, bhb, digest in zip(ips.tolist(), bhbs.tolist(), out.tolist()):
            assert digest == keyed_remap(psi, ip, bhb, output_bits=14, domain=4)
        # A ψ column keys each element with its own token half.
        psis = rng.integers(0, 1 << 32, size=32).astype(np.uint64)
        out = keyed_remap_array(psis, ips, bhbs, output_bits=14, domain=4)
        for key, ip, bhb, digest in zip(psis.tolist(), ips.tolist(),
                                        bhbs.tolist(), out.tolist()):
            assert digest == keyed_remap(key, ip, bhb, output_bits=14, domain=4)

    @pytest.mark.parametrize("width,history,count", [
        (11, 130, 40),     # short span: 2-D gather path
        (8, 3, 25),        # history shorter than the register
        (13, 640, 3_000),  # long span: per-plane slice path
        (1, 27, 80),       # degenerate single-bit register
    ])
    def test_fold_values_matches_incremental_fold(self, width, history, count):
        rng = np.random.default_rng(41)
        carried = [bool(b) for b in rng.integers(0, 2, size=137)]
        span = [bool(b) for b in rng.integers(0, 2, size=count)]
        pad = history + width + 8
        extended = np.zeros(pad + len(carried) + count, dtype=np.int64)
        extended[pad:pad + len(carried)] = carried
        extended[pad + len(carried):] = span
        parity = vector._strided_parity(extended, width)
        values = vector._fold_values(parity, pad, len(carried), count + 1,
                                     history, width)
        for position in range(count + 1):
            # The register the scalar fold holds when predicting span
            # outcome `position` (after the span, at `count`): everything
            # earlier has been absorbed.
            expected = _fold_register_value(
                carried + span[:position], history, width)
            assert int(values[position]) == expected, position

    def test_tage_map_kernels_match_scalar_and_batch(self):
        from repro.bpu.common import StructureSizes
        from repro.bpu.mapping import BaselineMappingProvider
        from repro.core.remapping import STMappingProvider
        from repro.core.secret_token import SecretToken

        rng = np.random.default_rng(43)
        count, index_bits, tag_bits = 48, 10, 12
        ips = rng.integers(0, 1 << 48, size=count).astype(np.uint64)
        folded = rng.integers(0, 1 << index_bits, size=count).astype(np.uint64)
        tables = (1, 2, 5)
        providers = [
            BaselineMappingProvider(StructureSizes()),
            STMappingProvider(SecretToken(0xA5A5_1234_DEAD_BEEF)),
        ]
        for provider in providers:
            maps = provider.vector_maps()
            per_table_idx, per_table_tag = [], []
            for table in tables:
                idx = maps.tage_indices(ips, folded, table, index_bits)
                tag = maps.tage_tags(ips, folded, table, tag_bits)
                per_table_idx.append(idx)
                per_table_tag.append(tag)
                for position in range(count):
                    assert int(idx[position]) == provider.tage_index(
                        int(ips[position]), int(folded[position]), table,
                        index_bits)
                    assert int(tag[position]) == provider.tage_tag(
                        int(ips[position]), int(folded[position]), table,
                        tag_bits)
            # Array-table batching: one concatenated call per output width
            # must reproduce the per-table calls exactly.
            batched_ips = np.concatenate([ips] * len(tables))
            batched_folded = np.concatenate([folded] * len(tables))
            batched_tables = np.repeat(
                np.asarray(tables, dtype=np.uint64), count)
            batched_idx = maps.tage_indices(
                batched_ips, batched_folded, batched_tables, index_bits)
            batched_tag = maps.tage_tags(
                batched_ips, batched_folded, batched_tables, tag_bits)
            assert batched_idx.tolist() == np.concatenate(per_table_idx).tolist()
            assert batched_tag.tolist() == np.concatenate(per_table_tag).tolist()

    def test_perceptron_rows_match_scalar(self):
        from repro.bpu.common import StructureSizes
        from repro.bpu.mapping import BaselineMappingProvider
        from repro.core.remapping import STMappingProvider
        from repro.core.secret_token import SecretToken

        rng = np.random.default_rng(47)
        ips = rng.integers(0, 1 << 48, size=64).astype(np.uint64)
        table_size = 1_097  # non-power-of-two exercises the modulo
        for provider in (BaselineMappingProvider(StructureSizes()),
                         STMappingProvider(SecretToken(0x0123_4567_89AB_CDEF))):
            rows = provider.vector_maps().perceptron_rows(ips, table_size)
            for position in range(ips.shape[0]):
                assert int(rows[position]) == provider.perceptron_index(
                    int(ips[position]), table_size)

    def test_outcome_trim_emulation(self):
        from repro.sim.vector import _extend_outcomes

        for existing_len, appended_len in ((0, 10), (100, 1300), (1280, 1),
                                           (1280, 2), (0, 1281), (0, 5000),
                                           (500, 2000)):
            reference = [True] * existing_len
            emulated = list(reference)
            appended = [bool(i % 3) for i in range(appended_len)]
            for outcome in appended:  # the scalar deferred-trim rule
                reference.append(outcome)
                if len(reference) > 1024 + 256:
                    del reference[: len(reference) - 1024]
            _extend_outcomes(emulated, appended, 1024)
            assert emulated == reference, (existing_len, appended_len)


class TestTraceArrays:
    def test_arrays_cached_and_decoded(self):
        from repro.engine import trace_for

        trace = trace_for("505.mcf", 1_000, 3)
        columns = trace.columns()
        arrays = columns.arrays()
        assert arrays is columns.arrays()  # cached
        branches = columns.branches
        assert arrays.ips.dtype == np.uint64
        assert arrays.ips.shape[0] == len(branches)
        assert arrays.takens.tolist() == [b.taken for b in branches]
        assert (arrays.types == 0).tolist() == [
            b.branch_type is BranchType.CONDITIONAL for b in branches]
