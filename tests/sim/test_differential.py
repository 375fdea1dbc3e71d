"""Randomized differential harness: ``vector`` against ``reference``.

Hypothesis builds small random traces — random branch types, ips from a
small pool so entries collide, contexts 0–3 with kernel-mode branches, and
random context-switch, mode-switch and interrupt events for contexts 0–5, so
events also install tokens for contexts no branch uses.  One property
replays a single trace through every kernel class — plain, flushing and
conservative SKL composites, TAGE and Perceptron composites bare and under
flushing protection, a TAGE with 16- and 32-entry tables whose allocations
collide, and the three STBPU factories — under random warm-ups
(negative ones included), monitor thresholds, token-sharing groups,
guarded-stepper span caps, floors of the adaptive cap that monitored
spans take after a fire and replay lengths below which the per-branch loop
replays the BTB and RSB (so both that loop and the array kernel run) and
active-row counts below which perceptron rows walk instead of replaying in
rounds (so rounds only, walks only and both run), on a small BTB of drawn
geometry (2, 4 or 16 sets of 1–3 ways) so evictions feed the monitors, a
PHT of 16, 100, 1000 or 1024 entries and a perceptron of 1–16 rows,
histories of 1–8 outcomes and 2–4 weight bits, so rows repeat dozens of
times per trace and weights saturate, then replays a second trace through
the same models, so each kernel also adopts a populated BTB, BTB index and
predictor tables.
Another co-runs trace pairs through the STBPU factories under random
scheduling quanta, warm-ups, monitor thresholds (with and without the
direction register), token-sharing groups, cap floors, loop crossovers and
active-row counts, on structure sizes drawn the same way (and an RSB of 1–4
entries).  Both backends must agree on
the stats and protection stats and on the complete post-replay state:
predictor tables, BTB, RSB and its overflow and underflow counts, histories
and the token machinery.  A third property pins the columnar SMT merge to
the record-by-record one it replaces on the vector path.
"""

import dataclasses
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bpu.common import StructureSizes
from repro.bpu.protections import (
    FlushingProtectedBPU,
    make_conservative,
    make_ucode_protection_1,
    make_ucode_protection_2,
    make_unprotected_baseline,
)
from repro.bpu.perceptron import PerceptronConfig, PerceptronPredictor
from repro.bpu.tage import TAGE_SC_L_8KB, TAGEConfig, TAGEPredictor
from repro.core.monitoring import MonitorConfig
from repro.core.stbpu import (
    make_stbpu_perceptron,
    make_stbpu_skl,
    make_stbpu_tage,
    make_unprotected_perceptron,
    make_unprotected_tage,
)
from repro.sim import fastpath, vector
from repro.sim.bpu_sim import TraceSimulator
from repro.sim.config import SimulationLengths
from repro.sim.smt import SMTSimulator
from repro.trace.branch import (
    BranchRecord,
    BranchType,
    EventKind,
    PrivilegeMode,
    Trace,
    TraceEvent,
    merge_columns_round_robin,
    merge_round_robin,
)
from test_vector_parity import (
    _composite_state,
    _perceptron_state,
    _tage_state,
    _token_state,
)

THREAD_OFFSET = 1000

_IPS = [0x40_0000 + 0x40 * slot for slot in range(12)]
_TARGETS = [0x7F_0000 + 0x100 * slot for slot in range(6)] + [ip + 4 for ip in _IPS[:6]]

#: The STBPU factories; each takes the drawn perceptron configuration,
#: which only ``ST_PerceptronBP`` uses.
FACTORIES = {
    "ST_SKLCond": lambda perceptron, **kwargs: make_stbpu_skl(**kwargs),
    "ST_TAGE_SC_L_8KB": lambda perceptron, **kwargs: make_stbpu_tage(
        TAGE_SC_L_8KB, **kwargs),
    "ST_PerceptronBP": lambda perceptron, **kwargs: make_stbpu_perceptron(
        perceptron, **kwargs),
}


@st.composite
def _items(draw):
    """One trace item: mostly branches, sometimes an OS event."""
    if draw(st.integers(0, 9)) == 0:
        kind = draw(st.sampled_from(list(EventKind)))
        return TraceEvent(kind, draw(st.integers(0, 5)))
    branch_type = draw(st.sampled_from(list(BranchType)))
    ip = draw(st.sampled_from(_IPS))
    conditional = branch_type is BranchType.CONDITIONAL
    taken = draw(st.booleans()) if conditional else True
    target = draw(st.sampled_from(_TARGETS)) if taken else ip + 4
    kernel = draw(st.integers(0, 4)) == 0
    return BranchRecord(
        ip=ip, target=target, taken=taken, branch_type=branch_type,
        context_id=draw(st.integers(0, 3)),
        mode=PrivilegeMode.KERNEL if kernel else PrivilegeMode.USER)


def _traces(name, min_size=0, max_size=90):
    return st.lists(_items(), min_size=min_size, max_size=max_size).map(
        lambda items: Trace(items=items, name=name))


@st.composite
def _monitors(draw):
    mispredictions = draw(st.integers(1, 40))
    evictions = draw(st.integers(1, 40))
    direction = draw(st.one_of(st.none(), st.integers(1, 40)))
    return MonitorConfig(mispredictions, evictions, direction)


_GROUPS = st.one_of(
    st.none(),
    st.sets(st.sampled_from([-1, 0, 1, 2, 3, 4, 5, THREAD_OFFSET,
                             THREAD_OFFSET + 1]),
            min_size=2).map(lambda members: {context: "shared"
                                             for context in members}))


#: ``_KERNEL_MIN_BRANCHES`` values: the random traces are far shorter than
#: the shipped one, so 0 sends them through the array kernel and the
#: largest through the per-branch loop.
_KERNEL_MINIMA = st.sampled_from([0, 120, 1 << 30])

#: A perceptron small enough that rows repeat dozens of times per trace:
#: rounds run deep, weights of 2–4 bits saturate at both limits and flush
#: epochs reuse rows.
_PERCEPTRONS = st.builds(PerceptronConfig, table_size=st.integers(1, 16),
                         history_length=st.integers(1, 8),
                         weight_bits=st.integers(2, 4))

#: ``_ROUND_MIN_ROWS`` values: 0 replays every perceptron span in rounds
#: only, the largest walks every row, and the rest switch between them.
_ROUND_MINIMA = st.sampled_from([0, 1, 2, 8, 1 << 30])

#: PHT sizes the mappings accept, small and not powers of two among them,
#: so same-index counter runs grow long.
_PHT_ENTRIES = st.sampled_from([16, 100, 1000, 1024])


def _unprotected(perceptron):
    """``perceptron`` for the baseline mapping, which folds a row index to
    ``(rows - 1).bit_length()`` bits and so needs two rows or more."""
    return dataclasses.replace(perceptron,
                               table_size=max(2, perceptron.table_size))


def _direction_state(direction):
    if isinstance(direction, TAGEPredictor):
        return _tage_state(direction)
    if isinstance(direction, PerceptronPredictor):
        return _perceptron_state(direction)
    return (bytes(direction.one_level._values),
            bytes(direction.two_level._values),
            bytes(direction.chooser._values))


#: A TAGE small enough for the random traces to collide in: short
#: histories make tagged hits common, allocations overwrite live entries
#: (about a third of them), so the hit-bit repair chain runs on rewritten
#: columns, and the short reset period halves usefulness inside spans.
SMALL_TAGE = TAGEConfig(
    name="TAGE_small", bimodal_entries=64,
    tagged_table_entries=(16, 32, 16, 32), tag_bits=(5, 6, 7, 8),
    history_lengths=(1, 3, 6, 12), loop_entries=8, sc_table_entries=32,
    useful_reset_period=16)

#: Factories over the drawn small sizes and perceptron, called with the
#: keywords ``sizes``, ``perceptron``, ``monitor``, ``seed`` and ``groups``;
#: the plain SKL composite's PHT is not a power of two, which the kernels
#: wrap.
SINGLE_MODELS = {
    "baseline": lambda sizes, **_: make_unprotected_baseline(
        dataclasses.replace(sizes, pht_entries=1000)),
    "ucode_protection_1": lambda sizes, **_: make_ucode_protection_1(sizes),
    "ucode_protection_2": lambda sizes, **_: make_ucode_protection_2(sizes),
    "conservative": lambda sizes, **_: make_conservative(sizes),
    "TAGE_SC_L_8KB": lambda sizes, **_: make_unprotected_tage(
        TAGE_SC_L_8KB, sizes),
    "TAGE_small": lambda sizes, **_: make_unprotected_tage(SMALL_TAGE, sizes),
    "PerceptronBP": lambda sizes, perceptron, **_: make_unprotected_perceptron(
        _unprotected(perceptron), sizes),
    "flushing_TAGE_SC_L_8KB": lambda sizes, **_: FlushingProtectedBPU(
        make_unprotected_tage(TAGE_SC_L_8KB, sizes), "flushing_TAGE_SC_L_8KB"),
    "flushing_PerceptronBP": lambda sizes, perceptron, **_: FlushingProtectedBPU(
        make_unprotected_perceptron(_unprotected(perceptron), sizes),
        "flushing_PerceptronBP"),
    **{name: (lambda sizes, perceptron, monitor, seed, groups,
               factory=factory: factory(
        perceptron, sizes=sizes, monitor_config=monitor, seed=seed,
        shared_token_groups=groups))
       for name, factory in FACTORIES.items()},
}


def _wrapper_state(model):
    """What a protection wrapper keeps outside the composite."""
    if hasattr(model, "_context_tokens"):
        return _token_state(model)
    if hasattr(model, "_mapping"):
        return model._mapping.current_context
    return getattr(model, "_current_context", None)


def _snapshot(model, stats):
    """A replay's stats and post-replay state, labelled part by part."""
    inner = getattr(model, "inner", model)
    return {"stats": stats, "protection": model.protection_stats(),
            "wrapper": _wrapper_state(model),
            "composite": _composite_state(inner),
            "direction": _direction_state(inner.direction)}


def _diverged(replay):
    """Run ``replay()`` on each backend; return the labels of the snapshot
    parts on which they disagree.

    Only labels leave this frame.  A diff of whole predictor tables would
    dominate every Hypothesis shrink step, and a failing example keeps the
    frame that raised alive.
    """
    snapshots = {}
    for backend in ("reference", "vector"):
        with fastpath.forced_backend(backend):
            snapshots[backend] = replay()
    reference, vector_ = snapshots["reference"], snapshots["vector"]
    return sorted(label for label in reference
                  if reference[label] != vector_[label])


@settings(max_examples=80, deadline=None)
@given(trace=_traces("t", min_size=20, max_size=200), second=_traces("u"),
       warmup=st.integers(-3, 30),
       monitors=st.fixed_dictionaries({name: _monitors() for name in FACTORIES}),
       groups=st.fixed_dictionaries({name: _GROUPS for name in FACTORIES}),
       seed=st.integers(0, 7), span_limit=st.integers(1, 64),
       cap_floor=st.integers(1, 64), kernel_min=_KERNEL_MINIMA,
       btb_sets=st.sampled_from([2, 4, 16]), btb_ways=st.integers(1, 3),
       pht_entries=_PHT_ENTRIES, perceptron=_PERCEPTRONS,
       round_min=_ROUND_MINIMA)
def test_single_trace_reference_equals_vector(trace, second, warmup, monitors,
                                              groups, seed, span_limit,
                                              cap_floor, kernel_min, btb_sets,
                                              btb_ways, pht_entries,
                                              perceptron, round_min):
    # A BTB small enough for the random traces to evict, and small PHTs.  A
    # 1-set BTB is not drawn: its mapping would fold to 0 index bits, which
    # ``fold_bits`` refuses.
    sizes = StructureSizes(btb_sets=btb_sets, btb_ways=btb_ways,
                           pht_entries=pht_entries, rsb_entries=4)

    def replay():
        parts = {}
        for name, factory in SINGLE_MODELS.items():
            model = factory(sizes=sizes, perceptron=perceptron,
                            monitor=monitors.get(name), seed=seed,
                            groups=groups.get(name))
            simulator = TraceSimulator(warmup_branches=warmup)
            stats = [simulator.run(model, replayed).stats
                     for replayed in (trace, second)]
            for part, value in _snapshot(model, stats).items():
                parts[name, part] = value
        return parts

    with mock.patch.object(vector, "_STEPPER_SPAN_LIMIT", span_limit), \
            mock.patch.object(vector, "_MONITOR_CAP_FLOOR", cap_floor), \
            mock.patch.object(vector, "_KERNEL_MIN_BRANCHES", kernel_min), \
            mock.patch.object(vector, "_ROUND_MIN_ROWS", round_min):
        assert _diverged(replay) == []


def _shifted(trace, offset):
    """``trace`` with every record and event moved ``offset`` contexts up."""
    shifted = Trace(name=trace.name)
    for item in trace:
        if isinstance(item, BranchRecord):
            shifted.append(item.with_context(item.context_id + offset))
        else:
            shifted.append(TraceEvent(item.kind, item.context_id + offset))
    return shifted


@settings(max_examples=30, deadline=None)
@given(trace_a=_traces("a"), trace_b=_traces("b"),
       quantum=st.integers(1, 40), warmup=st.integers(-3, 30),
       monitor=_monitors(), groups=_GROUPS,
       model_name=st.sampled_from(sorted(FACTORIES)), seed=st.integers(0, 7),
       cap_floor=st.integers(1, 64), kernel_min=_KERNEL_MINIMA,
       btb_sets=st.sampled_from([2, 4, 16]), btb_ways=st.integers(1, 3),
       rsb_entries=st.integers(1, 4), pht_entries=_PHT_ENTRIES,
       perceptron=_PERCEPTRONS, round_min=_ROUND_MINIMA)
def test_smt_corun_reference_equals_vector(trace_a, trace_b, quantum, warmup,
                                           monitor, groups, model_name, seed,
                                           cap_floor, kernel_min, btb_sets,
                                           btb_ways, rsb_entries, pht_entries,
                                           perceptron, round_min):
    # Sizes drawn as in the single-trace property, so co-runs evict,
    # overflow and underflow too.
    sizes = StructureSizes(btb_sets=btb_sets, btb_ways=btb_ways,
                           pht_entries=pht_entries, rsb_entries=rsb_entries)

    def replay():
        model = FACTORIES[model_name](perceptron, sizes=sizes,
                                      monitor_config=monitor, seed=seed,
                                      shared_token_groups=groups)
        simulator = SMTSimulator(
            lengths=SimulationLengths(warmup_branches=warmup), quantum=quantum)
        result = simulator.run(model, trace_a, trace_b,
                               thread_offset=THREAD_OFFSET)
        return _snapshot(model, result.thread_stats)

    with mock.patch.object(vector, "_MONITOR_CAP_FLOOR", cap_floor), \
            mock.patch.object(vector, "_KERNEL_MIN_BRANCHES", kernel_min), \
            mock.patch.object(vector, "_ROUND_MIN_ROWS", round_min):
        assert _diverged(replay) == []


@settings(max_examples=30, deadline=None)
@given(trace_a=_traces("a"), trace_b=_traces("b"), quantum=st.integers(1, 40),
       offset=st.integers(0, 2_000))
def test_columnar_merge_equals_record_merge(trace_a, trace_b, quantum, offset):
    merged = merge_columns_round_robin(trace_a, trace_b, quantum=quantum,
                                       context_offset=offset, name="a+b")
    expected = merge_round_robin([trace_a, _shifted(trace_b, offset)],
                                 quantum=quantum, name="a+b").columns()
    assert merged.name == "a+b"
    assert merged.segments == expected.segments
    got, want = merged.arrays(), expected.arrays()
    for field in ("ips", "targets", "takens", "types", "context_ids",
                  "kernel_modes"):
        column, reference = getattr(got, field), getattr(want, field)
        assert column.dtype == reference.dtype, field
        assert column.tolist() == reference.tolist(), field
