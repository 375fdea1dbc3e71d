"""Tests for the synthetic trace generator."""

import dataclasses
import gc
import hashlib
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.trace.branch import BranchRecord, BranchType, EventKind, PrivilegeMode
from repro.trace.synthetic import SyntheticTraceGenerator, _randbelow, generate_trace
from repro.trace.workloads import get_workload, list_workloads

#: First 16 hex digits of :func:`_trace_digest` per ``(workload, seed,
#: branch_count)``, as drawn through the stdlib ``random`` calls the
#: generator mirrors.  A changed digest changes every figure's numbers.
GOLDEN_DIGESTS = {
    ("500.perlbench", 7, 2_000): "8df2835e852828b6",
    ("502.gcc", 7, 2_000): "188483b0340979df",
    ("503.bwaves", 7, 2_000): "5b756a557eb99f08",
    ("505.mcf", 7, 2_000): "e7717782945d7373",
    ("507.cactuBSSN", 7, 2_000): "589e3a416c6723ae",
    ("508.namd", 7, 2_000): "66499dcf1b7f5f69",
    ("510.parest", 7, 2_000): "ab0863a8b2e3e46d",
    ("511.povray", 7, 2_000): "f8a3b79ff7e45812",
    ("519.lbm", 7, 2_000): "b11e6cc1fede218d",
    ("520.omnetpp", 7, 2_000): "f91f294bcb55d5c8",
    ("521.wrf", 7, 2_000): "259409fce5ed7faa",
    ("523.xalancbmk", 7, 2_000): "bcb8810a0059084f",
    ("525.x264", 7, 2_000): "f0bb86df2fb0de29",
    ("526.blender", 7, 2_000): "57dd76b620260b0b",
    ("527.cam4", 7, 2_000): "663a7334ed367344",
    ("531.deepsjeng", 7, 2_000): "7d0552657c624a78",
    ("538.imagick", 7, 2_000): "bc5c7fea941e890f",
    ("541.leela", 7, 2_000): "20908a3c7737d630",
    ("544.nab", 7, 2_000): "c1b35b8c503f9998",
    ("548.exchange2", 7, 2_000): "7ab071dd0aa5a9b7",
    ("549.fotonik3d", 7, 2_000): "76b66c1abdc3f16d",
    ("554.roms", 7, 2_000): "f2a0009ed53499b0",
    ("557.xz", 7, 2_000): "ca80a22408d97afa",
    ("apache2_prefork_c128", 7, 2_000): "ee2e31f3a243f0f7",
    ("apache2_prefork_c256", 7, 2_000): "29393509a3e4f3f4",
    ("apache2_prefork_c32", 7, 2_000): "a189790035ee3056",
    ("apache2_prefork_c512", 7, 2_000): "c0e0cbe26396960c",
    ("apache2_prefork_c64", 7, 2_000): "2e48dbe9f5a501e2",
    ("chrome-1je_1mo_1sp", 7, 2_000): "9c27e41d70160d03",
    ("chrome-1jetstream", 7, 2_000): "336c63ee523102ee",
    ("chrome-1motionmark", 7, 2_000): "b2e0fb8ab388c874",
    ("chrome-1speedometer", 7, 2_000): "88b5cf4f96162f1f",
    ("mysql_128con_50s", 7, 2_000): "ee473dc2a684053a",
    ("mysql_256con_50s", 7, 2_000): "5e7d1d54768dd6a9",
    ("mysql_32con_50s", 7, 2_000): "5fa30dff6b1b24c5",
    ("mysql_64con_50s", 7, 2_000): "a6d220bafcfbf438",
    ("obsstudio_30s", 7, 2_000): "d45a371f2e485b04",
    ("505.mcf", 7, 20_000): "adf2d416e91936e4",
    ("505.mcf", 12345, 1): "c2030a7452ad2357",
    ("apache2_prefork_c64", 7, 20_000): "286aba37287c5641",
    ("apache2_prefork_c64", 12345, 1): "0810fd5fb79bc9cc",
    ("chrome-1jetstream", 7, 20_000): "38c5f671df2cd6c1",
    ("chrome-1jetstream", 12345, 1): "c799b49621c16c7d",
}

#: Generator branches no built-in workload reaches, pinned like
#: :data:`GOLDEN_DIGESTS` at seed 7 and 2,000 branches.  Each recipe is a
#: built-in profile renamed to the recipe (which re-seeds it) with the
#: changed fields: random indirect targets, empty call bodies, no OS events.
RECIPES = {
    "uncorrelated": ("523.xalancbmk", {"indirect_history_correlated": False}),
    "no-conditionals": ("505.mcf", {"static_conditional_sites": 0}),
    "quiet": ("apache2_prefork_c32", {"context_switch_interval": 0,
                                      "syscall_interval": 0,
                                      "interrupt_interval": 0}),
}
RECIPE_DIGESTS = {
    "uncorrelated": "9b00d2d2f91f29eb",
    "no-conditionals": "62f702c968154301",
    "quiet": "01712d4b8119830f",
}


def _recipe_trace(recipe: str):
    workload, changes = RECIPES[recipe]
    profile = dataclasses.replace(get_workload(workload), name=recipe, **changes)
    return generate_trace(profile, seed=7, branch_count=2_000)


def _trace_digest(trace) -> str:
    """SHA-256 over the name and every field of every record and event, in order."""
    digest = hashlib.sha256(trace.name.encode())
    for item in trace:
        if isinstance(item, BranchRecord):
            digest.update(f"B{item.ip:x},{item.target:x},{item.taken:d},"
                          f"{item.branch_type.value},{item.context_id},"
                          f"{item.mode.value};".encode())
        else:
            digest.update(f"E{item.kind.value},{item.context_id};".encode())
    return digest.hexdigest()[:16]


class TestDeterminism:
    def test_same_seed_same_trace(self):
        a = generate_trace("505.mcf", seed=5, branch_count=1_500)
        b = generate_trace("505.mcf", seed=5, branch_count=1_500)
        assert len(a) == len(b)
        for x, y in zip(a.branches(), b.branches()):
            assert (x.ip, x.target, x.taken, x.branch_type) == (y.ip, y.target, y.taken, y.branch_type)

    def test_different_seeds_differ(self):
        a = generate_trace("505.mcf", seed=1, branch_count=1_500)
        b = generate_trace("505.mcf", seed=2, branch_count=1_500)
        pairs = list(zip(a.branches(), b.branches()))
        assert any(x.taken != y.taken or x.ip != y.ip for x, y in pairs)


class TestTraceShape:
    def test_branch_count_close_to_requested(self):
        trace = generate_trace("503.bwaves", seed=0, branch_count=3_000)
        assert 3_000 <= trace.branch_count <= 3_400

    def test_contains_all_major_branch_types(self, small_mcf_trace):
        types = {branch.branch_type for branch in small_mcf_trace.branches()}
        assert BranchType.CONDITIONAL in types
        assert BranchType.DIRECT_CALL in types
        assert BranchType.RETURN in types
        assert BranchType.INDIRECT_JUMP in types or BranchType.INDIRECT_CALL in types

    def test_taken_fraction_is_realistic(self, small_mcf_trace):
        assert 0.5 < small_mcf_trace.taken_fraction() < 0.85

    def test_kernel_branches_present_after_syscalls(self, small_apache_trace):
        kernel = [b for b in small_apache_trace.branches() if b.mode is PrivilegeMode.KERNEL]
        assert kernel, "application workloads must include kernel-mode branches"

    def test_multi_context_workload_emits_context_switches(self, small_apache_trace):
        kinds = {event.kind for event in small_apache_trace.events()}
        assert EventKind.CONTEXT_SWITCH in kinds
        assert EventKind.MODE_SWITCH_ENTER_KERNEL in kinds
        user_contexts = {
            b.context_id for b in small_apache_trace.branches()
            if b.mode is PrivilegeMode.USER
        }
        assert len(user_contexts) > 1

    def test_unconditional_branches_are_taken(self, small_mcf_trace):
        for branch in small_mcf_trace.branches():
            if not branch.branch_type.is_conditional:
                assert branch.taken

    def test_conditional_not_taken_targets_are_fall_through(self, small_mcf_trace):
        for branch in small_mcf_trace.branches():
            if branch.branch_type.is_conditional and not branch.taken:
                assert branch.target == branch.ip + 4


class TestGeneratorApi:
    def test_accepts_profile_name_or_object(self):
        from repro.trace.workloads import get_workload
        by_name = SyntheticTraceGenerator("541.leela", seed=3).generate(500)
        by_profile = SyntheticTraceGenerator(get_workload("541.leela"), seed=3).generate(500)
        assert by_name.branch_count == by_profile.branch_count

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            SyntheticTraceGenerator("not-a-workload")

    def test_shared_image_contexts_share_addresses(self):
        trace = generate_trace("apache2_prefork_c64", seed=2, branch_count=6_000)
        per_context: dict[int, set[int]] = {}
        for branch in trace.branches():
            if branch.mode is PrivilegeMode.USER:
                per_context.setdefault(branch.context_id, set()).add(branch.ip)
        contexts = [ips for ips in per_context.values() if len(ips) > 20]
        assert len(contexts) >= 2
        first, second = contexts[0], contexts[1]
        # Prefork workers run the same image, so their branch sites overlap.
        assert first & second


class TestGoldenTraces:
    """Traces are pinned bit for bit, and records are shared values."""

    @pytest.mark.parametrize(("workload", "seed", "branch_count"), list(GOLDEN_DIGESTS))
    def test_trace_matches_golden_digest(self, workload, seed, branch_count):
        trace = generate_trace(workload, seed=seed, branch_count=branch_count)
        assert _trace_digest(trace) == GOLDEN_DIGESTS[workload, seed, branch_count]
        records = list(trace.branches())
        # One object per distinct record value: equal records are the same object.
        assert len({id(record) for record in records}) == len(set(records))

    def test_every_listed_workload_is_pinned(self):
        pinned = {workload for workload, seed, count in GOLDEN_DIGESTS
                  if (seed, count) == (7, 2_000)}
        assert pinned == set(list_workloads())

    @pytest.mark.parametrize("recipe", list(RECIPE_DIGESTS))
    def test_recipe_matches_golden_digest(self, recipe):
        assert _trace_digest(_recipe_trace(recipe)) == RECIPE_DIGESTS[recipe]

    def test_recipes_reach_their_branches(self):
        quiet = _recipe_trace("quiet")
        assert not list(quiet.events())
        assert {b.mode for b in quiet.branches()} == {PrivilegeMode.USER}
        # Call bodies are empty: the only user conditionals are the image's
        # four loop back-edges.
        user = [b for b in _recipe_trace("no-conditionals").branches()
                if b.mode is PrivilegeMode.USER]
        assert any(b.branch_type is BranchType.DIRECT_CALL for b in user)
        assert 0 < len({b.ip for b in user if b.branch_type.is_conditional}) <= 4
        indirect = [b for b in _recipe_trace("uncorrelated").branches()
                    if b.branch_type is BranchType.INDIRECT_JUMP]
        per_site: dict[int, set[int]] = {}
        for branch in indirect:
            per_site.setdefault(branch.ip, set()).add(branch.target)
        assert max(map(len, per_site.values())) > 1


def test_generator_holds_few_tracked_objects():
    """A program image is flat columns: building a generator leaves far fewer
    objects for the garbage collector to walk than it has static sites."""
    profile = get_workload("chrome-1jetstream")
    assert not profile.shared_program_image
    static_sites = profile.co_resident_contexts * (
        profile.static_conditional_sites + profile.static_indirect_sites
        + profile.static_call_sites + profile.static_direct_sites)
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        generator = SyntheticTraceGenerator(profile, seed=7)
        gc.collect()
        tracked = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert generator.profile is profile
    assert tracked < static_sites // 4, (tracked, static_sites)


#: Bounds for the draw helper: any size, plus 1 and powers of two +/- 1,
#: where the rejection loop's word count changes.
_bounds = st.one_of(
    st.integers(min_value=1, max_value=1 << 70),
    st.integers(min_value=0, max_value=70).flatmap(
        lambda power: st.sampled_from(sorted({max(1, (1 << power) - 1), 1 << power,
                                              (1 << power) + 1}))),
)


@given(seed=st.integers(min_value=0, max_value=(1 << 64) - 1), bound=_bounds,
       low=st.integers(min_value=-1_000, max_value=1_000),
       length=st.integers(min_value=1, max_value=64))
def test_randbelow_reproduces_random_draws(seed, bound, low, length):
    """``_randbelow`` returns what ``random.Random`` returns, and consumes the
    same words, for every draw the generator makes."""
    expected, actual = random.Random(seed), random.Random(seed)
    bits = actual.getrandbits
    assert _randbelow(bits, bound) == expected.randrange(bound)
    assert low + _randbelow(bits, bound) == expected.randint(low, low + bound - 1)
    items = list(range(length))
    assert items[_randbelow(bits, length)] == expected.choice(items)
    shuffled = list(items)
    expected.shuffle(items)
    for i in reversed(range(1, length)):
        j = _randbelow(bits, i + 1)
        shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
    assert shuffled == items
    assert actual.getstate() == expected.getstate()
