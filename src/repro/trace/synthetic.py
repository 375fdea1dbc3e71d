"""Synthetic branch-trace generator.

The paper collects Intel PT traces from a live machine.  We stand in for that
hardware with a deterministic generator that expands a
:class:`~repro.trace.workloads.WorkloadProfile` into a stream of
:class:`~repro.trace.branch.BranchRecord` objects plus inline OS events.

The generator models a program as a collection of *loops* (short ordered
sequences of branch sites) that are revisited many times, which is what gives
real programs their high baseline prediction accuracy.  Conditional sites are
biased, patterned, or noisy; indirect sites select among several targets
either as a deterministic function of recent history (learnable through the
BHB) or at random; calls and returns walk a call stack deep enough to
occasionally underflow a 16-entry RSB.  Kernel code is modelled as a separate,
shared set of sites at high canonical addresses, entered on system calls and
interrupts.  Multi-process captures interleave per-context generators and emit
context-switch events, optionally sharing the user-level program image
(Apache/MySQL prefork workers) so that protection schemes that flush on
context switch lose genuinely useful state.

Records are shared immutable values.  A trace revisits a few thousand sites,
so most of its records repeat: each generator keeps one
:class:`~repro.trace.branch.BranchRecord` per distinct record value and
appends that object every time the value recurs.  Records are frozen, so
sharing is invisible to consumers, while the default figure3 traces hold a
sixth of the objects (and cost the garbage collector a sixth of the walks)
that one record per branch would.

Integer draws go through :func:`_randbelow`, which mirrors CPython's
``Random._randbelow_with_getrandbits``, the routine that ``randrange``,
``randint``, ``choice`` and ``shuffle`` all reduce to.  Called on the same
``getrandbits``, it consumes the same words and returns the same integers as
those methods, in one Python frame instead of three.  A stdlib whose draws
differ fails the property test that pins the helper to ``random.Random``.
"""

from __future__ import annotations

import math
import random
import zlib
from dataclasses import dataclass, field

from repro.trace.branch import (
    BRANCH_TYPE_CODES,
    BRANCH_TYPES_BY_CODE,
    VIRTUAL_ADDRESS_MASK,
    BranchRecord,
    BranchType,
    EventKind,
    PrivilegeMode,
    Trace,
    TraceEvent,
)
from repro.trace.workloads import WorkloadProfile, get_workload

_USER_CODE_BASE = 0x0000_5555_5555_0000
_KERNEL_CODE_BASE = 0xFFFF_8000_0100_0000 & VIRTUAL_ADDRESS_MASK
_CONTEXT_IMAGE_STRIDE = 0x0000_0010_0000_0000
_INSTRUCTION_STRIDE = 16

_CONDITIONAL = BRANCH_TYPE_CODES[BranchType.CONDITIONAL]
_DIRECT_JUMP = BRANCH_TYPE_CODES[BranchType.DIRECT_JUMP]
_DIRECT_CALL = BRANCH_TYPE_CODES[BranchType.DIRECT_CALL]
_INDIRECT_JUMP = BRANCH_TYPE_CODES[BranchType.INDIRECT_JUMP]
_INDIRECT_CALL = BRANCH_TYPE_CODES[BranchType.INDIRECT_CALL]
_RETURN = BRANCH_TYPE_CODES[BranchType.RETURN]


def _randbelow(getrandbits, n: int) -> int:
    """A uniform integer in ``[0, n)``, drawn exactly as ``random.Random`` draws it.

    This is CPython's ``Random._randbelow_with_getrandbits`` on a generator's
    bound ``getrandbits``: ``rng.randrange(n)`` is ``_randbelow(bits, n)``,
    ``rng.randint(a, b)`` is ``a + _randbelow(bits, b - a + 1)`` and
    ``rng.choice(seq)`` is ``seq[_randbelow(bits, len(seq))]``.  ``n`` must
    be positive; ``n == 0`` would never return.
    """
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


class _RecordMemo(dict):
    """One shared :class:`BranchRecord` per distinct record value.

    Keys are ``(ip, target, taken, type_code, context_id, kernel)``: the
    record's fields, with the branch type as its :data:`BRANCH_TYPE_CODES`
    code and the mode as a kernel flag, because enum members hash in Python
    and ints in C.  A missing key builds the record, so an emitter appends
    ``memo[key]`` without a Python call once the value has been seen.
    """

    __slots__ = ()

    def __missing__(self, key: tuple[int, int, bool, int, int, bool]) -> BranchRecord:
        ip, target, taken, type_code, context_id, kernel = key
        record = self[key] = BranchRecord(
            ip, target, taken, BRANCH_TYPES_BY_CODE[type_code], context_id,
            PrivilegeMode.KERNEL if kernel else PrivilegeMode.USER,
        )
        return record


class _ConditionalSite:
    """One conditional branch site and the model generating its directions.

    Three site classes model the spectrum seen in real code:

    * ``biased`` — almost always taken or almost always not taken,
    * ``patterned`` — a short repeating pattern (loop trip counts,
      alternations) that history-based predictors learn, and
    * ``markov`` — data-dependent branches whose outcome tends to persist in
      runs; their per-transition persistence sets how predictable they are
      (this replaces an i.i.d. coin flip, which would make the global history
      unrealistically noisy).
    """

    BIASED = "biased"
    PATTERNED = "patterned"
    MARKOV = "markov"

    __slots__ = ("ip", "taken_target", "fall_through", "kind", "taken_probability",
                 "pattern", "position", "persistence", "state")

    def __init__(
        self,
        ip: int,
        taken_target: int,
        kind: str,
        taken_probability: float,
        pattern: tuple[bool, ...] = (),
        persistence: float = 0.5,
    ):
        self.ip = ip
        self.taken_target = taken_target
        #: The not-taken target, masked like every record address.
        self.fall_through = (ip + 4) & VIRTUAL_ADDRESS_MASK
        self.kind = kind
        self.taken_probability = taken_probability
        self.pattern = pattern
        self.position = 0
        self.persistence = persistence
        self.state = True


@dataclass(slots=True)
class _IndirectSite:
    ip: int
    targets: tuple[int, ...]
    is_call: bool
    history_correlated: bool


@dataclass(slots=True)
class _CallSite:
    ip: int
    target: int
    #: Conditional sites forming the callee's body (fixed per call site, the
    #: way a real function's branches are).
    body_sites: tuple = ()


@dataclass(slots=True)
class _DirectSite:
    ip: int
    target: int


@dataclass(slots=True)
class _Loop:
    """An ordered sequence of sites revisited ``iterations`` times per visit.

    Every loop has a dedicated back-edge conditional branch which is taken on
    all iterations except the last — the highly predictable loop-control
    branches that dominate real programs' dynamic branch mix.
    """

    sites: list[object]
    mean_iterations: float
    back_edge: _ConditionalSite | None = None


@dataclass(slots=True)
class _ProgramImage:
    """The static code of one program: all branch sites grouped into loops."""

    loops: list[_Loop]
    conditionals: list[_ConditionalSite]
    indirects: list[_IndirectSite]
    calls: list[_CallSite]
    directs: list[_DirectSite]


@dataclass(slots=True)
class _ContextState:
    """Dynamic execution state of one software context."""

    context_id: int
    image: _ProgramImage
    rng: random.Random
    #: Kernel-mode context: the shared kernel image entered on events.
    kernel: bool = False
    call_stack: list[int] = field(default_factory=list)
    recent_history: int = 0
    current_loop: int = 0
    loop_remaining: int = 0
    site_cursor: int = 0


class SyntheticTraceGenerator:
    """Expands a workload profile into a deterministic branch trace.

    Args:
        profile: Workload characterisation (or a workload name).
        seed: Seed for all randomness; the same (profile, seed) pair always
            produces the identical trace.
    """

    def __init__(self, profile: WorkloadProfile | str, seed: int = 0):
        if isinstance(profile, str):
            profile = get_workload(profile)
        self.profile = profile
        self.seed = seed
        # zlib.crc32, not hash(): str hashing is randomized per process
        # (PYTHONHASHSEED), which would make "the same (profile, seed) pair"
        # produce a different trace in every interpreter — fatal for parallel
        # runs that must match serial ones bit for bit.
        self._rng = random.Random(
            (zlib.crc32(profile.name.encode("utf-8")) & 0xFFFF_FFFF) ^ (seed * 0x9E3779B9)
        )
        self._records = _RecordMemo()
        #: ``append`` of the item list :meth:`generate` is filling.
        self._append = None
        self._max_call_depth = max(2, int(profile.call_depth_mean * 1.5))
        self._kernel_image = self._build_image(
            base=_KERNEL_CODE_BASE,
            conditional_sites=max(64, profile.static_conditional_sites // 8),
            indirect_sites=max(8, profile.static_indirect_sites // 8),
            call_sites=max(8, profile.static_call_sites // 8),
            direct_sites=max(8, profile.static_direct_sites // 8),
        )
        self._contexts = self._build_contexts()
        self._kernel_state = _ContextState(
            context_id=-1, image=self._kernel_image, rng=random.Random(self._rng.random()),
            kernel=True,
        )

    # ------------------------------------------------------------------ build

    def _build_contexts(self) -> list[_ContextState]:
        profile = self.profile
        contexts: list[_ContextState] = []
        shared_image: _ProgramImage | None = None
        for index in range(profile.co_resident_contexts):
            if profile.shared_program_image:
                if shared_image is None:
                    shared_image = self._build_image(
                        base=_USER_CODE_BASE,
                        conditional_sites=profile.static_conditional_sites,
                        indirect_sites=profile.static_indirect_sites,
                        call_sites=profile.static_call_sites,
                        direct_sites=profile.static_direct_sites,
                    )
                image = shared_image
            else:
                image = self._build_image(
                    base=_USER_CODE_BASE + index * _CONTEXT_IMAGE_STRIDE,
                    conditional_sites=profile.static_conditional_sites,
                    indirect_sites=profile.static_indirect_sites,
                    call_sites=profile.static_call_sites,
                    direct_sites=profile.static_direct_sites,
                )
            contexts.append(
                _ContextState(
                    context_id=index,
                    image=image,
                    rng=random.Random(self._rng.getrandbits(64)),
                )
            )
        return contexts

    def _build_image(
        self,
        *,
        base: int,
        conditional_sites: int,
        indirect_sites: int,
        call_sites: int,
        direct_sites: int,
    ) -> _ProgramImage:
        profile = self.profile
        rng = random.Random(self._rng.getrandbits(64))
        bits = rng.getrandbits
        next_address = base

        def allocate() -> int:
            nonlocal next_address
            address = next_address
            # Real code is not laid out uniformly; skip a random small gap.
            next_address += _INSTRUCTION_STRIDE * (1 + _randbelow(bits, 24))
            return address & VIRTUAL_ADDRESS_MASK

        conditionals: list[_ConditionalSite] = []
        for _ in range(conditional_sites):
            ip = allocate()
            taken_target = (
                ip + _INSTRUCTION_STRIDE * (2 + _randbelow(bits, 3_999))
            ) & VIRTUAL_ADDRESS_MASK
            roll = rng.random()
            if roll < profile.biased_site_fraction:
                probability = 0.97 if rng.random() < 0.6 else 0.03
                site = _ConditionalSite(ip, taken_target, _ConditionalSite.BIASED, probability)
            elif roll < profile.biased_site_fraction + profile.patterned_site_fraction:
                length = 2 + _randbelow(bits, 7)
                pattern = tuple(rng.random() < 0.5 for _ in range(length))
                # Guarantee the pattern is not constant so it is genuinely periodic.
                if all(pattern) or not any(pattern):
                    pattern = pattern[:-1] + (not pattern[-1],)
                site = _ConditionalSite(ip, taken_target, _ConditionalSite.PATTERNED, 0.5, pattern)
            else:
                # "Hard" sites: data-dependent branches whose outcomes come in
                # runs.  The workload entropy parameter controls the run
                # persistence — low entropy (e.g. 505.mcf) gives short, hard
                # to predict runs, high entropy gives long predictable ones.
                persistence = min(0.97, 0.55 + profile.random_site_entropy
                                  + rng.uniform(0.0, 0.2))
                site = _ConditionalSite(
                    ip, taken_target, _ConditionalSite.MARKOV, 0.5, persistence=persistence
                )
            conditionals.append(site)

        indirects: list[_IndirectSite] = []
        for _ in range(indirect_sites):
            ip = allocate()
            count = max(1, int(rng.expovariate(1.0 / profile.indirect_targets_mean)) + 1)
            count = min(count, 16)
            targets = tuple(
                (ip + _INSTRUCTION_STRIDE * (8 + _randbelow(bits, 5_993))) & VIRTUAL_ADDRESS_MASK
                for _ in range(count)
            )
            indirects.append(
                _IndirectSite(
                    ip=ip,
                    targets=targets,
                    is_call=rng.random() < 0.4,
                    history_correlated=profile.indirect_history_correlated,
                )
            )

        calls: list[_CallSite] = []
        for _ in range(call_sites):
            ip = allocate()
            target = (
                ip + _INSTRUCTION_STRIDE * (16 + _randbelow(bits, 7_985))
            ) & VIRTUAL_ADDRESS_MASK
            body_length = 2 + _randbelow(bits, 5)
            if conditionals:
                start = _randbelow(bits, len(conditionals))
                body = tuple(
                    conditionals[(start + position) % len(conditionals)]
                    for position in range(body_length)
                )
            else:
                body = ()
            calls.append(_CallSite(ip=ip, target=target, body_sites=body))

        directs: list[_DirectSite] = []
        for _ in range(direct_sites):
            ip = allocate()
            target = (
                ip + _INSTRUCTION_STRIDE * (4 + _randbelow(bits, 1_997))
            ) & VIRTUAL_ADDRESS_MASK
            directs.append(_DirectSite(ip=ip, target=target))

        # Dedicated loop back-edge branches (taken on every iteration but the last).
        back_edges: list[_ConditionalSite] = []
        for _ in range(max(4, len(conditionals) // 8)):
            ip = allocate()
            taken_target = (
                ip - _INSTRUCTION_STRIDE * (8 + _randbelow(bits, 505))
            ) & VIRTUAL_ADDRESS_MASK
            back_edges.append(
                _ConditionalSite(ip, taken_target, _ConditionalSite.BIASED, 1.0)
            )

        loops = self._group_into_loops(rng, conditionals, indirects, calls, directs, back_edges)
        return _ProgramImage(
            loops=loops,
            conditionals=conditionals,
            indirects=indirects,
            calls=calls,
            directs=directs,
        )

    def _group_into_loops(
        self,
        rng: random.Random,
        conditionals: list[_ConditionalSite],
        indirects: list[_IndirectSite],
        calls: list[_CallSite],
        directs: list[_DirectSite],
        back_edges: list[_ConditionalSite],
    ) -> list[_Loop]:
        """Partition all sites into short loops with a hot/cold visit profile."""
        bits = rng.getrandbits
        site_pool: list[object] = []
        site_pool.extend(conditionals)
        site_pool.extend(indirects)
        site_pool.extend(calls)
        site_pool.extend(directs)
        # rng.shuffle(site_pool), draw for draw.
        for i in reversed(range(1, len(site_pool))):
            j = _randbelow(bits, i + 1)
            site_pool[i], site_pool[j] = site_pool[j], site_pool[i]

        loops: list[_Loop] = []
        index = 0
        while index < len(site_pool):
            size = 4 + _randbelow(bits, 13)
            body = site_pool[index:index + size]
            index += size
            mean_iterations = 8.0 + rng.expovariate(1.0 / 24.0)
            back_edge = back_edges[len(loops) % len(back_edges)] if back_edges else None
            loops.append(
                _Loop(sites=body, mean_iterations=mean_iterations, back_edge=back_edge)
            )
        if not loops:
            loops.append(_Loop(sites=list(site_pool), mean_iterations=8.0))
        return loops

    # --------------------------------------------------------------- generate

    def generate(self, branch_count: int | None = None) -> Trace:
        """Generate a trace of approximately ``branch_count`` branch records."""
        profile = self.profile
        target_branches = branch_count if branch_count is not None else profile.branch_count
        trace = Trace(name=profile.name)
        self._append = append = trace.items.append

        active = 0
        emitted = 0
        next_context_switch = self._interval(profile.context_switch_interval)
        next_syscall = self._interval(profile.syscall_interval)
        next_interrupt = self._interval(profile.interrupt_interval)

        while emitted < target_branches:
            state = self._contexts[active]
            emitted += self._emit_loop_step(state)

            if profile.syscall_interval and emitted >= next_syscall:
                next_syscall = emitted + self._interval(profile.syscall_interval)
                emitted += self._emit_kernel_entry(
                    state.context_id, EventKind.MODE_SWITCH_ENTER_KERNEL,
                    profile.kernel_branch_burst,
                )

            if profile.interrupt_interval and emitted >= next_interrupt:
                next_interrupt = emitted + self._interval(profile.interrupt_interval)
                emitted += self._emit_kernel_entry(
                    state.context_id, EventKind.INTERRUPT,
                    max(8, profile.kernel_branch_burst // 3),
                )

            if (
                profile.context_switch_interval
                and profile.co_resident_contexts > 1
                and emitted >= next_context_switch
            ):
                next_context_switch = emitted + self._interval(profile.context_switch_interval)
                choices = [i for i in range(profile.co_resident_contexts) if i != active]
                active = choices[_randbelow(self._rng.getrandbits, len(choices))]
                append(TraceEvent(EventKind.CONTEXT_SWITCH, context_id=active))

        return trace

    def _interval(self, mean: int) -> int:
        if mean <= 0:
            return 1 << 62
        return max(1, int(self._rng.expovariate(1.0 / mean)))

    def _emit_loop_step(self, state: _ContextState) -> int:
        """Emit one site's worth of branches from the context's current loop."""
        image = state.image
        if state.loop_remaining <= 0 or state.current_loop >= len(image.loops):
            state.current_loop = self._pick_loop(state)
            loop = image.loops[state.current_loop]
            state.loop_remaining = max(
                1, int(state.rng.expovariate(1.0 / loop.mean_iterations))
            )
            state.site_cursor = 0

        loop = image.loops[state.current_loop]
        site = loop.sites[state.site_cursor]
        site_class = site.__class__
        if site_class is _ConditionalSite:
            self._emit_conditional(state, site)
            produced = 1
        elif site_class is _CallSite:
            produced = self._emit_call(state, site)
        elif site_class is _IndirectSite:
            produced = self._emit_indirect(state, site)
        elif site_class is _DirectSite:
            self._append(self._records[
                site.ip, site.target, True, _DIRECT_JUMP, state.context_id, state.kernel])
            produced = 1
        else:
            raise TypeError(f"unknown site type: {site_class!r}")

        state.site_cursor += 1
        if state.site_cursor >= len(loop.sites):
            state.site_cursor = 0
            state.loop_remaining -= 1
            back_edge = loop.back_edge
            if back_edge is not None:
                # Loop-control branch: taken while more iterations remain.
                taken = state.loop_remaining > 0
                target = back_edge.taken_target if taken else back_edge.fall_through
                self._append(self._records[
                    back_edge.ip, target, taken, _CONDITIONAL, state.context_id, state.kernel])
                state.recent_history = ((state.recent_history << 1) | taken) & 0xFFFF
                produced += 1
        return produced

    def _pick_loop(self, state: _ContextState) -> int:
        """Hot/cold loop selection modelling the strong temporal locality of real code.

        Roughly 85% of visits go to a small hot set (about 6% of all loops),
        10% to a warm set, and the rest sample the whole program, which is the
        kind of concentration that gives real workloads their high baseline
        prediction accuracy while still exercising structure capacity.
        """
        loop_count = len(state.image.loops)
        hot_count = max(1, int(loop_count * 0.06))
        warm_count = max(hot_count + 1, int(loop_count * 0.25))
        rng = state.rng
        roll = rng.random()
        if roll < 0.85:
            return _randbelow(rng.getrandbits, hot_count)
        if roll < 0.95:
            return _randbelow(rng.getrandbits, warm_count)
        return _randbelow(rng.getrandbits, loop_count)

    def _emit_conditional(self, state: _ContextState, site: _ConditionalSite) -> None:
        kind = site.kind
        if kind == _ConditionalSite.PATTERNED:
            pattern = site.pattern
            taken = pattern[site.position % len(pattern)]
            site.position += 1
        elif kind == _ConditionalSite.MARKOV:
            if state.rng.random() >= site.persistence:
                site.state = not site.state
            taken = site.state
        else:
            taken = state.rng.random() < site.taken_probability
        target = site.taken_target if taken else site.fall_through
        self._append(self._records[
            site.ip, target, taken, _CONDITIONAL, state.context_id, state.kernel])
        state.recent_history = ((state.recent_history << 1) | taken) & 0xFFFF

    def _emit_indirect(self, state: _ContextState, site: _IndirectSite) -> int:
        targets = site.targets
        if len(targets) == 1:
            index = 0
        elif site.history_correlated:
            # Most dynamic executions of a polymorphic indirect branch hit its
            # dominant target; the minority of switches is a deterministic
            # function of recent history, so history-based predictors can
            # learn it (as they do for real virtual-call sites).
            if state.rng.random() < 0.85:
                index = 0
            else:
                index = 1 + (state.recent_history % (len(targets) - 1))
        else:
            index = _randbelow(state.rng.getrandbits, len(targets))
        type_code = _INDIRECT_CALL if site.is_call else _INDIRECT_JUMP
        self._append(self._records[
            site.ip, targets[index], True, type_code, state.context_id, state.kernel])
        if site.is_call:
            state.call_stack.append((site.ip + 4) & VIRTUAL_ADDRESS_MASK)
            return 1 + self._emit_returns(state, probability=0.9)
        return 1

    def _emit_call(self, state: _ContextState, site: _CallSite) -> int:
        self._append(self._records[
            site.ip, site.target, True, _DIRECT_CALL, state.context_id, state.kernel])
        state.call_stack.append((site.ip + 4) & VIRTUAL_ADDRESS_MASK)

        # Execute the callee's (fixed) body of conditional branches.
        for body_site in site.body_sites:
            self._emit_conditional(state, body_site)
        produced = 1 + len(site.body_sites)

        # Occasionally nest deeper before unwinding, so the RSB can underflow.
        calls = state.image.calls
        if len(state.call_stack) < self._max_call_depth and state.rng.random() < 0.35 and calls:
            nested = calls[_randbelow(state.rng.getrandbits, len(calls))]
            if nested.ip != site.ip:
                produced += self._emit_call(state, nested)

        return produced + self._emit_returns(state, probability=0.95)

    def _emit_returns(self, state: _ContextState, probability: float) -> int:
        """Pop and emit return branches with the given per-frame probability."""
        produced = 0
        call_stack = state.call_stack
        random_draw = state.rng.random
        while call_stack and random_draw() < probability:
            return_address = call_stack.pop()
            self._append(self._records[
                (return_address + 64) & VIRTUAL_ADDRESS_MASK, return_address, True, _RETURN,
                state.context_id, state.kernel])
            produced += 1
        return produced

    def _emit_kernel_entry(self, context_id: int, kind: EventKind, burst: int) -> int:
        """Emit a kernel excursion: event marker, kernel branches, exit marker."""
        self._append(TraceEvent(kind, context_id=context_id))
        produced = 0
        kernel = self._kernel_state
        kernel.context_id = context_id
        length = max(1, int(self._rng.expovariate(1.0 / burst))) if burst else 0
        while produced < length:
            produced += self._emit_loop_step(kernel)
        self._append(TraceEvent(EventKind.MODE_SWITCH_EXIT_KERNEL, context_id=context_id))
        return produced


def generate_trace(
    workload: WorkloadProfile | str, *, seed: int = 0, branch_count: int | None = None
) -> Trace:
    """Convenience wrapper: build a generator and produce one trace."""
    return SyntheticTraceGenerator(workload, seed=seed).generate(branch_count)
