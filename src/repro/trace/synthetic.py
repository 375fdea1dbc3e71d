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

Program images are flat columns (:class:`_ProgramImage`), one list per
field of each site kind, and a loop is a tuple of ints that tag a site's
index with its kind.  A chrome-* generator's 77K static user sites leave
about a hundred objects for the garbage collector to track, not one or more
per site.  Nothing is built lazily: the draws are what an image
costs, and none can be skipped, because rejection sampling makes the words
each site consumes known only by drawing them, and every later site's draws
depend on where they stop.

Integer draws are made as CPython's ``Random._randbelow_with_getrandbits``
makes them, the routine that ``randrange``, ``randint``, ``choice`` and
``shuffle`` all reduce to: a ``getrandbits(n.bit_length())`` word, drawn
again while it is ``n`` or more.  The image build writes that loop inline,
and the emitters call :func:`_randbelow`, the same loop in one Python frame
instead of three.  Both consume the same words and return the same integers
as the stdlib methods; a stdlib whose draws differ fails the property test
that pins the helper to ``random.Random``, and the golden trace digests.
"""

from __future__ import annotations

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

#: Site kinds: the low two bits of a loop's tagged sites.
_CONDITIONAL_SITE, _INDIRECT_SITE, _CALL_SITE, _DIRECT_SITE = range(4)
#: Conditional direction models (``_ProgramImage.cond_kinds``).
_BIASED, _PATTERNED, _MARKOV = range(3)

#: Bounds ``n`` of the image build's integer draws, each drawn inline as
#: ``randrange(n)`` draws it.  A site's successor lies ``1 +
#: randrange(_GAP_SLOTS)`` strides further on; the other bounds count target
#: distances in strides (past a fixed minimum), pattern and call-body
#: lengths (past 2) and loop sizes (past 4).
_GAP_SLOTS = 24
_CONDITIONAL_REACH = 3_999
_PATTERN_LENGTHS = 7
_INDIRECT_REACH = 5_993
_CALL_REACH = 7_985
_BODY_LENGTHS = 5
_DIRECT_REACH = 1_997
_BACK_EDGE_REACH = 505
_LOOP_SIZES = 13


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


@dataclass(slots=True)
class _ProgramImage:
    """The static code of one program as flat columns, one list per field.

    Conditional ``i`` branches from ``cond_ips[i]`` to ``cond_targets[i]``
    when taken, and its direction model is ``cond_kinds[i]``: ``_BIASED``
    (``cond_params[i]`` is the taken probability), ``_PATTERNED`` (a tuple
    of outcomes, replayed from position ``cond_steps[i]``) or ``_MARKOV``
    (a persistence; ``cond_steps[i]`` is the current outcome).  The loop
    back-edges follow the regular conditionals in ``cond_ips`` and
    ``cond_targets`` only, since their loops decide their directions, so
    call bodies, which hold conditional indices, name only regular ones.
    Indirect ``i`` picks among ``ind_targets[i]`` (a tuple) and is a call if
    ``ind_calls[i]``; call ``i`` jumps to ``call_targets[i]`` and runs the
    conditionals in ``call_bodies[i]``, fixed per call site the way a real
    function's branches are.

    Loop ``j`` runs the sites in ``loops[j]``, each an int tagged with its
    kind, ``index << 2 | kind``, and then its back-edge, conditional
    ``loop_back_edges[j]``, which is taken on every iteration but the last,
    like the loop-control branches that dominate real programs' dynamic
    branch mix.  A visit iterates the loop about ``loop_means[j]`` times.
    """

    cond_ips: list[int]
    cond_targets: list[int]
    cond_kinds: list[int]
    cond_params: list
    cond_steps: list
    ind_ips: list[int]
    ind_targets: list[tuple[int, ...]]
    ind_calls: list[bool]
    #: Whether an indirect's target follows recent history (else random).
    ind_correlated: bool
    call_ips: list[int]
    call_targets: list[int]
    call_bodies: list[tuple[int, ...]]
    direct_ips: list[int]
    direct_targets: list[int]
    loops: list[tuple[int, ...]]
    loop_means: list[float]
    loop_back_edges: list[int]


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
        #: Static conditional, indirect, call and direct sites (kind order).
        self._site_counts = (profile.static_conditional_sites, profile.static_indirect_sites,
                             profile.static_call_sites, profile.static_direct_sites)
        self._kernel_image = self._build_image(_KERNEL_CODE_BASE, tuple(
            max(floor, count // 8) for floor, count in zip((64, 8, 8, 8), self._site_counts)))
        self._contexts = self._build_contexts()
        self._kernel_state = _ContextState(
            context_id=-1, image=self._kernel_image, rng=random.Random(self._rng.random()),
            kernel=True,
        )

    # ------------------------------------------------------------------ build

    def _build_contexts(self) -> list[_ContextState]:
        profile = self.profile
        contexts: list[_ContextState] = []
        image: _ProgramImage | None = None
        for index in range(profile.co_resident_contexts):
            # Shared-image contexts all run the first context's image.
            if image is None or not profile.shared_program_image:
                image = self._build_image(
                    _USER_CODE_BASE + index * _CONTEXT_IMAGE_STRIDE, self._site_counts)
            contexts.append(
                _ContextState(
                    context_id=index,
                    image=image,
                    rng=random.Random(self._rng.getrandbits(64)),
                )
            )
        return contexts

    def _build_image(self, base: int, site_counts: tuple[int, int, int, int]) -> _ProgramImage:
        """Lay out ``site_counts`` sites of each kind from ``base`` on."""
        profile = self.profile
        conditional_sites, indirect_sites, call_sites, direct_sites = site_counts
        rng = random.Random(self._rng.getrandbits(64))
        bits = rng.getrandbits
        random_draw = rng.random
        mask = VIRTUAL_ADDRESS_MASK
        stride = _INSTRUCTION_STRIDE
        # Sites are laid out in order, but real code is not laid out
        # uniformly: each one is followed by a random small gap.
        address = base
        gap_bits = _GAP_SLOTS.bit_length()

        cond_ips: list[int] = []
        cond_targets: list[int] = []
        cond_kinds: list[int] = []
        cond_params: list = []
        cond_steps: list = []
        reach_bits = _CONDITIONAL_REACH.bit_length()
        length_bits = _PATTERN_LENGTHS.bit_length()
        biased = profile.biased_site_fraction
        patterned = biased + profile.patterned_site_fraction
        # "Hard" sites: data-dependent branches whose outcomes come in runs.
        # The workload entropy parameter controls the run persistence — low
        # entropy (e.g. 505.mcf) gives short, hard to predict runs, high
        # entropy gives long predictable ones.
        persistence = 0.55 + profile.random_site_entropy
        for _ in range(conditional_sites):
            ip = address & mask
            while (gap := bits(gap_bits)) >= _GAP_SLOTS:
                pass
            address += stride * (1 + gap)
            while (reach := bits(reach_bits)) >= _CONDITIONAL_REACH:
                pass
            cond_ips.append(ip)
            cond_targets.append((ip + stride * (2 + reach)) & mask)
            roll = random_draw()
            if roll < biased:
                cond_kinds.append(_BIASED)
                cond_params.append(0.97 if random_draw() < 0.6 else 0.03)
                cond_steps.append(0)
            elif roll < patterned:
                while (length := bits(length_bits)) >= _PATTERN_LENGTHS:
                    pass
                pattern = tuple([random_draw() < 0.5 for _ in range(2 + length)])
                # Guarantee the pattern is not constant so it is genuinely periodic.
                if all(pattern) or not any(pattern):
                    pattern = pattern[:-1] + (not pattern[-1],)
                cond_kinds.append(_PATTERNED)
                cond_params.append(pattern)
                cond_steps.append(0)
            else:
                cond_kinds.append(_MARKOV)
                # ``rng.uniform(0.0, 0.2)`` is ``0.2 * rng.random()``.
                cond_params.append(min(0.97, persistence + 0.2 * random_draw()))
                cond_steps.append(True)
        regular = len(cond_ips)

        ind_ips: list[int] = []
        ind_targets: list[tuple[int, ...]] = []
        ind_calls: list[bool] = []
        reach_bits = _INDIRECT_REACH.bit_length()
        for _ in range(indirect_sites):
            ip = address & mask
            while (gap := bits(gap_bits)) >= _GAP_SLOTS:
                pass
            address += stride * (1 + gap)
            count = max(1, int(rng.expovariate(1.0 / profile.indirect_targets_mean)) + 1)
            targets = []
            for _ in range(min(count, 16)):
                while (reach := bits(reach_bits)) >= _INDIRECT_REACH:
                    pass
                targets.append((ip + stride * (8 + reach)) & mask)
            ind_ips.append(ip)
            ind_targets.append(tuple(targets))
            ind_calls.append(random_draw() < 0.4)

        call_ips: list[int] = []
        call_targets: list[int] = []
        call_bodies: list[tuple[int, ...]] = []
        reach_bits = _CALL_REACH.bit_length()
        length_bits = _BODY_LENGTHS.bit_length()
        start_bits = regular.bit_length()
        # The regular conditionals' indices, continued past the end, so a
        # body that wraps around is one slice.
        wrapped = (tuple(index % regular for index in range(regular + 1 + _BODY_LENGTHS))
                   if regular else ())
        for _ in range(call_sites):
            ip = address & mask
            while (gap := bits(gap_bits)) >= _GAP_SLOTS:
                pass
            address += stride * (1 + gap)
            while (reach := bits(reach_bits)) >= _CALL_REACH:
                pass
            while (length := bits(length_bits)) >= _BODY_LENGTHS:
                pass
            if regular:
                while (start := bits(start_bits)) >= regular:
                    pass
                body = wrapped[start:start + 2 + length]
            else:
                body = ()
            call_ips.append(ip)
            call_targets.append((ip + stride * (16 + reach)) & mask)
            call_bodies.append(body)

        direct_ips: list[int] = []
        direct_targets: list[int] = []
        reach_bits = _DIRECT_REACH.bit_length()
        for _ in range(direct_sites):
            ip = address & mask
            while (gap := bits(gap_bits)) >= _GAP_SLOTS:
                pass
            address += stride * (1 + gap)
            while (reach := bits(reach_bits)) >= _DIRECT_REACH:
                pass
            direct_ips.append(ip)
            direct_targets.append((ip + stride * (4 + reach)) & mask)

        # Dedicated loop back-edge branches, after the regular conditionals.
        back_edges = range(regular, regular + max(4, regular // 8))
        reach_bits = _BACK_EDGE_REACH.bit_length()
        for _ in back_edges:
            ip = address & mask
            while (gap := bits(gap_bits)) >= _GAP_SLOTS:
                pass
            address += stride * (1 + gap)
            while (reach := bits(reach_bits)) >= _BACK_EDGE_REACH:
                pass
            cond_ips.append(ip)
            cond_targets.append((ip - stride * (8 + reach)) & mask)

        return _ProgramImage(
            cond_ips, cond_targets, cond_kinds, cond_params, cond_steps,
            ind_ips, ind_targets, ind_calls, profile.indirect_history_correlated,
            call_ips, call_targets, call_bodies, direct_ips, direct_targets,
            *self._group_into_loops(rng, site_counts, back_edges))

    def _group_into_loops(
        self,
        rng: random.Random,
        site_counts: tuple[int, int, int, int],
        back_edges: range,
    ) -> tuple[list[tuple[int, ...]], list[float], list[int]]:
        """Partition all sites into short loops with a hot/cold visit profile.

        ``site_counts`` counts the conditional, indirect, call and direct
        sites.  Returns the image's ``loops``, ``loop_means`` and
        ``loop_back_edges`` columns.
        """
        bits = rng.getrandbits
        sites: list[int] = []
        for kind, count in enumerate(site_counts):  # in kind order
            sites.extend(range(kind, count << 2, 4))
        # rng.shuffle(sites), draw for draw.
        for i in range(len(sites) - 1, 0, -1):
            k = (i + 1).bit_length()
            while (j := bits(k)) > i:
                pass
            sites[i], sites[j] = sites[j], sites[i]

        loops: list[tuple[int, ...]] = []
        loop_means: list[float] = []
        size_bits = _LOOP_SIZES.bit_length()
        start = 0
        while start < len(sites):
            while (size := bits(size_bits)) >= _LOOP_SIZES:
                pass
            loops.append(tuple(sites[start:start + 4 + size]))
            start += 4 + size
            loop_means.append(8.0 + rng.expovariate(1.0 / 24.0))
        if not loops:
            # An image without sites still has one (empty) loop.
            loops.append(())
            loop_means.append(8.0)
        loop_back_edges = [back_edges[loop % len(back_edges)]
                           for loop in range(len(loops))]
        return loops, loop_means, loop_back_edges

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
        if state.loop_remaining <= 0:
            loop = state.current_loop = self._pick_loop(state)
            state.loop_remaining = max(
                1, int(state.rng.expovariate(1.0 / image.loop_means[loop]))
            )
            state.site_cursor = 0

        sites = image.loops[state.current_loop]
        site = sites[state.site_cursor]
        kind = site & 3
        index = site >> 2
        if kind == _CONDITIONAL_SITE:
            self._emit_conditional(state, image, index)
            produced = 1
        elif kind == _CALL_SITE:
            produced = self._emit_call(state, image, index)
        elif kind == _INDIRECT_SITE:
            produced = self._emit_indirect(state, image, index)
        else:  # _DIRECT_SITE
            self._append(self._records[
                image.direct_ips[index], image.direct_targets[index], True, _DIRECT_JUMP,
                state.context_id, state.kernel])
            produced = 1

        state.site_cursor += 1
        if state.site_cursor >= len(sites):
            state.site_cursor = 0
            state.loop_remaining -= 1
            # Loop-control branch: taken while more iterations remain.
            back_edge = image.loop_back_edges[state.current_loop]
            ip = image.cond_ips[back_edge]
            taken = state.loop_remaining > 0
            target = image.cond_targets[back_edge] if taken else (ip + 4) & VIRTUAL_ADDRESS_MASK
            self._append(self._records[
                ip, target, taken, _CONDITIONAL, state.context_id, state.kernel])
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

    def _emit_conditional(self, state: _ContextState, image: _ProgramImage, index: int) -> None:
        kind = image.cond_kinds[index]
        if kind == _PATTERNED:
            pattern = image.cond_params[index]
            steps = image.cond_steps
            position = steps[index]
            taken = pattern[position % len(pattern)]
            steps[index] = position + 1
        elif kind == _MARKOV:
            steps = image.cond_steps
            if state.rng.random() >= image.cond_params[index]:
                steps[index] = not steps[index]
            taken = steps[index]
        else:
            taken = state.rng.random() < image.cond_params[index]
        ip = image.cond_ips[index]
        target = image.cond_targets[index] if taken else (ip + 4) & VIRTUAL_ADDRESS_MASK
        self._append(self._records[
            ip, target, taken, _CONDITIONAL, state.context_id, state.kernel])
        state.recent_history = ((state.recent_history << 1) | taken) & 0xFFFF

    def _emit_indirect(self, state: _ContextState, image: _ProgramImage, index: int) -> int:
        targets = image.ind_targets[index]
        if len(targets) == 1:
            choice = 0
        elif image.ind_correlated:
            # Most dynamic executions of a polymorphic indirect branch hit its
            # dominant target; the minority of switches is a deterministic
            # function of recent history, so history-based predictors can
            # learn it (as they do for real virtual-call sites).
            if state.rng.random() < 0.85:
                choice = 0
            else:
                choice = 1 + (state.recent_history % (len(targets) - 1))
        else:
            choice = _randbelow(state.rng.getrandbits, len(targets))
        ip = image.ind_ips[index]
        is_call = image.ind_calls[index]
        type_code = _INDIRECT_CALL if is_call else _INDIRECT_JUMP
        self._append(self._records[
            ip, targets[choice], True, type_code, state.context_id, state.kernel])
        if is_call:
            state.call_stack.append((ip + 4) & VIRTUAL_ADDRESS_MASK)
            return 1 + self._emit_returns(state, probability=0.9)
        return 1

    def _emit_call(self, state: _ContextState, image: _ProgramImage, index: int) -> int:
        ip = image.call_ips[index]
        self._append(self._records[
            ip, image.call_targets[index], True, _DIRECT_CALL, state.context_id, state.kernel])
        state.call_stack.append((ip + 4) & VIRTUAL_ADDRESS_MASK)

        # Execute the callee's (fixed) body of conditional branches.
        body = image.call_bodies[index]
        for conditional in body:
            self._emit_conditional(state, image, conditional)
        produced = 1 + len(body)

        # Occasionally nest deeper before unwinding, so the RSB can underflow.
        if len(state.call_stack) < self._max_call_depth and state.rng.random() < 0.35:
            nested = _randbelow(state.rng.getrandbits, len(image.call_ips))
            if nested != index:
                produced += self._emit_call(state, image, nested)

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
