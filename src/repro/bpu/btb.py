"""Branch target buffer (BTB).

An 8-way, 4096-entry set-associative cache of branch targets (paper
Section II-A).  Each entry stores a compressed tag, an offset, and the 32
least-significant bits of the target (optionally encrypted by the installed
:class:`~repro.bpu.mapping.TargetCodec`).  Two addressing modes are
supported: mode 1 keys on the branch address only, mode 2 additionally mixes
in the branch history buffer and is used for indirect branches.

The state is kept in the layout the vector replay engine
(:mod:`repro.sim.vector`) replays in place: three per-slot lists — the packed
key ``(tag << offset_bits) | offset``, the LRU rank and the stored target —
where slot ``set * ways + way`` is one way, plus a dict from
``key * slot_count + first slot of the set`` to the slot, holding the valid
entries only.  A probe is one dict lookup instead of a walk over the ways.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bpu.common import StructureSizes
from repro.bpu.mapping import (
    BTBLookupKey,
    BaselineMappingProvider,
    IdentityTargetCodec,
    MappingProvider,
    TargetCodec,
)

#: Rank bonus of a valid slot.  A slot's rank is its LRU stamp, plus
#: ``VALID`` while it holds an entry, so the replacement victim — the first
#: way with the smallest ``(valid, stamp)`` — is the first lowest rank.
VALID = 1 << 62


@dataclass(slots=True)
class BTBLookupResult:
    """Outcome of a BTB probe."""

    hit: bool
    predicted_target: int | None
    key: BTBLookupKey


@dataclass(slots=True)
class BTBUpdateResult:
    """Outcome of installing/refreshing an entry."""

    evicted_valid_entry: bool
    replaced_same_branch: bool


class BranchTargetBuffer:
    """Set-associative target cache with LRU replacement.

    Args:
        sizes: Structure dimensions; defaults to the Skylake baseline
            (512 sets x 8 ways).
        mapping: Address-mapping provider (baseline or STBPU-keyed).
        codec: Stored-target codec (identity or XOR encryption).
        capacity_scale: Fractional capacity multiplier used by the
            *conservative* protection model, which stores full 48-bit
            addresses and therefore fits fewer entries in the same hardware
            budget.  A value of 0.5 halves the number of sets.
    """

    __slots__ = ("sizes", "mapping", "codec", "_set_count", "_ways",
                 "_slot_count", "_keys", "_ranks", "_targets", "_slots",
                 "_access_clock", "eviction_count")

    def __init__(
        self,
        sizes: StructureSizes | None = None,
        mapping: MappingProvider | None = None,
        codec: TargetCodec | None = None,
        capacity_scale: float = 1.0,
    ):
        self.sizes = sizes if sizes is not None else StructureSizes()
        self.mapping = mapping if mapping is not None else BaselineMappingProvider(self.sizes)
        self.codec = codec if codec is not None else IdentityTargetCodec()
        if not 0.0 < capacity_scale <= 1.0:
            raise ValueError("capacity_scale must be in (0, 1]")
        self._set_count = max(1, int(self.sizes.btb_sets * capacity_scale))
        self._ways = self.sizes.btb_ways
        slot_count = self._slot_count = self._set_count * self._ways
        self._keys = [0] * slot_count
        self._ranks = [0] * slot_count
        self._targets = [0] * slot_count
        self._slots: dict[int, int] = {}
        self._access_clock = 0
        self.eviction_count = 0

    # ------------------------------------------------------------------ admin

    @property
    def set_count(self) -> int:
        return self._set_count

    @property
    def way_count(self) -> int:
        return self._ways

    @property
    def entry_count(self) -> int:
        return self._slot_count

    def flush(self) -> int:
        """Invalidate every entry; returns the number of valid entries dropped.

        Tags, offsets, stored targets and stamps survive (only the valid bit
        goes), and the lists are mutated in place: the vector engine replays
        them by reference.
        """
        ranks = self._ranks
        for slot in self._slots.values():
            ranks[slot] -= VALID
        dropped = len(self._slots)
        self._slots.clear()
        return dropped

    def valid_entry_count(self) -> int:
        return len(self._slots)

    # ---------------------------------------------------------------- lookups

    def _key(self, ip: int, bhb: int | None) -> BTBLookupKey:
        if bhb is None:
            key = self.mapping.btb_mode1(ip)
        else:
            key = self.mapping.btb_mode2(ip, bhb)
        # The mapping provider may have been built for the nominal set count;
        # clamp the index into this instance's (possibly reduced) set array.
        # Full-capacity instances (the common case) reuse the provider's key
        # object — the mode-1 keys are memoised, so this avoids re-allocating
        # an identical key per probe.
        if key.index >= self._set_count:
            key = BTBLookupKey(index=key.index % self._set_count, tag=key.tag,
                               offset=key.offset)
        return key

    def _packed(self, key: BTBLookupKey) -> int:
        return (key.tag << self.sizes.btb_offset_bits) | key.offset

    def lookup(self, ip: int, bhb: int | None = None) -> BTBLookupResult:
        """Probe the BTB.  ``bhb`` selects addressing mode 2 when provided."""
        clock = self._access_clock + 1
        self._access_clock = clock
        key = self._key(ip, bhb)
        slot = self._slots.get(
            self._packed(key) * self._slot_count + key.index * self._ways)
        if slot is None:
            return BTBLookupResult(hit=False, predicted_target=None, key=key)
        self._ranks[slot] = VALID + clock
        predicted = self.codec.extend(self._targets[slot], ip)
        return BTBLookupResult(hit=True, predicted_target=predicted, key=key)

    def update(self, ip: int, target: int, bhb: int | None = None) -> BTBUpdateResult:
        """Install or refresh the entry for ``ip`` with resolved ``target``."""
        clock = self._access_clock + 1
        self._access_clock = clock
        key = self._key(ip, bhb)
        packed = self._packed(key)
        base = key.index * self._ways
        entry = packed * self._slot_count + base
        slots = self._slots
        ranks = self._ranks
        slot = slots.get(entry)
        if slot is not None:
            self._targets[slot] = self.codec.encode(target)
            ranks[slot] = VALID + clock
            return BTBUpdateResult(evicted_valid_entry=False, replaced_same_branch=True)

        set_ranks = ranks[base:base + self._ways]
        slot = base + set_ranks.index(min(set_ranks))
        evicted = ranks[slot] >= VALID
        if evicted:
            self.eviction_count += 1
            del slots[self._keys[slot] * self._slot_count + base]
        self._keys[slot] = packed
        self._targets[slot] = self.codec.encode(target)
        ranks[slot] = VALID + clock
        slots[entry] = slot
        return BTBUpdateResult(evicted_valid_entry=evicted, replaced_same_branch=False)

    def contains(self, ip: int, bhb: int | None = None) -> bool:
        """Non-destructive membership test (does not touch LRU state)."""
        key = self._key(ip, bhb)
        return (self._packed(key) * self._slot_count
                + key.index * self._ways) in self._slots
