"""Address-mapping providers and stored-target codecs.

The baseline BPU locates entries with deterministic compression functions of
the (truncated) branch address — the functions labelled 1–5 in Figure 1 of the
paper.  STBPU replaces them with keyed remappings ``R1..R4, Rt, Rp`` and
encrypts stored targets.  To keep the prediction logic untouched (the paper's
central design property), every predictor structure asks a
:class:`MappingProvider` for its index/tag/offset bits and a
:class:`TargetCodec` to encode/decode stored targets, and the STBPU layer
swaps in keyed implementations of both.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.bpu.common import StructureSizes, fold_bits
from repro.trace.branch import STORED_TARGET_BITS, STORED_TARGET_MASK

#: Number of low virtual-address bits the *baseline* hardware actually uses
#: (the paper notes only 30 of the 48 bits are utilised, enabling
#: same-address-space collisions).
BASELINE_ADDRESS_BITS = 32


@dataclass(frozen=True, slots=True)
class BTBLookupKey:
    """Index / tag / offset triple used to locate a BTB entry."""

    index: int
    tag: int
    offset: int

    @property
    def match_field(self) -> tuple[int, int]:
        """The (tag, offset) pair compared after the set has been selected."""
        return (self.tag, self.offset)


class MappingProvider(abc.ABC):
    """Computes the structure-addressing bits for every BPU lookup."""

    __slots__ = ("sizes",)

    def __init__(self, sizes: StructureSizes | None = None):
        self.sizes = sizes if sizes is not None else StructureSizes()

    @abc.abstractmethod
    def btb_mode1(self, ip: int) -> BTBLookupKey:
        """BTB addressing mode 1: index/tag/offset from the branch ip only."""

    @abc.abstractmethod
    def btb_mode2(self, ip: int, bhb: int) -> BTBLookupKey:
        """BTB addressing mode 2: ip plus branch-history buffer (indirect branches)."""

    @abc.abstractmethod
    def pht_index_1level(self, ip: int) -> int:
        """PHT addressing mode i: simple per-address index."""

    @abc.abstractmethod
    def pht_index_2level(self, ip: int, ghr: int) -> int:
        """PHT addressing mode ii: gshare-style address ⊕ global-history index."""

    @abc.abstractmethod
    def tage_index(self, ip: int, folded_history: int, table: int, index_bits: int) -> int:
        """Index into TAGE tagged table ``table`` (geometric history lengths)."""

    @abc.abstractmethod
    def tage_tag(self, ip: int, folded_history: int, table: int, tag_bits: int) -> int:
        """Partial tag for TAGE tagged table ``table``."""

    @abc.abstractmethod
    def perceptron_index(self, ip: int, table_size: int) -> int:
        """Row selection for the perceptron weight table."""

    def vector_maps(self) -> "object | None":
        """Array-at-a-time view of this provider for the vector replay backend.

        Returns an object exposing ``pht1(ips, contexts)``,
        ``pht2(ips, ghrs, contexts)``, ``btb1(ips, contexts)`` and
        ``btb2(ips, bhbs, contexts)`` — NumPy equivalents of the scalar
        methods — plus a ``token_dependent`` flag, or ``None`` when no exact
        vectorisation exists (the simulators then fall back to the scalar
        replay loop).  The flag only tells the STBPU vector kernel where to
        install its per-branch slot → ψ table.  Implementations gate on their
        *exact* class so that subclasses overriding scalar behaviour never
        inherit a mismatched vector view.
        """
        return None


class TargetCodec(abc.ABC):
    """Encodes targets before they are stored in the BTB/RSB and decodes them
    on the way out (function 5 in Figure 1)."""

    __slots__ = ()

    #: Whether encode/decode depend on a live secret token.  The flag only
    #: tells the STBPU vector kernel to encode each branch under its own ϕ,
    #: gathered from its per-branch slot → ϕ table.
    token_dependent = False

    @abc.abstractmethod
    def encode(self, target: int) -> int:
        """Map a 32-bit target slice to the value actually stored."""

    @abc.abstractmethod
    def decode(self, stored: int) -> int:
        """Map a stored 32-bit value back to a target slice."""

    def extend(self, stored: int, ip: int) -> int:
        """Rebuild a 48-bit predicted target from a stored entry and the branch ip.

        The baseline combines the 16 upper bits of the branch instruction
        pointer with the 32 decoded low bits (paper Section II-A).
        """
        high = ip >> STORED_TARGET_BITS
        return (high << STORED_TARGET_BITS) | (self.decode(stored) & STORED_TARGET_MASK)

    def vector_encode(self, targets: "object") -> "object | None":
        """Array form of :meth:`encode` for the vector replay backend.

        ``targets`` is a ``uint64`` ndarray of (full) resolved targets; the
        result is the ndarray of values :meth:`encode` would store for each.
        Returns ``None`` when no exact vectorisation exists, in which case the
        simulators fall back to the scalar replay loop.  Implementations gate
        on their exact class (see :meth:`MappingProvider.vector_maps`); the
        vector backend additionally relies on :meth:`encode`/:meth:`decode`
        being inverse bijections on the stored-target domain, which holds for
        both built-in codecs.
        """
        return None


class BaselineMappingProvider(MappingProvider):
    """Deterministic XOR-folding maps modelling the unprotected Skylake BPU.

    Only :data:`BASELINE_ADDRESS_BITS` low bits of the virtual address feed
    the functions, reproducing the truncation that makes same-address-space
    collisions possible.

    The address-only maps (BTB mode 1 and the 1-level PHT index) are pure
    functions of the branch address, and hot branches repeat millions of
    times per replay, so both are memoised per instance.  The masks/shifts
    are precomputed once instead of being re-derived from the sizes on every
    lookup.
    """

    __slots__ = ("_btb_offset_mask", "_btb_index_mask", "_btb_tag_mask",
                 "_btb_tag_shift", "_pht_index_mask", "_pht_fold_mask",
                 "_ghr_two_chunk_fold", "_mode1_cache", "_pht1_cache")

    #: Entry bound for the per-instance memoisation of address-only maps.
    _CACHE_LIMIT = 1 << 18

    def __init__(self, sizes: StructureSizes | None = None):
        super().__init__(sizes)
        sizes = self.sizes
        self._btb_offset_mask = (1 << sizes.btb_offset_bits) - 1
        self._btb_index_mask = sizes.btb_sets - 1
        self._btb_tag_mask = (1 << sizes.btb_tag_bits) - 1
        self._btb_tag_shift = sizes.btb_offset_bits + sizes.btb_index_bits
        self._pht_index_mask = sizes.pht_entries - 1
        # The GHR fold reduces ghr_bits down to pht_index_bits; when at most
        # two chunks are involved (the Skylake dimensions: 18 -> 14 bits) the
        # fold collapses to one shift+xor, inlined in pht_index_2level.  The
        # chunk mask is the fold's output width — distinct from
        # _pht_index_mask, which only coincides with it when pht_entries is a
        # power of two.
        self._pht_fold_mask = (1 << sizes.pht_index_bits) - 1
        self._ghr_two_chunk_fold = sizes.ghr_bits <= 2 * sizes.pht_index_bits
        self._mode1_cache: dict[int, BTBLookupKey] = {}
        self._pht1_cache: dict[int, int] = {}

    def _truncate(self, ip: int) -> int:
        return ip & ((1 << BASELINE_ADDRESS_BITS) - 1)

    def btb_mode1(self, ip: int) -> BTBLookupKey:
        cached = self._mode1_cache.get(ip)
        if cached is not None:
            return cached
        sizes = self.sizes
        truncated = self._truncate(ip)
        offset = truncated & self._btb_offset_mask
        index = (truncated >> sizes.btb_offset_bits) & self._btb_index_mask
        tag_source = truncated >> self._btb_tag_shift
        tag = fold_bits(tag_source, BASELINE_ADDRESS_BITS, sizes.btb_tag_bits)
        key = BTBLookupKey(index=index, tag=tag, offset=offset)
        if len(self._mode1_cache) >= self._CACHE_LIMIT:
            self._mode1_cache.clear()
        self._mode1_cache[ip] = key
        return key

    def btb_mode2(self, ip: int, bhb: int) -> BTBLookupKey:
        sizes = self.sizes
        base = self.btb_mode1(ip)
        history_tag = fold_bits(bhb, sizes.bhb_bits, sizes.btb_tag_bits)
        history_index = _fold_index(bhb, sizes.bhb_bits, sizes.btb_index_bits)
        return BTBLookupKey(
            index=(base.index ^ history_index) & self._btb_index_mask,
            tag=(base.tag ^ history_tag) & self._btb_tag_mask,
            offset=base.offset,
        )

    def pht_index_1level(self, ip: int) -> int:
        cached = self._pht1_cache.get(ip)
        if cached is not None:
            return cached
        index = _fold_index(self._truncate(ip) >> 1, BASELINE_ADDRESS_BITS,
                            self.sizes.pht_index_bits)
        if len(self._pht1_cache) >= self._CACHE_LIMIT:
            self._pht1_cache.clear()
        self._pht1_cache[ip] = index
        return index

    def pht_index_2level(self, ip: int, ghr: int) -> int:
        base = self._pht1_cache.get(ip)
        if base is None:
            base = self.pht_index_1level(ip)
        if self._ghr_two_chunk_fold:
            ghr &= (1 << self.sizes.ghr_bits) - 1
            history = (ghr & self._pht_fold_mask) ^ (ghr >> self.sizes.pht_index_bits)
        else:
            history = _fold_index(ghr, self.sizes.ghr_bits, self.sizes.pht_index_bits)
        return (base ^ history) & self._pht_index_mask

    def tage_index(self, ip: int, folded_history: int, table: int, index_bits: int) -> int:
        ip = self._truncate(ip)
        mixed = ip ^ (ip >> index_bits) ^ folded_history ^ (table * 0x9E5)
        return mixed & ((1 << index_bits) - 1)

    def tage_tag(self, ip: int, folded_history: int, table: int, tag_bits: int) -> int:
        ip = self._truncate(ip)
        mixed = ip ^ (folded_history << 1) ^ (table * 0x1F3)
        return fold_bits(mixed, BASELINE_ADDRESS_BITS, tag_bits)

    def perceptron_index(self, ip: int, table_size: int) -> int:
        return _fold_index(self._truncate(ip) >> 2, BASELINE_ADDRESS_BITS,
                           (table_size - 1).bit_length()) % table_size

    def vector_maps(self):
        if type(self) is not BaselineMappingProvider:
            return None
        return _BaselineVectorMaps(self, truncate_bits=BASELINE_ADDRESS_BITS)


def fold_bits_array(values: "object", input_bits: int, output_bits: int) -> "object":
    """Vector form of :func:`~repro.bpu.common.fold_bits` over a uint64 ndarray.

    Like it, a fold to 0 bits raises ``ValueError`` (here from ``range``).
    """
    values = values & np.uint64((1 << input_bits) - 1)
    mask = np.uint64((1 << output_bits) - 1)
    folded = values & mask
    for shift in range(output_bits, input_bits, output_bits):
        folded ^= (values >> np.uint64(shift)) & mask
    return folded


def _fold_index(values, input_bits: int, index_bits: int):
    """Fold ``values`` (an int, or a uint64 ndarray) down to a table index
    of ``index_bits`` bits.  A one-entry table's index has no bits, so every
    value indexes its one row: 0."""
    if not index_bits:
        return values & 0
    fold = fold_bits if isinstance(values, int) else fold_bits_array
    return fold(values, input_bits, index_bits)


class _BaselineVectorMaps:
    """NumPy mirror of :class:`BaselineMappingProvider` (and the full-address
    variant, which differs only in the truncation mask)."""

    __slots__ = ("provider", "sizes", "_truncate_mask")

    token_dependent = False

    def __init__(self, provider: "BaselineMappingProvider", truncate_bits: int):
        self.provider = provider
        self.sizes = provider.sizes
        self._truncate_mask = (1 << truncate_bits) - 1

    def _truncate(self, ips):
        return ips & np.uint64(self._truncate_mask)

    def pht1(self, ips, contexts=None):
        return _fold_index(self._truncate(ips) >> np.uint64(1),
                           BASELINE_ADDRESS_BITS, self.sizes.pht_index_bits)

    def pht2(self, ips, ghrs, contexts=None):
        provider = self.provider
        sizes = self.sizes
        base = self.pht1(ips)
        if provider._ghr_two_chunk_fold:
            ghrs = ghrs & np.uint64((1 << sizes.ghr_bits) - 1)
            history = (ghrs & np.uint64(provider._pht_fold_mask)) ^ (
                ghrs >> np.uint64(sizes.pht_index_bits))
        else:
            history = _fold_index(ghrs, sizes.ghr_bits, sizes.pht_index_bits)
        return (base ^ history) & np.uint64(provider._pht_index_mask)

    def btb1(self, ips, contexts=None):
        sizes = self.sizes
        truncated = self._truncate(ips)
        offset = truncated & np.uint64(self.provider._btb_offset_mask)
        index = (truncated >> np.uint64(sizes.btb_offset_bits)) & np.uint64(
            self.provider._btb_index_mask)
        tag = fold_bits_array(
            truncated >> np.uint64(self.provider._btb_tag_shift),
            BASELINE_ADDRESS_BITS, sizes.btb_tag_bits,
        )
        return index, (tag << np.uint64(sizes.btb_offset_bits)) | offset

    def btb2(self, ips, bhbs, contexts=None):
        sizes = self.sizes
        index, key = self.btb1(ips)
        offset_bits = np.uint64(sizes.btb_offset_bits)
        offset = key & np.uint64(self.provider._btb_offset_mask)
        tag = key >> offset_bits
        history_tag = fold_bits_array(bhbs, sizes.bhb_bits, sizes.btb_tag_bits)
        history_index = _fold_index(bhbs, sizes.bhb_bits, sizes.btb_index_bits)
        index = (index ^ history_index) & np.uint64(self.provider._btb_index_mask)
        tag = (tag ^ history_tag) & np.uint64(self.provider._btb_tag_mask)
        return index, (tag << offset_bits) | offset

    def tage_indices(self, ips, folded, table, index_bits, contexts=None):
        truncated = self._truncate(ips)
        mixed = (truncated ^ (truncated >> np.uint64(index_bits))
                 ^ folded
                 ^ np.asarray(table, dtype=np.uint64) * np.uint64(0x9E5))
        return mixed & np.uint64((1 << index_bits) - 1)

    def tage_tags(self, ips, folded, table, tag_bits, contexts=None):
        # The scalar tage_tag folds from BASELINE_ADDRESS_BITS even for the
        # full-address provider (only the truncation differs), mirrored here.
        mixed = (self._truncate(ips) ^ (folded << np.uint64(1))
                 ^ np.asarray(table, dtype=np.uint64) * np.uint64(0x1F3))
        return fold_bits_array(mixed, BASELINE_ADDRESS_BITS, tag_bits)

    def perceptron_rows(self, ips, table_size, contexts=None):
        folded = _fold_index(self._truncate(ips) >> np.uint64(2),
                             BASELINE_ADDRESS_BITS, (table_size - 1).bit_length())
        return folded % np.uint64(table_size)


class FullAddressMappingProvider(BaselineMappingProvider):
    """Mapping provider for the paper's *conservative* protection model.

    The conservative model stores full, untruncated 48-bit addresses so that
    no two distinct branches can alias inside a structure.  We model this by
    feeding all 48 bits into the index/tag functions and disabling tag
    folding; its capacity cost is modelled separately in
    :mod:`repro.bpu.protections`.
    """

    __slots__ = ()

    def _truncate(self, ip: int) -> int:
        return ip

    def vector_maps(self):
        from repro.trace.branch import VIRTUAL_ADDRESS_BITS

        if type(self) is not FullAddressMappingProvider:
            return None
        return _BaselineVectorMaps(self, truncate_bits=VIRTUAL_ADDRESS_BITS)


class IdentityTargetCodec(TargetCodec):
    """Baseline stored-target handling: the 32 low target bits are stored verbatim."""

    __slots__ = ()

    def encode(self, target: int) -> int:
        return target & STORED_TARGET_MASK

    def decode(self, stored: int) -> int:
        return stored & STORED_TARGET_MASK

    def extend(self, stored: int, ip: int) -> int:
        # Identity decode inlined: stored values were masked on encode, so the
        # per-hit decode round-trip of the base implementation is skipped.
        return ((ip >> STORED_TARGET_BITS) << STORED_TARGET_BITS) | (
            stored & STORED_TARGET_MASK
        )

    def vector_encode(self, targets):
        if type(self) is not IdentityTargetCodec:
            return None
        return targets & np.uint64(STORED_TARGET_MASK)
