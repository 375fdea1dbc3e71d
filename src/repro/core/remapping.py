"""STBPU keyed remapping functions ``R1..R4, Rt, Rp``.

The baseline BPU locates entries through deterministic compression functions
of a *truncated* branch address.  STBPU replaces them with keyed remappings
that (a) consume the full 48-bit virtual address, closing the
same-address-space collision channel, and (b) mix in the per-process ψ token
so entries of different software entities live at unrelated locations
(paper Section IV-B, Table II).

The hardware realisation is a layered network of S-boxes, P-boxes and
compression boxes found by the generator in :mod:`repro.hashgen`.  For the
functional model we need the same *statistical* behaviour — uniform,
avalanching, key-dependent outputs — at Python speed, so the remappings here
are built from an integer mixing core (two rounds of xor-shift-multiply,
the SplitMix64 finalizer) keyed by ψ.  The hashgen package demonstrates that
an equivalent single-cycle gate-level construction exists and validates it
against the same uniformity and avalanche criteria.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bpu.common import StructureSizes
from repro.bpu.mapping import BTBLookupKey, MappingProvider
from repro.core.secret_token import SecretToken
from repro.trace.branch import VIRTUAL_ADDRESS_MASK

_MASK64 = (1 << 64) - 1


def mix64(value: int) -> int:
    """SplitMix64 finalizer: a fast, well-avalanching 64-bit mixer."""
    value &= _MASK64
    value = (value ^ (value >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    value = (value ^ (value >> 27)) * 0x94D049BB133111EB & _MASK64
    return value ^ (value >> 31)


def keyed_remap(psi: int, *inputs: int, output_bits: int, domain: int) -> int:
    """Core keyed remapping: reduce ``inputs`` to ``output_bits`` bits under key ψ.

    The construction absorbs every input with a distinct odd multiplier and
    applies one SplitMix64 finalizing round, which is enough to give the
    uniformity and avalanche behaviour the design requires (validated by the
    property tests and by :mod:`repro.hashgen`'s metrics) while staying cheap
    enough to run millions of times per simulation.

    Args:
        psi: 32-bit remapping key (the ψ half of the secret token).
        inputs: Arbitrary integers (branch address, BHB, GHR, table number...).
        output_bits: Width of the result.
        domain: Distinct constant per remapping function so R1..R4 produce
            independent outputs even for identical inputs.
    """
    if output_bits <= 0:
        raise ValueError("output_bits must be positive")
    state = ((psi << 17) ^ (domain * 0x9E3779B97F4A7C15)) & _MASK64
    for position, value in enumerate(inputs):
        state ^= ((value & _MASK64) + (position + 1) * 0xD1B54A32D192ED03) * 0xFF51AFD7ED558CCD
        state &= _MASK64
        state = ((state << 13) | (state >> 51)) & _MASK64
    return mix64(state) & ((1 << output_bits) - 1)


@dataclass(frozen=True, slots=True)
class RemapFunctionSpec:
    """One row of the paper's Table II: input/output bit budget of a remapping."""

    label: str
    baseline_input_bits: int
    stbpu_input_bits: int
    output_bits: int
    output_description: str

    @property
    def compression_ratio(self) -> float:
        return self.stbpu_input_bits / self.output_bits


#: Table II of the paper: I/O bits for baseline and STBPU remapping functions.
TABLE_II: dict[str, RemapFunctionSpec] = {
    "R1": RemapFunctionSpec("R1", baseline_input_bits=32, stbpu_input_bits=32 + 48,
                            output_bits=9 + 8 + 5, output_description="9 ind, 8 tag, 5 offs"),
    "R2": RemapFunctionSpec("R2", baseline_input_bits=58, stbpu_input_bits=32 + 58,
                            output_bits=8, output_description="8 tag"),
    "R3": RemapFunctionSpec("R3", baseline_input_bits=32, stbpu_input_bits=32 + 48,
                            output_bits=14, output_description="14 ind"),
    "R4": RemapFunctionSpec("R4", baseline_input_bits=18 + 32, stbpu_input_bits=32 + 16 + 48,
                            output_bits=14, output_description="14 ind"),
    "Rt": RemapFunctionSpec("Rt", baseline_input_bits=48, stbpu_input_bits=32 + 48,
                            output_bits=25, output_description="10/13 ind, 8/12 tag"),
    "Rp": RemapFunctionSpec("Rp", baseline_input_bits=48, stbpu_input_bits=32 + 48,
                            output_bits=10, output_description="10 ind"),
}

# Domain-separation constants, one per remapping function.
_DOMAIN_R1 = 1
_DOMAIN_R2 = 2
_DOMAIN_R3 = 3
_DOMAIN_R4 = 4
_DOMAIN_RT_INDEX = 5
_DOMAIN_RT_TAG = 6
_DOMAIN_RP = 7


class STMappingProvider(MappingProvider):
    """Mapping provider whose outputs depend on the current secret token.

    The provider holds a mutable reference to the active token; the STBPU
    hardware layer swaps it on context switches and re-randomizations, and
    every subsequent lookup immediately uses the new mapping (old entries
    simply become unreachable, which is how re-randomization "discards"
    history without flushing anything).
    """

    #: Entry bound for the per-instance memoisation of address-only remappings.
    _CACHE_LIMIT = 1 << 18

    def __init__(self, token: SecretToken, sizes: StructureSizes | None = None):
        super().__init__(sizes)
        self._token = token
        # Hot branch addresses repeat millions of times per simulation while ψ
        # changes only on re-randomization, so address-only remappings are
        # memoised per (ψ, ip).  History-dependent remappings are not cached.
        self._mode1_cache: dict[tuple[int, int], BTBLookupKey] = {}
        self._pht1_cache: dict[tuple[int, int], int] = {}

    @property
    def token(self) -> SecretToken:
        return self._token

    def set_token(self, token: SecretToken) -> None:
        self._token = token

    # -------------------------------------------------------- remapping R1..R4

    def btb_mode1(self, ip: int) -> BTBLookupKey:
        """R1: full 48-bit address + ψ → 9-bit index, 8-bit tag, 5-bit offset."""
        sizes = self.sizes
        psi = self._token.psi
        ip &= VIRTUAL_ADDRESS_MASK
        cache_key = (psi, ip)
        cached = self._mode1_cache.get(cache_key)
        if cached is not None:
            return cached
        total_bits = sizes.btb_index_bits + sizes.btb_tag_bits + sizes.btb_offset_bits
        digest = keyed_remap(psi, ip, output_bits=total_bits, domain=_DOMAIN_R1)
        offset = digest & ((1 << sizes.btb_offset_bits) - 1)
        digest >>= sizes.btb_offset_bits
        tag = digest & ((1 << sizes.btb_tag_bits) - 1)
        digest >>= sizes.btb_tag_bits
        index = digest & (sizes.btb_sets - 1)
        key = BTBLookupKey(index=index, tag=tag, offset=offset)
        if len(self._mode1_cache) >= self._CACHE_LIMIT:
            self._mode1_cache.clear()
        self._mode1_cache[cache_key] = key
        return key

    def btb_mode2(self, ip: int, bhb: int) -> BTBLookupKey:
        """R1 index/offset combined with R2: ψ + BHB → tag for indirect lookups."""
        sizes = self.sizes
        psi = self._token.psi
        base = self.btb_mode1(ip)
        tag = keyed_remap(psi, ip, bhb, output_bits=sizes.btb_tag_bits, domain=_DOMAIN_R2)
        # A 1-set BTB (like a 1-entry PHT) has a 0-bit index: remap one bit
        # and let the mask keep set 0.
        index = keyed_remap(psi, ip, bhb, output_bits=max(1, sizes.btb_index_bits),
                            domain=_DOMAIN_R2 + 16)
        return BTBLookupKey(index=index & (sizes.btb_sets - 1), tag=tag, offset=base.offset)

    def pht_index_1level(self, ip: int) -> int:
        """R3: ψ + 48-bit address → 14-bit PHT index."""
        psi = self._token.psi
        ip &= VIRTUAL_ADDRESS_MASK
        cache_key = (psi, ip)
        cached = self._pht1_cache.get(cache_key)
        if cached is not None:
            return cached
        index = keyed_remap(
            psi, ip, output_bits=max(1, self.sizes.pht_index_bits), domain=_DOMAIN_R3,
        ) & (self.sizes.pht_entries - 1)
        if len(self._pht1_cache) >= self._CACHE_LIMIT:
            self._pht1_cache.clear()
        self._pht1_cache[cache_key] = index
        return index

    def pht_index_2level(self, ip: int, ghr: int) -> int:
        """R4: ψ + GHR + 48-bit address → 14-bit PHT index."""
        return keyed_remap(
            self._token.psi, ip & VIRTUAL_ADDRESS_MASK, ghr,
            output_bits=max(1, self.sizes.pht_index_bits), domain=_DOMAIN_R4,
        ) & (self.sizes.pht_entries - 1)

    # ------------------------------------------------------------- Rt and Rp

    def tage_index(self, ip: int, folded_history: int, table: int, index_bits: int) -> int:
        """Rt (index part): ψ + address + folded geometric history → table index."""
        return keyed_remap(
            self._token.psi, ip & VIRTUAL_ADDRESS_MASK, folded_history, table,
            output_bits=index_bits, domain=_DOMAIN_RT_INDEX,
        )

    def tage_tag(self, ip: int, folded_history: int, table: int, tag_bits: int) -> int:
        """Rt (tag part): ψ + address + folded history → partial tag."""
        return keyed_remap(
            self._token.psi, ip & VIRTUAL_ADDRESS_MASK, folded_history, table,
            output_bits=tag_bits, domain=_DOMAIN_RT_TAG,
        )

    def perceptron_index(self, ip: int, table_size: int) -> int:
        """Rp: ψ + address → perceptron row."""
        bits = max(1, (table_size - 1).bit_length())
        return keyed_remap(
            self._token.psi, ip & VIRTUAL_ADDRESS_MASK,
            output_bits=bits, domain=_DOMAIN_RP,
        ) % table_size

    def vector_maps(self):
        if type(self) is not STMappingProvider:
            return None
        return _STVectorMaps(self)


def mix64_array(values: "object") -> "object":
    """Array form of :func:`mix64` (uint64 arithmetic wraps like the masked ints)."""
    import numpy as np

    values = (values ^ (values >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    values = (values ^ (values >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return values ^ (values >> np.uint64(31))


def keyed_remap_array(psi: "int | object", *inputs: "object", output_bits: int,
                      domain: int) -> "object":
    """Array form of :func:`keyed_remap`; each input is a uint64 ndarray.

    ``psi`` is one key for every element, or a uint64 ndarray holding each
    element's own key (the STBPU kernel's per-branch ψ column).
    """
    import numpy as np

    # uint64 shifts wrap exactly like keyed_remap's masked integer arithmetic.
    state0 = (np.asarray(psi, dtype=np.uint64) << np.uint64(17)) ^ np.uint64(
        (domain * 0x9E3779B97F4A7C15) & _MASK64)
    state = None
    for position, value in enumerate(inputs):
        absorbed = (value + np.uint64((position + 1) * 0xD1B54A32D192ED03 & _MASK64)
                    ) * np.uint64(0xFF51AFD7ED558CCD)
        state = (state0 ^ absorbed) if state is None else (state ^ absorbed)
        state = (state << np.uint64(13)) | (state >> np.uint64(51))
    if state is None:  # pragma: no cover - remappings always absorb inputs
        state = state0
    return mix64_array(state) & np.uint64((1 << output_bits) - 1)


class _STVectorMaps:
    """NumPy mirror of :class:`STMappingProvider`.

    ψ is per-element data.  With ``psi_table`` unset every method reads the
    provider's live token, like the scalar methods.  The STBPU kernel sets it
    to its slot → ψ table (a uint64 ndarray it refreshes in place whenever a
    token changes) and passes slot numbers as ``contexts``; each element then
    gathers its own ψ, so one call can cross context switches.
    """

    token_dependent = True

    def __init__(self, provider: STMappingProvider):
        self.provider = provider
        self.sizes = provider.sizes
        self.psi_table = None

    def _psi(self, contexts):
        if self.psi_table is None or contexts is None:
            return self.provider._token.psi
        return self.psi_table[contexts]

    def pht1(self, ips, contexts=None):
        import numpy as np

        sizes = self.sizes
        index = keyed_remap_array(
            self._psi(contexts), ips & np.uint64(VIRTUAL_ADDRESS_MASK),
            output_bits=max(1, sizes.pht_index_bits), domain=_DOMAIN_R3,
        )
        return index & np.uint64(sizes.pht_entries - 1)

    def pht2(self, ips, ghrs, contexts=None):
        import numpy as np

        sizes = self.sizes
        index = keyed_remap_array(
            self._psi(contexts), ips & np.uint64(VIRTUAL_ADDRESS_MASK), ghrs,
            output_bits=max(1, sizes.pht_index_bits), domain=_DOMAIN_R4,
        )
        return index & np.uint64(sizes.pht_entries - 1)

    def btb1(self, ips, contexts=None):
        import numpy as np

        sizes = self.sizes
        total_bits = sizes.btb_index_bits + sizes.btb_tag_bits + sizes.btb_offset_bits
        digest = keyed_remap_array(
            self._psi(contexts), ips & np.uint64(VIRTUAL_ADDRESS_MASK),
            output_bits=total_bits, domain=_DOMAIN_R1,
        )
        offset_bits = np.uint64(sizes.btb_offset_bits)
        key_mask = np.uint64((1 << (sizes.btb_tag_bits + sizes.btb_offset_bits)) - 1)
        # The digest's low tag+offset bits are the match key verbatim (offset
        # low, tag above it — the same packing the scalar key uses).
        key = digest & key_mask
        index = (digest >> (offset_bits + np.uint64(sizes.btb_tag_bits))
                 ) & np.uint64(sizes.btb_sets - 1)
        return index, key

    def btb2(self, ips, bhbs, contexts=None):
        import numpy as np

        sizes = self.sizes
        psi = self._psi(contexts)
        masked = ips & np.uint64(VIRTUAL_ADDRESS_MASK)
        _, base_key = self.btb1(ips, contexts)
        offset_bits = np.uint64(sizes.btb_offset_bits)
        offset = base_key & np.uint64((1 << sizes.btb_offset_bits) - 1)
        tag = keyed_remap_array(psi, masked, bhbs,
                                output_bits=sizes.btb_tag_bits, domain=_DOMAIN_R2)
        index = keyed_remap_array(psi, masked, bhbs,
                                  output_bits=max(1, sizes.btb_index_bits),
                                  domain=_DOMAIN_R2 + 16)
        return index & np.uint64(sizes.btb_sets - 1), (tag << offset_bits) | offset

    def tage_indices(self, ips, folded, table, index_bits, contexts=None):
        import numpy as np

        tables = np.asarray(table, dtype=np.uint64)
        if tables.shape != np.shape(ips):
            tables = np.full(np.shape(ips), tables, dtype=np.uint64)
        return keyed_remap_array(
            self._psi(contexts), ips & np.uint64(VIRTUAL_ADDRESS_MASK),
            folded, tables,
            output_bits=index_bits, domain=_DOMAIN_RT_INDEX,
        )

    def tage_tags(self, ips, folded, table, tag_bits, contexts=None):
        import numpy as np

        tables = np.asarray(table, dtype=np.uint64)
        if tables.shape != np.shape(ips):
            tables = np.full(np.shape(ips), tables, dtype=np.uint64)
        return keyed_remap_array(
            self._psi(contexts), ips & np.uint64(VIRTUAL_ADDRESS_MASK),
            folded, tables,
            output_bits=tag_bits, domain=_DOMAIN_RT_TAG,
        )

    def perceptron_rows(self, ips, table_size, contexts=None):
        import numpy as np

        bits = max(1, (table_size - 1).bit_length())
        rows = keyed_remap_array(
            self._psi(contexts), ips & np.uint64(VIRTUAL_ADDRESS_MASK),
            output_bits=bits, domain=_DOMAIN_RP,
        )
        return rows % np.uint64(table_size)
