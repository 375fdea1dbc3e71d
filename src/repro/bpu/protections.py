"""Microcode-style and structural BPU protection baselines.

The paper compares STBPU against:

* **µcode protection 1** — IBPB + IBRS + STIBP: the BPU is flushed on context
  switches (IBPB) *and* on privilege-mode switches (IBRS), and SMT threads are
  logically segmented (STIBP, modelled as a halved BTB).
* **µcode protection 2** — IBPB + IBRS without STIBP: flushes on context
  switches and kernel entries only.
* **conservative** — a structural redesign that stores full 48-bit addresses
  (preventing all aliasing) and partitions the structures per software
  context; preventing collisions this way costs BTB capacity (fewer entries in
  the same hardware budget) and forfeits cross-process history sharing.

All three are modelled as wrappers/configurations of the same
:class:`~repro.bpu.composite.CompositeBPU` used for the unprotected baseline,
so the only differences measured are the protection policies themselves.
"""

from __future__ import annotations

from repro.bpu.common import AccessResult, BranchPredictorModel, StructureSizes
from repro.bpu.composite import CompositeBPU, make_skl_composite
from repro.bpu.mapping import BTBLookupKey, FullAddressMappingProvider, MappingProvider
from repro.bpu.pht import SKLConditionalPredictor
from repro.trace.branch import BranchRecord, PrivilegeMode


class FlushingProtectedBPU(BranchPredictorModel):
    """IBPB/IBRS/STIBP-style protection: flush shared state on OS events.

    Args:
        inner: The protected composite predictor.
        flush_on_context_switch: Model IBPB (flush on every context switch).
        flush_on_mode_switch: Model IBRS (flush when entering the kernel so
            lower-privilege state cannot steer higher-privilege speculation).

    STIBP is modelled only by the halved BTB that
    :func:`make_ucode_protection_1` builds (``btb_capacity_scale=0.5``).
    """

    __slots__ = ("inner", "name", "flush_on_context_switch",
                 "flush_on_mode_switch", "flush_count", "_current_context")

    def __init__(
        self,
        inner: CompositeBPU,
        name: str,
        flush_on_context_switch: bool = True,
        flush_on_mode_switch: bool = True,
    ):
        self.inner = inner
        self.name = name
        self.flush_on_context_switch = flush_on_context_switch
        self.flush_on_mode_switch = flush_on_mode_switch
        self.flush_count = 0
        self._current_context: int | None = None

    def access(self, branch: BranchRecord) -> AccessResult:
        return self.inner.access_with_events(branch)

    def access_with_events(self, branch: BranchRecord) -> AccessResult:
        # Identical to access(); overridden to skip the base-class indirection
        # on the per-branch hot path.
        return self.inner.access_with_events(branch)

    def protection_stats(self) -> dict[str, int]:
        return {"flushes": self.flush_count}

    def vector_kernel(self):
        from repro.sim import vector

        return vector.flushing_kernel(self)

    def reset(self) -> None:
        self.inner.reset()
        self.flush_count = 0
        self._current_context = None

    def on_context_switch(self, context_id: int) -> None:
        if self._current_context is not None and context_id != self._current_context:
            if self.flush_on_context_switch:
                self.inner.flush_predictor_state()
                self.flush_count += 1
        self._current_context = context_id

    def on_mode_switch(self, mode: PrivilegeMode, context_id: int) -> None:
        del context_id
        if mode is PrivilegeMode.KERNEL and self.flush_on_mode_switch:
            self.inner.flush_predictor_state()
            self.flush_count += 1

    def on_interrupt(self, context_id: int) -> None:
        # Interrupt delivery enters the kernel; IBRS-style protection flushes.
        if self.flush_on_mode_switch:
            self.inner.flush_predictor_state()
            self.flush_count += 1
        del context_id


class _PartitionedMappingProvider(MappingProvider):
    """Wraps a mapping provider and segregates structures per software context.

    The conservative model isolates contexts by dedicating a slice of each
    structure to each context: the context identifier is mixed into every
    index so two contexts can never address the same entry (modelling a
    physically partitioned or way-partitioned structure).
    """

    __slots__ = ("base", "partitions", "current_context")

    def __init__(self, base: MappingProvider, partitions: int = 4):
        super().__init__(base.sizes)
        self.base = base
        self.partitions = max(1, partitions)
        self.current_context = 0

    def _slot(self) -> int:
        return self.current_context % self.partitions

    def _partition_index(self, index: int, table_entries: int) -> int:
        slice_size = max(1, table_entries // self.partitions)
        return (self._slot() * slice_size + (index % slice_size)) % table_entries

    def btb_mode1(self, ip: int) -> BTBLookupKey:
        key = self.base.btb_mode1(ip)
        return BTBLookupKey(
            index=self._partition_index(key.index, self.sizes.btb_sets),
            tag=key.tag,
            offset=key.offset,
        )

    def btb_mode2(self, ip: int, bhb: int) -> BTBLookupKey:
        key = self.base.btb_mode2(ip, bhb)
        return BTBLookupKey(
            index=self._partition_index(key.index, self.sizes.btb_sets),
            tag=key.tag,
            offset=key.offset,
        )

    def pht_index_1level(self, ip: int) -> int:
        return self._partition_index(self.base.pht_index_1level(ip), self.sizes.pht_entries)

    def pht_index_2level(self, ip: int, ghr: int) -> int:
        return self._partition_index(self.base.pht_index_2level(ip, ghr), self.sizes.pht_entries)

    def tage_index(self, ip: int, folded_history: int, table: int, index_bits: int) -> int:
        index = self.base.tage_index(ip, folded_history, table, index_bits)
        return self._partition_index(index, 1 << index_bits)

    def tage_tag(self, ip: int, folded_history: int, table: int, tag_bits: int) -> int:
        return self.base.tage_tag(ip, folded_history, table, tag_bits)

    def perceptron_index(self, ip: int, table_size: int) -> int:
        return self._partition_index(self.base.perceptron_index(ip, table_size), table_size)

    def vector_maps(self):
        if type(self) is not _PartitionedMappingProvider:
            return None
        base_maps = self.base.vector_maps()
        if base_maps is None:
            return None
        return _PartitionedVectorMaps(self, base_maps)


class _PartitionedVectorMaps:
    """NumPy mirror of :class:`_PartitionedMappingProvider`.

    Unlike the scalar provider — which reads ``current_context`` mutated
    before every access — the vector view receives the per-branch context
    array explicitly, which is exactly the value each access would have
    installed.
    """

    __slots__ = ("provider", "base")

    token_dependent = False

    def __init__(self, provider: _PartitionedMappingProvider, base_maps):
        self.provider = provider
        self.base = base_maps

    def _partition(self, indices, contexts, table_entries: int):
        import numpy as np

        partitions = self.provider.partitions
        slice_size = max(1, table_entries // partitions)
        slots = (contexts % partitions).astype(np.uint64)
        return (slots * np.uint64(slice_size)
                + (indices % np.uint64(slice_size))) % np.uint64(table_entries)

    def pht1(self, ips, contexts=None):
        return self._partition(self.base.pht1(ips), contexts,
                               self.provider.sizes.pht_entries)

    def pht2(self, ips, ghrs, contexts=None):
        return self._partition(self.base.pht2(ips, ghrs), contexts,
                               self.provider.sizes.pht_entries)

    def btb1(self, ips, contexts=None):
        index, key = self.base.btb1(ips)
        return self._partition(index, contexts, self.provider.sizes.btb_sets), key

    def btb2(self, ips, bhbs, contexts=None):
        index, key = self.base.btb2(ips, bhbs)
        return self._partition(index, contexts, self.provider.sizes.btb_sets), key


class ConservativeBPU(BranchPredictorModel):
    """Structural collision-free baseline: full addresses + per-context partitioning.

    Storing untagged 48-bit addresses roughly doubles the per-entry cost, so
    under an unchanged hardware budget the BTB holds half as many entries
    (``btb_capacity_scale=0.5``).  Contexts are partitioned so no cross-process
    collisions are possible; the partition count adapts to how many contexts
    have been observed.
    """

    __slots__ = ("sizes", "_mapping", "inner", "name")

    def __init__(self, sizes: StructureSizes | None = None, partitions: int = 4):
        self.sizes = sizes if sizes is not None else StructureSizes()
        base_mapping = FullAddressMappingProvider(self.sizes)
        self._mapping = _PartitionedMappingProvider(base_mapping, partitions)
        direction = SKLConditionalPredictor(self.sizes, self._mapping)
        self.inner = CompositeBPU(
            direction,
            sizes=self.sizes,
            mapping=self._mapping,
            name="conservative",
            btb_capacity_scale=0.5,
        )
        self.name = "conservative"

    def access(self, branch: BranchRecord) -> AccessResult:
        self._mapping.current_context = branch.context_id
        return self.inner.access_with_events(branch)

    access_with_events = access

    def reset(self) -> None:
        self.inner.reset()

    def on_context_switch(self, context_id: int) -> None:
        self._mapping.current_context = context_id

    def vector_kernel(self):
        from repro.sim import vector

        return vector.conservative_kernel(self)


def make_unprotected_baseline(sizes: StructureSizes | None = None) -> CompositeBPU:
    """The unprotected Skylake-style baseline used for normalization."""
    return make_skl_composite(sizes, name="baseline")


def make_ucode_protection_1(sizes: StructureSizes | None = None) -> FlushingProtectedBPU:
    """µcode protection 1: IBPB + IBRS + STIBP.

    IBPB flushes on context switches, IBRS on kernel entries, and STIBP
    logically segments the BPU between the two hardware threads of a core —
    modelled as halving the effective BTB capacity available to each thread.
    """
    inner = make_skl_composite(sizes, name="ucode1-inner", btb_capacity_scale=0.5)
    return FlushingProtectedBPU(
        inner,
        name="ucode_protection_1",
        flush_on_context_switch=True,
        flush_on_mode_switch=True,
    )


def make_ucode_protection_2(sizes: StructureSizes | None = None) -> FlushingProtectedBPU:
    """µcode protection 2: IBPB + IBRS without STIBP (full capacity, same flushes)."""
    inner = make_skl_composite(sizes, name="ucode2-inner")
    return FlushingProtectedBPU(
        inner,
        name="ucode_protection_2",
        flush_on_context_switch=True,
        flush_on_mode_switch=True,
    )


def make_conservative(sizes: StructureSizes | None = None, partitions: int = 4) -> ConservativeBPU:
    """The conservative full-address, partitioned baseline."""
    return ConservativeBPU(sizes, partitions)
