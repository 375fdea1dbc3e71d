"""Composite BPU model: direction predictor + BTB + RSB + history registers.

This is the full front-end predictor the simulators drive.  A direction
component (SKLCond hybrid, TAGE-SC-L, or Perceptron) predicts conditional
branches; the BTB predicts targets (mode 1 for direct/conditional branches,
mode 2 with the BHB for indirect branches); the RSB predicts returns, falling
back to the indirect path on underflow.  The composite also performs all the
training/update traffic and reports the micro-events (mispredictions, BTB
evictions, RSB underflows) that both the evaluation metrics and the STBPU
monitoring hardware consume.
"""

from __future__ import annotations

from typing import Protocol

from repro.bpu.btb import BranchTargetBuffer
from repro.bpu.common import (
    AccessResult,
    BranchPredictorModel,
    Prediction,
    StructureSizes,
)
from repro.bpu.history import HistoryState
from repro.bpu.mapping import (
    BaselineMappingProvider,
    IdentityTargetCodec,
    MappingProvider,
    TargetCodec,
)
from repro.bpu.pht import SKLConditionalPredictor
from repro.bpu.rsb import ReturnStackBuffer
from repro.trace.branch import (
    VIRTUAL_ADDRESS_MASK,
    BranchRecord,
    BranchType,
)


class DirectionComponent(Protocol):
    """Minimal interface a conditional direction predictor must provide."""

    name: str

    def predict(self, ip: int, history: HistoryState) -> object: ...

    def update(self, prediction: object, taken: bool, ip: int = 0) -> None: ...

    def flush(self) -> None: ...


class CompositeBPU(BranchPredictorModel):
    """A complete, unprotected branch prediction unit.

    Args:
        direction: Conditional direction component (SKLCond, TAGE, Perceptron).
        sizes: Structure dimensions.
        mapping: Address-mapping provider shared by the BTB and the direction
            component's own mapping (callers usually construct both with the
            same provider).
        codec: Stored-target codec shared by BTB and RSB.
        name: Model label used in experiment output.
        btb_capacity_scale: Fractional BTB capacity, used by the conservative
            protection model.
    """

    __slots__ = ("sizes", "mapping", "codec", "direction", "btb", "rsb", "history", "name")

    def __init__(
        self,
        direction: DirectionComponent,
        sizes: StructureSizes | None = None,
        mapping: MappingProvider | None = None,
        codec: TargetCodec | None = None,
        name: str | None = None,
        btb_capacity_scale: float = 1.0,
    ):
        self.sizes = sizes if sizes is not None else StructureSizes()
        self.mapping = mapping if mapping is not None else BaselineMappingProvider(self.sizes)
        self.codec = codec if codec is not None else IdentityTargetCodec()
        self.direction = direction
        self.btb = BranchTargetBuffer(
            self.sizes, self.mapping, self.codec, capacity_scale=btb_capacity_scale
        )
        self.rsb = ReturnStackBuffer(self.sizes.rsb_entries, self.codec)
        self.history = HistoryState()
        self.history.ghr.bits = self.sizes.ghr_bits
        self.history.bhb.bits = self.sizes.bhb_bits
        self.name = name if name is not None else f"composite-{direction.name}"

    # ------------------------------------------------------------------ access

    def access(self, branch: BranchRecord) -> AccessResult:
        """Predict-resolve-train without the structure-level event channel.

        Equivalent to :meth:`access_with_events` with the BTB-eviction signal
        suppressed, which is all the difference ever was between the two entry
        points.
        """
        result = self.access_with_events(branch)
        result.btb_eviction = False
        return result

    def access_with_events(self, branch: BranchRecord) -> AccessResult:
        """One predict-then-update access with micro-events folded in.

        This is the replay hot path (called once per branch record for every
        model in a grid), so predict / resolve / train are a single body over
        locally bound structures rather than three dispatched helpers, and
        branch categories are tested with ``is`` on the enum members instead
        of through the :class:`~repro.trace.branch.BranchType` properties.
        """
        btb = self.btb
        history = self.history
        ip = branch.ip
        taken = branch.taken
        branch_type = branch.branch_type
        is_conditional = branch_type is BranchType.CONDITIONAL
        rsb_underflow = False
        direction_state = None
        evictions_before = btb.eviction_count

        # ------------------------------------------------------------ predict
        btb_hit = False
        if is_conditional:
            direction_state = self.direction.predict(ip, history)
            if direction_state.taken:
                lookup = btb.lookup(ip)
                if lookup.hit:
                    btb_hit = True
                    prediction = Prediction(True, lookup.predicted_target, "btb-mode1")
                else:
                    prediction = Prediction(True, None, "static")
            else:
                prediction = Prediction(False, (ip + 4) & VIRTUAL_ADDRESS_MASK, "static")
        elif branch_type is BranchType.DIRECT_JUMP or branch_type is BranchType.DIRECT_CALL:
            lookup = btb.lookup(ip)
            if lookup.hit:
                btb_hit = True
                prediction = Prediction(True, lookup.predicted_target, "btb-mode1")
            else:
                prediction = Prediction(True, None, "static")
        elif branch_type is BranchType.INDIRECT_JUMP or branch_type is BranchType.INDIRECT_CALL:
            lookup = btb.lookup(ip, history.bhb.value)
            if lookup.hit:
                btb_hit = True
                prediction = Prediction(True, lookup.predicted_target, "btb-mode2")
            else:
                fallback = btb.lookup(ip)
                if fallback.hit:
                    btb_hit = True
                    prediction = Prediction(True, fallback.predicted_target, "btb-mode1")
                else:
                    prediction = Prediction(True, None, "static")
        else:
            # Returns: RSB first, indirect predictor (BTB mode 2) on underflow.
            pop = self.rsb.pop(ip)
            if not pop.underflow:
                prediction = Prediction(True, pop.predicted_target, "rsb")
            else:
                rsb_underflow = True
                lookup = btb.lookup(ip, history.bhb.value)
                if lookup.hit:
                    btb_hit = True
                    prediction = Prediction(True, lookup.predicted_target, "btb-mode2")
                else:
                    prediction = Prediction(True, None, "static")

        # ------------------------------------------------------------ resolve
        direction_correct = prediction.taken == taken if is_conditional else True
        if taken:
            predicted_target = prediction.target
            target_correct = predicted_target is not None and predicted_target == branch.target
        else:
            # A not-taken branch needs no target prediction; fall-through is implied.
            target_correct = True
        effective_correct = direction_correct and target_correct

        # -------------------------------------------------------------- train
        if direction_state is not None:
            self.direction.update(direction_state, taken, ip=ip)
            history.record_conditional(taken)

        if taken:
            self._update_btb(branch, branch_type)
            if (
                is_conditional
                or branch_type is BranchType.DIRECT_JUMP
                or branch_type is BranchType.DIRECT_CALL
            ):
                # Taken direct branches/calls feed the BHB (paper Section II-A).
                history.record_taken_branch(ip, branch.target)

        if branch_type is BranchType.DIRECT_CALL or branch_type is BranchType.INDIRECT_CALL:
            self.rsb.push((ip + 4) & VIRTUAL_ADDRESS_MASK)

        # Positional construction (field order of AccessResult): prediction,
        # direction_correct, target_correct, effective_correct, btb_hit,
        # btb_eviction, rsb_underflow, mispredicted.
        return AccessResult(
            prediction,
            direction_correct,
            target_correct,
            effective_correct,
            btb_hit,
            btb.eviction_count > evictions_before,
            rsb_underflow,
            not effective_correct,
        )

    def _update_btb(self, branch: BranchRecord, branch_type: BranchType | None = None):
        branch_type = branch_type if branch_type is not None else branch.branch_type
        if branch_type in (
            BranchType.INDIRECT_JUMP,
            BranchType.INDIRECT_CALL,
            BranchType.RETURN,
        ):
            # Indirect branches and returns install via addressing mode 2
            # (returns only through this path — the RSB is their primary).
            return self.btb.update(branch.ip, branch.target, self.history.bhb.value)
        return self.btb.update(branch.ip, branch.target)

    # ------------------------------------------------------------------- admin

    def vector_kernel(self):
        """Array-kernel replay engine for this composite, or ``None``.

        Every shipped direction component has a span stepper: SKL
        composites replay fully in array kernels, TAGE and Perceptron
        composites through guarded per-span specialization.  ``None`` only
        remains for unrecognized structure variants; their replays run the
        reference loop and count in ``repro_replay_declines_total`` — see
        :func:`repro.sim.vector.kernel_status`.
        """
        from repro.sim import vector

        return vector.composite_kernel(self)

    def reset(self) -> None:
        self.direction.flush()
        self.btb.flush()
        self.rsb.flush()
        self.history.clear()

    def flush_predictor_state(self) -> int:
        """Flush everything (IBPB-style); returns number of BTB entries dropped."""
        dropped = self.btb.flush()
        self.rsb.flush()
        self.direction.flush()
        self.history.clear()
        return dropped


def make_skl_composite(
    sizes: StructureSizes | None = None,
    mapping: MappingProvider | None = None,
    codec: TargetCodec | None = None,
    name: str = "SKL-baseline",
    btb_capacity_scale: float = 1.0,
) -> CompositeBPU:
    """Build the baseline Skylake-style composite predictor."""
    sizes = sizes if sizes is not None else StructureSizes()
    mapping = mapping if mapping is not None else BaselineMappingProvider(sizes)
    direction = SKLConditionalPredictor(sizes, mapping)
    return CompositeBPU(
        direction,
        sizes=sizes,
        mapping=mapping,
        codec=codec,
        name=name,
        btb_capacity_scale=btb_capacity_scale,
    )
