"""Common types shared by all branch-predictor models.

The predictor models are *functional*: they consume a stream of
:class:`~repro.trace.branch.BranchRecord` objects and for each one report
what the hardware would have predicted and which micro-events (BTB hit,
eviction, RSB underflow, misprediction) the access generated.  All protection
schemes — microcode flushing, the conservative model, and STBPU — observe the
same interface, which is what lets the evaluation treat them uniformly.
"""

from __future__ import annotations

import abc
import dataclasses
from dataclasses import dataclass, field

from repro.trace.branch import BranchRecord, BranchType, PrivilegeMode


@dataclass(slots=True)
class Prediction:
    """What the front end predicted for one branch before resolution.

    Attributes:
        taken: Predicted direction (always ``True`` for unconditional branches).
        target: Predicted 48-bit target, or ``None`` when no target prediction
            was available (BTB miss and empty RSB), in which case the front end
            falls back to the static next-sequential-instruction prediction.
        source: Short label of the structure that produced the target
            (``"btb-mode1"``, ``"btb-mode2"``, ``"rsb"``, ``"static"``); useful
            in tests and attack code.
    """

    taken: bool
    target: int | None
    source: str = "static"


@dataclass(slots=True)
class AccessResult:
    """Micro-architectural outcome of one predict-then-update access.

    ``effective_correct`` implements the paper's OAE accounting: the branch
    counts as correctly predicted only if every prediction it required
    (direction and, for taken branches, target) was correct.
    """

    prediction: Prediction
    direction_correct: bool
    target_correct: bool
    effective_correct: bool
    btb_hit: bool = False
    btb_eviction: bool = False
    rsb_underflow: bool = False
    mispredicted: bool = False


@dataclass(slots=True)
class PredictorStats:
    """Running counters accumulated over a simulation.

    The counters mirror the hardware events STBPU's monitoring MSRs observe
    (mispredictions and BTB evictions) plus the accuracy numerators and
    denominators needed for the paper's figures.
    """

    branches: int = 0
    conditional_branches: int = 0
    direction_predictions: int = 0
    direction_correct: int = 0
    target_predictions: int = 0
    target_correct: int = 0
    effective_correct: int = 0
    mispredictions: int = 0
    btb_evictions: int = 0
    btb_hits: int = 0
    rsb_underflows: int = 0
    st_rerandomizations: int = 0
    flushes: int = 0

    def record(self, result: AccessResult, branch: BranchRecord) -> None:
        """Fold one access result into the running counters."""
        self.branches += 1
        if branch.branch_type is BranchType.CONDITIONAL:
            self.conditional_branches += 1
            self.direction_predictions += 1
            if result.direction_correct:
                self.direction_correct += 1
        if branch.taken:
            self.target_predictions += 1
            if result.target_correct:
                self.target_correct += 1
        if result.effective_correct:
            self.effective_correct += 1
        if result.mispredicted:
            self.mispredictions += 1
        if result.btb_eviction:
            self.btb_evictions += 1
        if result.btb_hit:
            self.btb_hits += 1
        if result.rsb_underflow:
            self.rsb_underflows += 1

    @property
    def oae_accuracy(self) -> float:
        """Overall Accuracy Effective: fully-correct branches over all branches."""
        return self.effective_correct / self.branches if self.branches else 0.0

    @property
    def direction_accuracy(self) -> float:
        if not self.direction_predictions:
            return 0.0
        return self.direction_correct / self.direction_predictions

    @property
    def target_accuracy(self) -> float:
        if not self.target_predictions:
            return 0.0
        return self.target_correct / self.target_predictions

    @property
    def misprediction_rate(self) -> float:
        return self.mispredictions / self.branches if self.branches else 0.0

    def merged_with(self, other: "PredictorStats") -> "PredictorStats":
        """Return a new stats object summing this one with ``other``.

        The counter list is derived from the dataclass fields so that newly
        added counters are merged automatically instead of being dropped.
        """
        merged = PredictorStats()
        for stats_field in dataclasses.fields(PredictorStats):
            name = stats_field.name
            setattr(merged, name, getattr(self, name) + getattr(other, name))
        return merged


class BranchPredictorModel(abc.ABC):
    """Interface every complete predictor model (protected or not) implements.

    Models are *stateful*: every :meth:`access` trains internal structures, so
    replaying a second trace through the same instance observes state left by
    the first.  Callers that need a cold predictor own the lifecycle — either
    build a fresh model or call :meth:`reset` before the replay (the
    simulators' ``compare`` helpers do this for every model they are handed).
    """

    # Empty slots keep the base layout slim so concrete models can opt into
    # ``__slots__`` on their hot per-access attributes; subclasses that do not
    # declare slots still get a normal ``__dict__``.
    __slots__ = ()

    #: Human-readable model name used as a legend label in experiments.
    name: str = "predictor"

    @abc.abstractmethod
    def access(self, branch: BranchRecord) -> AccessResult:
        """Predict the branch, resolve it, update state, and report the outcome."""

    def access_with_events(self, branch: BranchRecord) -> AccessResult:
        """Like :meth:`access` but with structure-level events folded in.

        Simulators call this uniformly.  Models that can observe extra
        micro-events during an access (e.g. BTB evictions) override it;
        wrapper models whose :meth:`access` already delegates to an inner
        event-aware predictor inherit this default, which simply forwards.
        """
        return self.access(branch)

    @abc.abstractmethod
    def reset(self) -> None:
        """Return the model to its power-on state."""

    def vector_kernel(self) -> "object | None":
        """An array-at-a-time replay kernel for :mod:`repro.sim.vector`.

        Returns ``None`` (the default) when the model has no exact vector
        form; the simulators then run the reference loop and count the
        decline.  Implementations gate on their exact class so behavioural
        subclasses never inherit a mismatched kernel.
        """
        return None

    def protection_stats(self) -> dict[str, int]:
        """Counters of the protection mechanism this model implements.

        The uniform protocol the simulators aggregate from — no ``isinstance``
        dispatch on concrete classes.  Known keys today are
        ``"rerandomizations"`` (STBPU) and ``"flushes"`` (microcode-style
        flushing); protection schemes are free to report additional counters
        and unprotected models report none.
        """
        return {}

    def on_context_switch(self, context_id: int) -> None:
        """Hook invoked when the OS switches the running software context."""

    def on_mode_switch(self, mode: PrivilegeMode, context_id: int) -> None:
        """Hook invoked on privilege transitions (syscall entry/exit)."""

    def on_interrupt(self, context_id: int) -> None:
        """Hook invoked on asynchronous interrupts."""


@dataclass(slots=True)
class StructureSizes:
    """Capacity parameters of the baseline Skylake-style BPU (Section II-A)."""

    btb_sets: int = 512
    btb_ways: int = 8
    btb_tag_bits: int = 8
    btb_offset_bits: int = 5
    pht_entries: int = 1 << 14
    pht_counter_bits: int = 2
    ghr_bits: int = 18
    bhb_bits: int = 58
    rsb_entries: int = 16

    @property
    def btb_entries(self) -> int:
        return self.btb_sets * self.btb_ways

    @property
    def btb_index_bits(self) -> int:
        return (self.btb_sets - 1).bit_length()

    @property
    def pht_index_bits(self) -> int:
        return (self.pht_entries - 1).bit_length()


def fold_bits(value: int, input_bits: int, output_bits: int) -> int:
    """XOR-fold ``input_bits`` of ``value`` down to ``output_bits``.

    This is the compression idiom the reverse-engineering literature ascribes
    to the baseline BPU hash functions: the address is split into
    ``output_bits``-wide chunks which are XORed together.
    """
    if output_bits <= 0:
        raise ValueError("output_bits must be positive")
    value &= (1 << input_bits) - 1
    mask = (1 << output_bits) - 1
    folded = 0
    while value:
        folded ^= value & mask
        value >>= output_bits
    return folded
