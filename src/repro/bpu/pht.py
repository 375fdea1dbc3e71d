"""Pattern history table (PHT) and the baseline conditional direction predictor.

The paper's baseline models the conditional predictor found in Intel Skylake
as a gshare-like structure with two addressing modes over a 16k-entry table of
2-bit saturating counters: a simple 1-level per-address mode and a 2-level
mode that hashes in the global history register.  We implement that as a
hybrid of a bimodal (1-level) array and a gshare (2-level) array with a
per-branch choice table — the standard generalisation of such designs — which
we refer to throughout the code as ``SKLCond``.

Each table's counters live in a ``bytearray``, which the vector replay
engine (:mod:`repro.sim.vector`) wraps as a zero-copy ``uint8`` array and
scans in place.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bpu.common import StructureSizes
from repro.bpu.history import HistoryState
from repro.bpu.mapping import BaselineMappingProvider, MappingProvider


@dataclass(slots=True)
class SaturatingCounter:
    """An n-bit saturating counter finite-state machine."""

    bits: int = 2
    value: int = 1  # weakly not-taken

    @property
    def maximum(self) -> int:
        return (1 << self.bits) - 1

    @property
    def taken(self) -> bool:
        return self.value > self.maximum // 2

    def update(self, taken: bool) -> None:
        if taken:
            self.value = min(self.maximum, self.value + 1)
        else:
            self.value = max(0, self.value - 1)


class PatternHistoryTable:
    """A flat array of saturating counters addressed by an externally computed index.

    The counters are stored one per byte in a ``bytearray`` rather than as
    :class:`SaturatingCounter` objects: a predictor model owns up to three
    16k-entry tables and probes them on every conditional branch, so both
    construction (175 models per full figure grid) and the per-access
    predict/update calls sit on the replay hot path, and the vector engine
    replays the same buffer without copying it.  The saturation semantics
    are identical to :class:`SaturatingCounter`.  A byte holds 0–255, so
    ``counter_bits`` must be 1–8 and ``initial`` a counter value.
    """

    __slots__ = ("entries", "counter_bits", "_maximum", "_midpoint", "_values")

    def __init__(self, entries: int, counter_bits: int = 2, initial: int | None = None):
        if entries <= 0:
            raise ValueError("entries must be positive")
        if not 1 <= counter_bits <= 8:
            raise ValueError("counter_bits must be in 1..8 (one byte per counter)")
        self.entries = entries
        self.counter_bits = counter_bits
        self._maximum = (1 << counter_bits) - 1
        self._midpoint = self._maximum // 2
        start = initial if initial is not None else self._midpoint
        if not 0 <= start <= self._maximum:
            raise ValueError(f"initial must be in [0, {self._maximum}]")
        self._values = bytearray([start]) * entries

    def predict(self, index: int) -> bool:
        return self._values[index % self.entries] > self._midpoint

    def counter_value(self, index: int) -> int:
        return self._values[index % self.entries]

    def update(self, index: int, taken: bool) -> None:
        values = self._values
        index %= self.entries
        value = values[index]
        if taken:
            if value < self._maximum:
                values[index] = value + 1
        elif value > 0:
            values[index] = value - 1

    def flush(self) -> None:
        # In place: the vector engine may hold a view of the buffer.
        self._values[:] = bytes([self._midpoint]) * self.entries


@dataclass(slots=True)
class DirectionPrediction:
    """Direction prediction plus which component produced it."""

    taken: bool
    used_two_level: bool
    one_level_index: int
    two_level_index: int


class SKLConditionalPredictor:
    """Hybrid 1-level / 2-level (gshare) conditional direction predictor.

    This is the ``SKLCond`` baseline referenced by the paper's gem5
    evaluation.  A choice table selects, per branch address, whether the
    1-level or 2-level component supplies the prediction; both components are
    trained on every resolved branch (with the usual bias toward the selected
    component in the chooser update).
    """

    __slots__ = ("sizes", "mapping", "one_level", "two_level", "chooser")

    name = "SKLCond"

    def __init__(
        self,
        sizes: StructureSizes | None = None,
        mapping: MappingProvider | None = None,
    ):
        self.sizes = sizes if sizes is not None else StructureSizes()
        self.mapping = mapping if mapping is not None else BaselineMappingProvider(self.sizes)
        entries = self.sizes.pht_entries
        self.one_level = PatternHistoryTable(entries, self.sizes.pht_counter_bits)
        self.two_level = PatternHistoryTable(entries, self.sizes.pht_counter_bits)
        self.chooser = PatternHistoryTable(entries, 2, initial=1)  # weakly prefer 1-level

    def predict(self, ip: int, history: HistoryState) -> DirectionPrediction:
        mapping = self.mapping
        one_index = mapping.pht_index_1level(ip)
        two_index = mapping.pht_index_2level(ip, history.ghr.value)
        use_two_level = self.chooser.predict(one_index)
        if use_two_level:
            taken = self.two_level.predict(two_index)
        else:
            taken = self.one_level.predict(one_index)
        return DirectionPrediction(
            taken=taken,
            used_two_level=use_two_level,
            one_level_index=one_index,
            two_level_index=two_index,
        )

    def update(self, prediction: DirectionPrediction, taken: bool, ip: int = 0) -> None:
        del ip
        one_level = self.one_level
        two_level = self.two_level
        one_index = prediction.one_level_index
        two_index = prediction.two_level_index
        one_correct = one_level.predict(one_index) == taken
        two_correct = two_level.predict(two_index) == taken
        if one_correct != two_correct:
            # Train the chooser toward whichever component was right.
            self.chooser.update(one_index, two_correct)
        one_level.update(one_index, taken)
        two_level.update(two_index, taken)

    def flush(self) -> None:
        self.one_level.flush()
        self.two_level.flush()
        self.chooser.flush()
