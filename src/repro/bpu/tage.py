"""TAGE-SC-L conditional direction predictor.

The paper demonstrates that STBPU composes with advanced predictors by
protecting TAGE-SC-L (8KB and 64KB configurations, Seznec's championship
predictor) and the Perceptron predictor.  This module implements a faithful
functional TAGE-SC-L:

* a bimodal base predictor,
* several partially tagged tables indexed with geometrically increasing
  global-history lengths (the TAGE core),
* a loop predictor (the "L") that captures constant-trip-count loops, and
* a small statistical corrector (the "SC") that can override the TAGE
  prediction when history-biased counters disagree confidently.

All index and tag computations are delegated to the installed
:class:`~repro.bpu.mapping.MappingProvider`, which is how the STBPU keyed
remapping ``Rt`` is applied without touching the prediction algorithm.

The state is kept in columns.  Each tagged table is four: valid flags (a
``bytearray``), tags (an int64 ``array``, so ``tag_bits`` is at most 63),
signed prediction counters and usefulness counters (lists).  The loop table
is five lists, since iteration counts have no bound.  The vector backend
replays this predictor in place through a guarded span stepper
(:class:`repro.sim.vector._TAGEStepper`): it wraps the valid and tag columns
as zero-copy arrays to precompute per-span fold registers, table
indices/tags and tagged-entry hit bits, repairs the speculative hit bits
when an allocation lands in a table mid-span, and updates the columns
themselves.  :meth:`TAGEPredictor.flush` therefore resets the columns in
place.  The stepper (and the closed-form fold in
:func:`repro.sim.vector._fold_values`, which must match
:class:`_IncrementalFold`) mirrors the update rules below exactly — any
semantic change here must be made there too, and is pinned by the
reference/vector state-parity suite (``tests/sim/test_vector_parity.py``).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from repro.bpu.common import StructureSizes
from repro.bpu.history import FoldedHistory, HistoryState
from repro.bpu.mapping import BaselineMappingProvider, MappingProvider


@dataclass(frozen=True, slots=True)
class TAGEConfig:
    """Size/shape parameters of one TAGE-SC-L instance."""

    name: str
    bimodal_entries: int
    tagged_table_entries: tuple[int, ...]
    tag_bits: tuple[int, ...]
    history_lengths: tuple[int, ...]
    counter_bits: int = 3
    useful_bits: int = 2
    use_loop_predictor: bool = True
    use_statistical_corrector: bool = True
    loop_entries: int = 64
    sc_table_entries: int = 1024
    sc_history_lengths: tuple[int, ...] = (3, 7, 15)
    useful_reset_period: int = 256 * 1024

    def __post_init__(self) -> None:
        lengths = (len(self.tagged_table_entries), len(self.tag_bits), len(self.history_lengths))
        if len(set(lengths)) != 1:
            raise ValueError("tagged table parameter tuples must have equal lengths")
        if max(self.tag_bits, default=0) > 63:
            raise ValueError("tag_bits must not exceed 63 (tags are int64)")

    @property
    def table_count(self) -> int:
        return len(self.tagged_table_entries)


#: 8KB TAGE-SC-L configuration (paper: ``TAGE_SC_L_8KB``).
TAGE_SC_L_8KB = TAGEConfig(
    name="TAGE_SC_L_8KB",
    bimodal_entries=1 << 12,
    tagged_table_entries=(512, 512, 512, 512, 512, 512),
    tag_bits=(7, 7, 8, 8, 9, 9),
    history_lengths=(4, 9, 19, 40, 85, 180),
    loop_entries=32,
    sc_table_entries=512,
)

#: 64KB TAGE-SC-L configuration (paper: ``TAGE_SC_L_64KB``).
TAGE_SC_L_64KB = TAGEConfig(
    name="TAGE_SC_L_64KB",
    bimodal_entries=1 << 14,
    tagged_table_entries=(1024,) * 12,
    tag_bits=(8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13),
    history_lengths=(4, 7, 13, 23, 41, 73, 129, 229, 407, 640, 768, 1024),
    loop_entries=64,
    sc_table_entries=1024,
)


class _IncrementalFold:
    """Circularly folded history register maintained incrementally.

    This is the standard TAGE implementation trick: instead of re-hashing the
    whole (possibly 1000-bit) global history on every prediction, each table
    keeps a ``folded_bits``-wide register updated in O(1) when one outcome
    enters the history and one leaves it.
    """

    __slots__ = ("history_length", "folded_bits", "value")

    def __init__(self, history_length: int, folded_bits: int):
        self.history_length = history_length
        self.folded_bits = max(1, folded_bits)
        self.value = 0

    def update(self, new_bit: int, old_bit: int) -> None:
        mask = (1 << self.folded_bits) - 1
        value = (self.value << 1) | new_bit
        value ^= old_bit << (self.history_length % self.folded_bits)
        value ^= value >> self.folded_bits
        self.value = value & mask

    def reset(self) -> None:
        self.value = 0


@dataclass(slots=True)
class TAGEPrediction:
    """Prediction state threaded from :meth:`TAGEPredictor.predict` to ``update``."""

    taken: bool
    provider_table: int | None
    provider_index: int
    alt_taken: bool
    alt_table: int | None
    alt_index: int
    bimodal_index: int
    tagged_indices: tuple[int, ...]
    tagged_tags: tuple[int, ...]
    tage_taken: bool
    loop_hit: bool = False
    loop_taken: bool = False
    loop_index: int = 0
    sc_sum: int = 0
    sc_used: bool = False
    sc_indices: tuple[int, ...] = ()


class TAGEPredictor:
    """Functional TAGE-SC-L direction predictor."""

    __slots__ = (
        "config", "name", "sizes", "mapping", "_bimodal", "_valid", "_tags",
        "_counters", "_useful", "_index_folds", "_tag_folds",
        "_table_index_bits", "_max_history", "_ghist", "_use_alt_on_na",
        "_loop_valid", "_loop_tags", "_loop_past", "_loop_current",
        "_loop_conf", "_sc_tables", "_sc_folds", "_sc_threshold",
        "_access_count",
    )

    def __init__(
        self,
        config: TAGEConfig = TAGE_SC_L_64KB,
        mapping: MappingProvider | None = None,
        sizes: StructureSizes | None = None,
    ):
        self.config = config
        self.name = config.name
        self.sizes = sizes if sizes is not None else StructureSizes()
        self.mapping = mapping if mapping is not None else BaselineMappingProvider(self.sizes)
        self._bimodal = [0] * config.bimodal_entries  # 2-bit counters stored as 0..3
        # The tagged tables' columns, one per table: valid flags, tags,
        # signed prediction counters (range [-4, 3] for 3 bits), usefulness.
        entries = config.tagged_table_entries
        self._valid = [bytearray(count) for count in entries]
        self._tags = [array("q", bytes(8 * count)) for count in entries]
        self._counters = [[0] * count for count in entries]
        self._useful = [[0] * count for count in entries]
        self._index_folds = [
            _IncrementalFold(h, (entries - 1).bit_length())
            for h, entries in zip(config.history_lengths, config.tagged_table_entries)
        ]
        self._tag_folds = [
            _IncrementalFold(h, bits)
            for h, bits in zip(config.history_lengths, config.tag_bits)
        ]
        self._table_index_bits = tuple(
            (entries - 1).bit_length() for entries in config.tagged_table_entries
        )
        self._max_history = max(config.history_lengths)
        #: Private global-history bit list (newest at the end), bounded in length.
        self._ghist: list[int] = []
        self._use_alt_on_na = 8  # 4-bit counter, midpoint
        # The loop table's columns: valid flags, tags, past and current
        # iteration counts, confidence.
        loops = config.loop_entries
        self._loop_valid = [False] * loops
        self._loop_tags = [0] * loops
        self._loop_past = [0] * loops
        self._loop_current = [0] * loops
        self._loop_conf = [0] * loops
        self._sc_tables = [
            [0] * config.sc_table_entries for _ in config.sc_history_lengths
        ]
        self._sc_folds = tuple(
            FoldedHistory(length, 10) for length in config.sc_history_lengths
        )
        self._sc_threshold = 6
        self._access_count = 0

    # ----------------------------------------------------------------- helpers

    def _bimodal_index(self, ip: int) -> int:
        return self.mapping.pht_index_1level(ip) % self.config.bimodal_entries

    def _counter_limits(self) -> tuple[int, int]:
        bits = self.config.counter_bits
        return -(1 << (bits - 1)), (1 << (bits - 1)) - 1

    def _compute_indices(self, ip: int, history: HistoryState) -> tuple[tuple[int, ...], tuple[int, ...]]:
        del history  # TAGE keeps its own folded history registers.
        mapping = self.mapping
        tage_index = mapping.tage_index
        tage_tag = mapping.tage_tag
        entries_per_table = self.config.tagged_table_entries
        tag_bits = self.config.tag_bits
        index_bits = self._table_index_bits
        index_folds = self._index_folds
        tag_folds = self._tag_folds
        indices = []
        tags = []
        for table, entries in enumerate(entries_per_table):
            indices.append(
                tage_index(ip, index_folds[table].value, table, index_bits[table]) % entries
            )
            tags.append(tage_tag(ip, tag_folds[table].value, table, tag_bits[table]))
        return tuple(indices), tuple(tags)

    def _push_history(self, taken: bool) -> None:
        """Advance the private global history and every folded register by one bit."""
        new_bit = int(taken)
        history = self._ghist
        history.append(new_bit)
        length = len(history)
        for index_fold, tag_fold in zip(self._index_folds, self._tag_folds):
            depth = index_fold.history_length
            old_bit = history[length - 1 - depth] if length > depth else 0
            index_fold.update(new_bit, old_bit)
            tag_fold.update(new_bit, old_bit)
        if length > self._max_history + 64:
            del history[: length - self._max_history]

    # ----------------------------------------------------------------- predict

    def predict(self, ip: int, history: HistoryState) -> TAGEPrediction:
        self._access_count += 1
        config = self.config
        bimodal_index = self._bimodal_index(ip)
        bimodal_taken = self._bimodal[bimodal_index] >= 2
        indices, tags = self._compute_indices(ip, history)

        provider_table: int | None = None
        alt_table: int | None = None
        valid = self._valid
        stored_tags = self._tags
        for table in range(config.table_count - 1, -1, -1):
            index = indices[table]
            if valid[table][index] and stored_tags[table][index] == tags[table]:
                if provider_table is None:
                    provider_table = table
                elif alt_table is None:
                    alt_table = table
                    break

        if provider_table is not None:
            provider_index = indices[provider_table]
            provider_counter = self._counters[provider_table][provider_index]
            provider_taken = provider_counter >= 0
            if alt_table is not None:
                alt_index = indices[alt_table]
                alt_taken = self._counters[alt_table][alt_index] >= 0
            else:
                alt_taken = bimodal_taken
                alt_index = bimodal_index
            # Newly allocated, weak entries are less trustworthy than the alternate.
            weak = (provider_counter in (-1, 0)
                    and self._useful[provider_table][provider_index] == 0)
            if weak and self._use_alt_on_na >= 8:
                tage_taken = alt_taken
            else:
                tage_taken = provider_taken
        else:
            tage_taken = bimodal_taken
            alt_taken = bimodal_taken
            alt_index = bimodal_index
            provider_index = bimodal_index

        prediction = TAGEPrediction(
            taken=tage_taken,
            provider_table=provider_table,
            provider_index=provider_index,
            alt_taken=alt_taken,
            alt_table=alt_table,
            alt_index=alt_index,
            bimodal_index=bimodal_index,
            tagged_indices=indices,
            tagged_tags=tags,
            tage_taken=tage_taken,
        )

        if config.use_loop_predictor:
            self._apply_loop_predictor(ip, prediction)
        if config.use_statistical_corrector:
            self._apply_statistical_corrector(ip, history, prediction)
        return prediction

    def _loop_index(self, ip: int) -> int:
        return (ip >> 2) % self.config.loop_entries

    def _apply_loop_predictor(self, ip: int, prediction: TAGEPrediction) -> None:
        index = self._loop_index(ip)
        prediction.loop_index = index
        tag = (ip >> 8) & 0x3FF
        if (self._loop_valid[index] and self._loop_tags[index] == tag
                and self._loop_conf[index] >= 3):
            prediction.loop_hit = True
            prediction.loop_taken = (self._loop_current[index] + 1
                                     < self._loop_past[index])
            prediction.taken = prediction.loop_taken

    def _sc_index(self, ip: int, history: HistoryState, component: int) -> int:
        folded = self._sc_folds[component].fold(history.outcomes)
        mixed = (ip >> 2) ^ (folded * 3) ^ (component * 0x61)
        return mixed % self.config.sc_table_entries

    def _apply_statistical_corrector(
        self, ip: int, history: HistoryState, prediction: TAGEPrediction
    ) -> None:
        indices = tuple(
            self._sc_index(ip, history, component)
            for component in range(len(self.config.sc_history_lengths))
        )
        prediction.sc_indices = indices
        total = sum(
            table[index] for table, index in zip(self._sc_tables, indices)
        )
        bias = 1 if prediction.taken else -1
        total += 2 * bias
        prediction.sc_sum = total
        if abs(total) >= self._sc_threshold and (total >= 0) != prediction.taken:
            prediction.sc_used = True
            prediction.taken = total >= 0

    # ------------------------------------------------------------------ update

    def update(self, prediction: TAGEPrediction, taken: bool, ip: int = 0) -> None:
        config = self.config
        low, high = self._counter_limits()

        # Loop predictor update.
        if config.use_loop_predictor:
            self._update_loop_predictor(ip, prediction, taken)

        # Statistical corrector update (trained when it participated or was close).
        if config.use_statistical_corrector and prediction.sc_indices:
            if prediction.sc_used or abs(prediction.sc_sum) < self._sc_threshold * 2:
                direction = 1 if taken else -1
                for table, index in zip(self._sc_tables, prediction.sc_indices):
                    table[index] = max(-31, min(31, table[index] + direction))

        if prediction.provider_table is not None:
            index = prediction.provider_index
            counters = self._counters[prediction.provider_table]
            useful = self._useful[prediction.provider_table]
            # use_alt_on_na bookkeeping.
            weak = counters[index] in (-1, 0) and useful[index] == 0
            if weak and prediction.tage_taken != prediction.alt_taken:
                if prediction.alt_taken == taken:
                    self._use_alt_on_na = min(15, self._use_alt_on_na + 1)
                else:
                    self._use_alt_on_na = max(0, self._use_alt_on_na - 1)

            # Provider counter update.
            counters[index] = self._update_signed(counters[index], taken, low, high)
            if prediction.tage_taken != prediction.alt_taken:
                if prediction.tage_taken == taken:
                    useful[index] = min((1 << config.useful_bits) - 1, useful[index] + 1)
                else:
                    useful[index] = max(0, useful[index] - 1)
        else:
            value = self._bimodal[prediction.bimodal_index]
            self._bimodal[prediction.bimodal_index] = (
                min(3, value + 1) if taken else max(0, value - 1)
            )

        # Allocation of a new entry on a TAGE misprediction.
        if prediction.tage_taken != taken:
            self._allocate(prediction, taken)

        # Periodic graceful reset of useful counters.
        if self._access_count % config.useful_reset_period == 0:
            for useful in self._useful:
                useful[:] = [value >> 1 for value in useful]

        # Advance the private speculative history by this branch's outcome.
        self._push_history(taken)

    @staticmethod
    def _update_signed(counter: int, taken: bool, low: int, high: int) -> int:
        return min(high, counter + 1) if taken else max(low, counter - 1)

    def _allocate(self, prediction: TAGEPrediction, taken: bool) -> None:
        start = (prediction.provider_table + 1) if prediction.provider_table is not None else 0
        indices = prediction.tagged_indices
        for table in range(start, self.config.table_count):
            index = indices[table]
            if not self._valid[table][index] or self._useful[table][index] == 0:
                self._valid[table][index] = 1
                self._tags[table][index] = prediction.tagged_tags[table]
                self._counters[table][index] = 0 if taken else -1
                self._useful[table][index] = 0
                return
        # No free entry: decay usefulness along the allocation path.
        for table in range(start, self.config.table_count):
            useful = self._useful[table]
            useful[indices[table]] = max(0, useful[indices[table]] - 1)

    def _update_loop_predictor(self, ip: int, prediction: TAGEPrediction, taken: bool) -> None:
        index = prediction.loop_index
        tag = (ip >> 8) & 0x3FF
        if self._loop_valid[index] and self._loop_tags[index] == tag:
            if taken:
                self._loop_current[index] += 1
            else:
                if self._loop_current[index] == self._loop_past[index]:
                    self._loop_conf[index] = min(7, self._loop_conf[index] + 1)
                else:
                    self._loop_past[index] = self._loop_current[index]
                    self._loop_conf[index] = 0
                self._loop_current[index] = 0
        elif not taken:
            # A loop exit on an unknown branch seeds a new loop entry.
            if not self._loop_valid[index] or self._loop_conf[index] == 0:
                self._loop_valid[index] = True
                self._loop_tags[index] = tag
                self._loop_past[index] = self._loop_current[index] = 0
                self._loop_conf[index] = 0

    # ------------------------------------------------------------------- admin

    def flush(self) -> None:
        """Reset the tables in place (the vector engine may hold views of the
        columns); loop tags and the access count survive."""
        self._bimodal[:] = [1] * len(self._bimodal)
        for valid, tags, counters, useful in zip(
                self._valid, self._tags, self._counters, self._useful):
            valid[:] = bytes(len(valid))
            tags[:] = array("q", bytes(8 * len(tags)))
            counters[:] = [0] * len(counters)
            useful[:] = [0] * len(useful)
        loops = len(self._loop_valid)
        self._loop_valid[:] = [False] * loops
        for column in (self._loop_past, self._loop_current, self._loop_conf):
            column[:] = [0] * loops
        for table in self._sc_tables:
            table[:] = [0] * len(table)
        for index_fold, tag_fold in zip(self._index_folds, self._tag_folds):
            index_fold.reset()
            tag_fold.reset()
        self._ghist.clear()
        self._use_alt_on_na = 8
