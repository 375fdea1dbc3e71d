"""Perceptron conditional direction predictor (Jiménez & Lin, HPCA 2001).

The predictor keeps a table of weight vectors.  A branch selects one row
(through the installed :class:`~repro.bpu.mapping.MappingProvider`, so the
STBPU keyed remapping ``Rp`` applies transparently), computes the dot product
of the weights with the recent global-history outcomes (encoded ±1), and
predicts taken when the sum is non-negative.  Training updates the weights on
a misprediction or whenever the magnitude of the sum is below the
length-dependent threshold.

The weights are one row-major int64 ``array`` of ``table_size`` rows of
``history_length + 1`` weights, the bias first in each row.  The vector
backend replays this predictor in closed form
(:class:`repro.sim.vector._PerceptronStepper`): it wraps the array as a
zero-copy 2-D view, replays a span's accesses in row rounds on a copy of the
rows they touch and writes those rows back at commit.  int64 leaves room for
the stepper's add-then-clamp and its dot products, and
:meth:`PerceptronPredictor.flush` zeroes the array in place.  The stepper
mirrors the prediction and training rules below exactly — any semantic
change here must be made there too, and is pinned by
``tests/sim/test_perceptron_kernel.py`` and the reference/vector
state-parity suite (``tests/sim/test_vector_parity.py``).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from repro.bpu.common import StructureSizes
from repro.bpu.history import HistoryState
from repro.bpu.mapping import BaselineMappingProvider, MappingProvider


@dataclass(frozen=True, slots=True)
class PerceptronConfig:
    """Size parameters of the perceptron predictor."""

    name: str = "PerceptronBP"
    table_size: int = 1024
    history_length: int = 32
    weight_bits: int = 8

    @property
    def threshold(self) -> int:
        """Optimal training threshold from the original paper: 1.93*h + 14."""
        return int(1.93 * self.history_length + 14)

    @property
    def weight_limit(self) -> int:
        return (1 << (self.weight_bits - 1)) - 1


DEFAULT_PERCEPTRON = PerceptronConfig()


@dataclass(slots=True)
class PerceptronPrediction:
    """Prediction state threaded from predict to update."""

    taken: bool
    row: int
    total: int
    history_bits: tuple[int, ...]


class PerceptronPredictor:
    """Table-of-perceptrons direction predictor."""

    __slots__ = ("config", "name", "sizes", "mapping", "_weights",
                 "_row_length", "_history_length", "_threshold",
                 "_weight_limit")

    def __init__(
        self,
        config: PerceptronConfig = DEFAULT_PERCEPTRON,
        mapping: MappingProvider | None = None,
        sizes: StructureSizes | None = None,
    ):
        self.config = config
        self.name = config.name
        self.sizes = sizes if sizes is not None else StructureSizes()
        self.mapping = mapping if mapping is not None else BaselineMappingProvider(self.sizes)
        # Row ``r`` starts at ``r * _row_length`` with its bias weight; the
        # rest pair with history bits.
        self._row_length = config.history_length + 1
        self._weights = array("q", bytes(8 * config.table_size * self._row_length))
        # Per-access invariants hoisted out of the config properties.
        self._history_length = config.history_length
        self._threshold = config.threshold
        self._weight_limit = config.weight_limit

    def _history_bits(self, history: HistoryState) -> tuple[int, ...]:
        length = self._history_length
        outcomes = history.outcomes
        if len(outcomes) >= length:
            return tuple(1 if taken else -1 for taken in outcomes[-length:])
        bits = [1 if taken else -1 for taken in outcomes]
        # Pad older (missing) history with "not taken" so the vector length is fixed.
        return tuple([-1] * (length - len(bits)) + bits)

    def predict(self, ip: int, history: HistoryState) -> PerceptronPrediction:
        row = self.mapping.perceptron_index(ip, self.config.table_size)
        weights = self._weights
        bits = self._history_bits(history)
        position = row * self._row_length
        total = weights[position]
        for bit in bits:
            position += 1
            if bit > 0:
                total += weights[position]
            else:
                total -= weights[position]
        return PerceptronPrediction(taken=total >= 0, row=row, total=total, history_bits=bits)

    def update(self, prediction: PerceptronPrediction, taken: bool, ip: int = 0) -> None:
        del ip
        needs_training = (prediction.taken != taken) or (abs(prediction.total) <= self._threshold)
        if not needs_training:
            return
        weights = self._weights
        direction = 1 if taken else -1
        limit = self._weight_limit
        floor = -limit - 1
        position = prediction.row * self._row_length
        weights[position] = max(floor, min(limit, weights[position] + direction))
        for bit in prediction.history_bits:
            position += 1
            value = weights[position] + direction * bit
            if value > limit:
                value = limit
            elif value < floor:
                value = floor
            weights[position] = value

    def flush(self) -> None:
        """Zero the weights in place (the vector engine may hold a view)."""
        self._weights[:] = array("q", bytes(8 * len(self._weights)))
