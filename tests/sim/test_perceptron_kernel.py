"""The perceptron's row rounds against the predictor called one access at a time.

:class:`repro.sim.vector._PerceptronStepper` replays a span's conditionals
in closed form: every row's ``k``-th access of the span replays in round
``k``, and once few rows remain active each of them walks its accesses in
order.  The property here drives the same accesses through
:meth:`PerceptronPredictor.predict` and ``update`` in order, recording each
outcome in the history after it, the way ``CompositeBPU`` does, and
flushing the predictor and clearing the history where a flush lands.  It
requires the stepper's predictions for every access to match, and the
weights its ``commit_span`` leaves to match the predictor's after the
executed prefix.  It draws tables of 1–16 rows, histories of 1–8 outcomes,
2–4 weight bits, initial weights anywhere in their range (saturated ones
included), carried history, flush epochs, a commit at any executed prefix
and the active-row count below which rows walk, from 0 (rounds only) to
above any row count (walks only), and always runs a 600-access row on
rounds alone and on the walk.
"""

from array import array
from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bpu.history import HistoryState
from repro.bpu.mapping import BaselineMappingProvider
from repro.bpu.perceptron import PerceptronConfig, PerceptronPredictor
from repro.sim import vector


class _RowMapping(BaselineMappingProvider):
    """The access's ip is its row: the drawn accesses pick rows directly."""

    def perceptron_index(self, ip, table_size):
        return ip


class _RowMaps:
    """Array form of :class:`_RowMapping`."""

    @staticmethod
    def perceptron_rows(ips, table_size, contexts=None):
        return ips


@st.composite
def _spans(draw):
    config = PerceptronConfig(table_size=draw(st.integers(1, 16)),
                              history_length=draw(st.integers(1, 8)),
                              weight_bits=draw(st.integers(2, 4)))
    limit = config.weight_limit
    width = config.table_size * (config.history_length + 1)
    weights = draw(st.lists(st.integers(-limit - 1, limit), min_size=width,
                            max_size=width))
    count = draw(st.integers(0, 160))
    # Few rows per span, so rows repeat and rounds run deep.
    used = draw(st.integers(1, config.table_size))
    rows = draw(st.lists(st.integers(0, used - 1), min_size=count,
                         max_size=count))
    takens = draw(st.lists(st.booleans(), min_size=count, max_size=count))
    carried = draw(st.lists(st.booleans(), max_size=12))
    # A span carries flushes or stops at a monitor fire, never both.
    flushes = sorted(draw(st.lists(st.integers(0, count), max_size=4)))
    executed = count if flushes else draw(st.integers(0, count))
    few_rows = draw(st.sampled_from([0, 1, 2, 3, 8, 1 << 30]))
    return config, weights, rows, takens, carried, flushes, executed, few_rows


def _reference(config, weights, rows, takens, carried, flushes, executed):
    """Predictions for every access, and the weights after ``executed``."""
    predictor = PerceptronPredictor(config, _RowMapping())
    predictor._weights[:] = array("q", weights)
    history = HistoryState(outcomes=list(carried))
    predictions = []
    committed = list(predictor._weights) if not executed else None
    pending = list(flushes)
    for ordinal, (row, taken) in enumerate(zip(rows, takens)):
        while pending and pending[0] == ordinal:
            pending.pop(0)
            predictor.flush()
            history.clear()
        prediction = predictor.predict(row, history)
        predictions.append(prediction.taken)
        predictor.update(prediction, taken)
        history.record_conditional(taken)
        if ordinal + 1 == executed:
            committed = list(predictor._weights)
    if pending:
        # Flushes after the last access (a span's trailing flush).
        predictor.flush()
        committed = list(predictor._weights)
    return predictions, committed


def _stepper(config, weights, rows, takens, carried, flushes, executed):
    """The stepper's predictions and the weights its commit leaves."""
    predictor = PerceptronPredictor(config, _RowMapping())
    predictor._weights[:] = array("q", weights)
    stepper = vector._PerceptronStepper(predictor, _RowMaps())
    ordinals = np.arange(len(rows))
    engine = SimpleNamespace(
        history=HistoryState(outcomes=list(carried)),
        cond_epochs=(np.searchsorted(np.array(flushes), ordinals,
                                     side="right") if flushes else None),
        epochs=len(flushes))
    cond_takens = np.array(takens, dtype=bool)
    stepper.begin()
    predictions = stepper.prepare_span(np.array(rows, dtype=np.int64), None,
                                       cond_takens, engine)
    stepper.commit_span(cond_takens, executed)
    stepper.finish()
    return predictions.tolist(), list(predictor._weights)


#: Every access in one row: rounds alone replay it one access per round, the
#: walk replays the row in order.
_ONE_ROW = (PerceptronConfig(table_size=4, history_length=8, weight_bits=4),
            [0] * (4 * 9), [2] * 600,
            [(index * 7) % 11 < 6 for index in range(600)], [], [], 600)


@settings(max_examples=400, deadline=None)
@given(case=_spans())
@example(case=(*_ONE_ROW, 0))
@example(case=(*_ONE_ROW, 8))
def test_rounds_match_the_predictor_called_in_order(case):
    *span, few_rows = case
    with mock.patch.object(vector, "_ROUND_MIN_ROWS", few_rows):
        assert _stepper(*span) == _reference(*span)
