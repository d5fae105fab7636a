"""The batched instance fold, tested directly.

``InstanceTracker.execute_batch`` records what the segment router lands,
and the tracker folds it through ``FWPair.fold`` ->
``CountMinSketch.fold_batch_exact`` when the pair is read.  It must
leave a tracker in the state per-tuple ``execute`` leaves it, bit for
bit — the engine equivalence suites and the sha256 pins rest on that —
and must refuse what ``execute`` refuses before anything moves.

Every engine folds through that scatter, so the reference here is
independent of it: a pair fed tuple by tuple through ``FWPair.update``
(``CountMinSketch.update_at`` per row) and ``C_op`` summed in a Python
loop.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import POSGConfig
from repro.core.instance import InstanceState, InstanceTracker
from repro.core.matrices import FWPair, make_shared_hashes
from repro.sketches.count_min import running_total

WINDOW = 64
CONFIG = POSGConfig(window_size=WINDOW, rows=3, cols=16)
HASHES = make_shared_hashes(CONFIG, np.random.default_rng(0))

#: nine decades on either side of one, so a reassociated sum shows
TIMES = st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=1e9))
TUPLES = st.tuples(st.integers(min_value=0, max_value=40), TIMES)


def pair_state(pair):
    return (
        pair.freq.matrix.tobytes(),
        pair.work.matrix.tobytes(),
        np.float64(pair.freq.total_weight).tobytes(),
        np.float64(pair.work.total_weight).tobytes(),
        pair.freq.update_count,
        pair.work.update_count,
    )


def state_of(tracker):
    """Everything a fold moves, floats as their bytes."""
    return pair_state(tracker.matrices) + (
        np.float64(tracker.cumulated_time).tobytes(),
        tracker.tuples_executed,
        tracker.window_remaining,
    )


def oracle_state(tuples, config=CONFIG):
    """What :func:`state_of` must read after ``tuples`` executed within
    one window, computed one tuple at a time without the batched fold."""
    pair = FWPair(HASHES)
    cumulated = 0.0
    for item, time in tuples:
        pair.update(item, time)
        cumulated += time
    return pair_state(pair) + (
        np.float64(cumulated).tobytes(),
        len(tuples),
        config.window_size - len(tuples),
    )


def warmed(prefix, config=CONFIG, read_each=False):
    """A tracker that executed ``prefix`` one tuple at a time; with
    ``read_each`` its matrices are read, so folded, after every tuple."""
    tracker = InstanceTracker(0, config, HASHES)
    for item, time in prefix:
        tracker.execute(item, time)
        if read_each:
            tracker.matrices
    return tracker


class TestBatchEqualsPerTuple:
    @given(
        prefix=st.lists(TUPLES, max_size=20),
        batch=st.lists(TUPLES, max_size=WINDOW - 21),
    )
    @settings(max_examples=200, deadline=None)
    def test_lists_and_arrays_both_match_execute(self, prefix, batch):
        """The prefix leaves non-zero running totals for the batch to
        continue from; the batch stops short of the window boundary."""
        self.assert_batch_matches_execute(prefix, batch, CONFIG)

    @pytest.mark.parametrize("length", [1, 27, 428, 1023, 2045])
    def test_fold_sized_batches_with_repeated_ids(self, length):
        """Short batches, what a tracker holds mid-window and a whole
        window less the prefix, over 41 ids, so past the first few dozen
        tuples every cell takes several updates in one scatter."""
        rng = np.random.default_rng(length)
        batch = list(
            zip(
                rng.integers(0, 41, size=length).tolist(),
                (10.0 ** rng.uniform(-9.0, 9.0, size=length)).tolist(),
            )
        )
        config = POSGConfig(window_size=2048, rows=3, cols=16)
        self.assert_batch_matches_execute([(3, 2.0), (5, 0.25)], batch, config)

    @staticmethod
    def assert_batch_matches_execute(prefix, batch, config):
        expected = oracle_state(prefix + batch, config)
        assert state_of(warmed(prefix + batch, config, read_each=True)) == expected
        assert state_of(warmed(prefix + batch, config)) == expected
        items = [item for item, _ in batch]
        times = [time for _, time in batch]
        from_lists = warmed(prefix, config)
        from_lists.execute_batch(items, times)
        from_arrays = warmed(prefix, config)
        from_arrays.execute_batch(
            np.array(items, dtype=np.int64), np.array(times, dtype=np.float64)
        )
        assert state_of(from_lists) == expected
        assert state_of(from_arrays) == expected

    def test_seeded_accumulate_is_the_python_loop(self):
        """``np.add.accumulate`` adds strictly left to right; a numpy that
        ever blocked or paired it would fail here, not in a sha256 pin."""
        rng = np.random.default_rng(7)
        terms = 10.0 ** rng.uniform(-9.0, 9.0, size=10_000)
        start = 12345.678
        total = start
        for term in terms.tolist():
            total += term
        assert running_total(start, terms) == total
        assert np.add.accumulate(np.concatenate(([start], terms)))[-1] == total
        # the data can tell the orders apart: a pairwise sum disagrees
        assert float(np.sum(terms)) + start != total
        assert running_total(start, terms[:0]) == start


class TestBatchRefusesBeforeMutating:
    PREFIX = [(3, 2.0), (5, 0.25), (3, 1e6)]

    @pytest.mark.parametrize(
        "bad", [-1.0, -1e-300, float("nan"), float("inf"), float("-inf")]
    )
    @pytest.mark.parametrize("position", [0, 2, 4])
    def test_a_bad_time_anywhere_in_the_batch(self, bad, position):
        tracker = warmed(self.PREFIX)
        before = state_of(tracker)
        times = [1.0, 2.0, 3.0, 4.0, 5.0]
        times[position] = bad
        with pytest.raises(ValueError, match="finite and >= 0"):
            tracker.execute_batch([1, 2, 3, 4, 5], times)
        assert state_of(tracker) == before
        # the per-tuple spelling refuses the same tuple the same way
        with pytest.raises(ValueError, match="finite and >= 0"):
            tracker.execute(position + 1, bad)
        assert state_of(tracker) == before
        pair = tracker.matrices
        with pytest.raises(ValueError, match="finite and >= 0"):
            pair.work.update_at(pair.work.bucket_cache.columns(1), bad)
        assert state_of(tracker) == before

    @pytest.mark.parametrize(
        "item, error", [(2.5, TypeError), ("3", TypeError), (1 << 63, ValueError)]
    )
    def test_an_item_the_fold_cannot_take(self, item, error):
        """Items are folded as int64 when the window closes, so
        ``execute`` refuses the rest at once, before anything moves."""
        tracker = warmed(self.PREFIX)
        before = state_of(tracker)
        with pytest.raises(error):
            tracker.execute(item, 1.0)
        assert state_of(tracker) == before

    def test_both_spellings_take_the_edges_of_the_range(self):
        batch, single = warmed(self.PREFIX), warmed(self.PREFIX)
        edges = [0.0, -0.0, 5e-324, 1.7976931348623157e308]
        batch.execute_batch([1, 2, 3, 4], edges)
        for item, time in zip([1, 2, 3, 4], edges):
            single.execute(item, time)
        assert state_of(batch) == state_of(single)

    def test_mismatched_lengths(self):
        tracker = warmed(self.PREFIX)
        before = state_of(tracker)
        with pytest.raises(ValueError, match="equal length"):
            tracker.execute_batch([1, 2, 3], [1.0, 2.0])
        assert state_of(tracker) == before

    def test_a_batch_reaching_the_window_boundary(self):
        """A batch past the boundary is refused; one ending on it closes
        the window as ``execute`` would and returns its messages."""
        tracker = warmed(self.PREFIX)
        before = state_of(tracker)
        count = WINDOW - len(self.PREFIX)
        with pytest.raises(ValueError, match="window boundary"):
            tracker.execute_batch([1] * (count + 1), [1.0] * (count + 1))
        assert state_of(tracker) == before
        single = warmed(self.PREFIX)
        assert tracker.execute_batch([1] * count, [1.0] * count) == []
        for _ in range(count):
            single.execute(1, 1.0)
        assert tracker.state is single.state is InstanceState.STABILIZING
        assert tracker.window_remaining == WINDOW
        assert state_of(tracker) == state_of(single)
