"""The batched instance fold, tested directly.

``InstanceTracker.execute_batch`` -> ``FWPair.update_batch`` ->
``CountMinSketch.fold_batch_exact`` is what the segment router lands
between window boundaries.  It must leave a tracker in the state
per-tuple ``execute`` leaves it, bit for bit — the engine equivalence
suites and the sha256 pins rest on that — and must refuse what
``execute`` refuses before anything moves.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import POSGConfig
from repro.core.instance import InstanceTracker
from repro.core.matrices import make_shared_hashes
from repro.sketches.count_min import running_total

WINDOW = 64
CONFIG = POSGConfig(window_size=WINDOW, rows=3, cols=16)
HASHES = make_shared_hashes(CONFIG, np.random.default_rng(0))

#: nine decades on either side of one, so a reassociated sum shows
TIMES = st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=1e9))
TUPLES = st.tuples(st.integers(min_value=0, max_value=40), TIMES)


def state_of(tracker):
    """Everything a fold moves, floats as their bytes."""
    pair = tracker._pair
    return (
        pair.freq.matrix.tobytes(),
        pair.work.matrix.tobytes(),
        np.float64(pair.freq.total_weight).tobytes(),
        np.float64(pair.work.total_weight).tobytes(),
        pair.freq.update_count,
        pair.work.update_count,
        np.float64(tracker.cumulated_time).tobytes(),
        tracker.tuples_executed,
        tracker.window_remaining,
    )


def warmed(prefix, config=CONFIG):
    tracker = InstanceTracker(0, config, HASHES)
    for item, time in prefix:
        tracker.execute(item, time)
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

    @pytest.mark.parametrize("length", [1, 27, 428, 1023])
    def test_fold_sized_batches_with_repeated_ids(self, length):
        """The lengths the engines fold (a sweep's ~27, ``fast_single``'s
        ~428, a whole window less one) over 41 ids, so past the first
        few dozen tuples every cell takes several updates in one scatter."""
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
        one_by_one = warmed(prefix + batch, config)
        items = [item for item, _ in batch]
        times = [time for _, time in batch]
        from_lists = warmed(prefix, config)
        from_lists.execute_batch(items, times)
        from_arrays = warmed(prefix, config)
        from_arrays.execute_batch(
            np.array(items, dtype=np.int64), np.array(times, dtype=np.float64)
        )
        assert state_of(from_lists) == state_of(one_by_one)
        assert state_of(from_arrays) == state_of(one_by_one)

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
        pair = tracker._pair
        with pytest.raises(ValueError, match="finite and >= 0"):
            pair.work.update_at(pair.work.bucket_cache.columns(1), bad)
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
        tracker = warmed(self.PREFIX)
        before = state_of(tracker)
        count = WINDOW - len(self.PREFIX)
        with pytest.raises(ValueError, match="window boundary"):
            tracker.execute_batch([1] * count, [1.0] * count)
        assert state_of(tracker) == before
        tracker.execute_batch([1] * (count - 1), [1.0] * (count - 1))
        assert tracker.window_remaining == 1
