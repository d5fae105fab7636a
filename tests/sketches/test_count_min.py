"""Tests for the Count-Min sketch, plain and weighted."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.matrices import FWPair
from repro.sketches.count_min import CountMinSketch, dims_for
from repro.sketches.hashing import random_hash_family


def make_sketch(rows=4, cols=54, seed=0):
    return CountMinSketch(random_hash_family(rows, cols, rng=np.random.default_rng(seed)))


class TestDims:
    def test_paper_epsilon(self):
        # eps = 0.05 -> ceil(e/0.05) = 55 columns (paper rounds to 54).
        rows, cols = dims_for(0.05, 0.1)
        assert cols == 55
        assert rows == 3

    def test_monotone_in_epsilon(self):
        _, wide = dims_for(0.01, 0.1)
        _, narrow = dims_for(0.5, 0.1)
        assert wide > narrow

    def test_monotone_in_delta(self):
        deep, _ = dims_for(0.1, 0.001)
        shallow, _ = dims_for(0.1, 0.5)
        assert deep > shallow

    @pytest.mark.parametrize("eps", [0.0, -1.0, 1.5])
    def test_rejects_bad_epsilon(self, eps):
        with pytest.raises(ValueError):
            dims_for(eps, 0.1)

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.5])
    def test_rejects_bad_delta(self, delta):
        with pytest.raises(ValueError):
            dims_for(0.1, delta)


class TestFrequencyUpdates:
    def test_single_item(self):
        cm = make_sketch()
        for _ in range(10):
            cm.update(42)
        assert cm.query(42) == 10
        assert cm.total_weight == 10
        assert cm.update_count == 10

    def test_never_underestimates(self):
        cm = make_sketch(rows=3, cols=16)
        rng = np.random.default_rng(1)
        items = rng.integers(0, 100, size=2000)
        truth = {}
        for item in items:
            cm.update(int(item))
            truth[int(item)] = truth.get(int(item), 0) + 1
        for item, freq in truth.items():
            assert cm.query(item) >= freq

    def test_error_bound_holds_in_expectation(self):
        """Count-Min guarantee: overestimate <= eps*m with prob >= 1-delta."""
        eps, delta = 0.05, 0.05
        cm = CountMinSketch.from_accuracy(eps, delta, rng=np.random.default_rng(5))
        rng = np.random.default_rng(6)
        m = 20_000
        items = rng.zipf(1.3, size=m) % 4096
        truth = {}
        for item in items:
            truth[int(item)] = truth.get(int(item), 0) + 1
        cm.update_many(items)
        violations = sum(
            1 for item, freq in truth.items() if cm.query(item) - freq > eps * m
        )
        assert violations / len(truth) <= delta

    def test_update_many_matches_loop(self):
        a, b = make_sketch(seed=3), make_sketch(seed=3)
        items = np.array([1, 5, 5, 9, 4095])
        a.update_many(items)
        for item in items:
            b.update(int(item))
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_update_many_empty(self):
        cm = make_sketch()
        cm.update_many(np.array([], dtype=np.int64))
        assert cm.update_count == 0


class TestWeightedUpdates:
    def test_weighted_accumulation(self):
        cm = make_sketch()
        cm.update(7, weight=2.5)
        cm.update(7, weight=1.5)
        assert cm.query(7) == pytest.approx(4.0)

    def test_rejects_negative_weight(self):
        cm = make_sketch()
        with pytest.raises(ValueError):
            cm.update(1, weight=-1.0)

    def test_update_many_weights(self):
        a, b = make_sketch(seed=4), make_sketch(seed=4)
        items = np.array([3, 3, 8])
        weights = np.array([1.0, 2.0, 0.5])
        a.update_many(items, weights)
        for item, w in zip(items, weights):
            b.update(int(item), float(w))
        np.testing.assert_allclose(a.matrix, b.matrix)

    def test_update_many_rejects_shape_mismatch(self):
        cm = make_sketch()
        with pytest.raises(ValueError):
            cm.update_many(np.array([1, 2]), np.array([1.0]))

    def test_update_many_rejects_negative(self):
        cm = make_sketch()
        with pytest.raises(ValueError):
            cm.update_many(np.array([1]), np.array([-1.0]))


def entry_points(cm):
    """Every way a single weight reaches a matrix: name -> (sketches it
    moves, call taking the weight)."""
    pair = FWPair(cm.hashes)
    return {
        "update": ([cm], lambda w: cm.update(5, w)),
        "update_at": ([cm], lambda w: cm.update_at(cm.bucket_cache.columns(5), w)),
        "update_many": (
            [cm], lambda w: cm.update_many(np.array([1, 5]), np.array([1.0, w]))
        ),
        "FWPair.update": ([pair.freq, pair.work], lambda w: pair.update(5, w)),
    }


ENTRY_POINTS = list(entry_points(make_sketch()))


def counters(sketches):
    return [
        (cm.matrix.tobytes(), cm.total_weight, cm.update_count) for cm in sketches
    ]


class TestWeightRefusals:
    """``weight < 0`` lets NaN and +inf through; every entry point tests
    ``0.0 <= w < inf`` before the matrix or a counter moves."""

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf"), -1.0]
    )
    def test_a_bad_weight_leaves_the_sketch_untouched(self, entry, bad):
        sketches, call = entry_points(make_sketch(seed=6))[entry]
        call(2.5)
        before = counters(sketches)
        with pytest.raises(ValueError, match="finite and >= 0"):
            call(bad)
        assert counters(sketches) == before

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_negative_zero_is_a_weight(self, entry):
        sketches, call = entry_points(make_sketch(seed=6))[entry]
        before = [cm.update_count for cm in sketches]
        call(-0.0)
        assert all(cm.update_count > was for cm, was in zip(sketches, before))


class TestFlatView:
    """The batch fold writes through ``matrix.reshape(-1)``: a copy there
    would move the counters and leave the matrix as it was."""

    def test_a_matrix_rebound_without_a_shared_flat_view_is_refused(self):
        cm = make_sketch(seed=8)
        cm._matrix = np.asfortranarray(cm._matrix)
        cells = cm.bucket_cache.cells_many(np.array([3, 9]))
        with pytest.raises(ValueError, match="share memory"):
            cm.fold_batch_exact(cells, None)
        assert cm.update_count == 0 and cm.total_weight == 0.0
        # a contiguous slice of a larger buffer (the arena's layout) passes
        arena = np.zeros((3, 4, 54))
        cm._matrix = arena[1]
        cm.fold_batch_exact(cells, None)
        assert arena[1].sum() == 8.0 and arena[0].sum() == arena[2].sum() == 0.0


class TestQueries:
    def test_empty_sketch_queries_zero(self):
        cm = make_sketch()
        assert cm.query(123) == 0.0


class TestLifecycle:
    def test_reset(self):
        cm = make_sketch()
        cm.update(1, 5.0)
        cm.reset()
        assert cm.query(1) == 0.0
        assert cm.total_weight == 0.0
        assert cm.update_count == 0

    def test_copy_is_independent(self):
        cm = make_sketch()
        cm.update(1)
        clone = cm.copy()
        cm.update(1)
        assert clone.query(1) == 1
        assert cm.query(1) == 2

    def test_merge_equals_combined_stream(self):
        fam = random_hash_family(4, 16, rng=np.random.default_rng(8))
        a, b, combined = CountMinSketch(fam), CountMinSketch(fam), CountMinSketch(fam)
        for item in (1, 2, 3):
            a.update(item)
            combined.update(item)
        for item in (3, 4):
            b.update(item, 2.0)
            combined.update(item, 2.0)
        a.merge(b)
        np.testing.assert_allclose(a.matrix, combined.matrix)
        assert a.total_weight == combined.total_weight

    def test_merge_rejects_different_family(self):
        a = make_sketch(seed=1)
        b = make_sketch(seed=2)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_error_bound_value(self):
        cm = make_sketch(rows=2, cols=27)
        cm.update(1, 27.0)
        assert cm.error_bound() == pytest.approx(math.e)


class TestProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1000),
                st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            ),
            max_size=200,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_query_never_underestimates_weighted(self, updates):
        cm = make_sketch(rows=3, cols=16, seed=13)
        truth = {}
        for item, weight in updates:
            cm.update(item, weight)
            truth[item] = truth.get(item, 0.0) + weight
        for item, total in truth.items():
            assert cm.query(item) >= total - 1e-9

    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_total_weight_equals_stream_length(self, items):
        cm = make_sketch(seed=17)
        for item in items:
            cm.update(item)
        assert cm.total_weight == len(items)

    @given(st.lists(st.integers(min_value=0, max_value=30), max_size=80))
    @settings(max_examples=30, deadline=None)
    def test_row_sums_are_equal(self, items):
        """Every row receives every update exactly once."""
        cm = make_sketch(rows=4, cols=8, seed=19)
        for item in items:
            cm.update(item)
        sums = cm.matrix.sum(axis=1)
        assert np.allclose(sums, len(items))
