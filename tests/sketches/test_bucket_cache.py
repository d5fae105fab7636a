"""Tests for the per-family bucket-column cache.

The cache must be a pure accelerator: every lookup — scalar or bulk,
inside or outside the cacheable range — returns exactly what the hash
family computes, and sketches built on the cache end up in the same
state as a hand-folded reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sketches.bucket_cache import (
    MAX_CACHED_ITEM,
    BucketColumnCache,
    get_bucket_cache,
)
from repro.sketches.count_min import CountMinSketch
from repro.sketches.hashing import random_hash_family
from repro.core.matrices import FWPair


class TestColumnLookups:
    def test_scalar_matches_hash_all(self):
        fam = random_hash_family(4, 54, rng=np.random.default_rng(0))
        cache = BucketColumnCache(fam)
        for item in (0, 1, 17, 4095, 123456):
            assert cache.columns(item) == fam.hash_all(item)

    def test_bulk_matches_hash_vector(self):
        fam = random_hash_family(4, 54, rng=np.random.default_rng(1))
        cache = BucketColumnCache(fam)
        items = np.random.default_rng(2).integers(0, 1 << 16, size=500)
        got = cache.columns_many(items)
        expected = fam.hash_vector(items.astype(np.uint64))
        np.testing.assert_array_equal(got, expected)
        # second lookup is served from the table, identically
        np.testing.assert_array_equal(cache.columns_many(items), expected)

    def test_lazy_fill_only_touched_items(self):
        fam = random_hash_family(3, 32, rng=np.random.default_rng(3))
        cache = BucketColumnCache(fam)
        assert cache.cached_items == 0
        cache.columns(42)
        assert cache.cached_items == 1
        cache.columns_many(np.array([1, 2, 3, 42]))
        assert cache.cached_items == 4

    def test_scalar_and_bulk_share_memoization(self):
        fam = random_hash_family(3, 32, rng=np.random.default_rng(4))
        cache = BucketColumnCache(fam)
        bulk = cache.columns_many(np.array([7, 8]))
        assert cache.columns(7) == tuple(bulk[:, 0].tolist())

    def test_out_of_range_items_bypass_cache(self):
        fam = random_hash_family(3, 32, rng=np.random.default_rng(5))
        cache = BucketColumnCache(fam)
        huge = MAX_CACHED_ITEM + 10
        items = np.array([1, huge])
        got = cache.columns_many(items)
        expected = fam.hash_vector(items.astype(np.uint64))
        np.testing.assert_array_equal(got, expected)
        assert cache.cached_items == 0  # bypass, nothing materialized
        # scalar path still answers (memoized in the dict, not the table)
        assert cache.columns(huge) == fam.hash_all(huge)

    def test_negative_items_agree_between_bulk_and_scalar(self):
        fam = random_hash_family(3, 32, rng=np.random.default_rng(5))
        cache = BucketColumnCache(fam)
        items = np.array([-1, 4, -4096, -(1 << 63)])
        bulk = cache.columns_many(items)
        for j, item in enumerate(items.tolist()):
            assert tuple(bulk[:, j].tolist()) == cache.columns(item)

    def test_shared_cache_per_family_object(self):
        fam = random_hash_family(3, 32, rng=np.random.default_rng(6))
        assert get_bucket_cache(fam) is get_bucket_cache(fam)
        other = random_hash_family(3, 32, rng=np.random.default_rng(7))
        assert get_bucket_cache(fam) is not get_bucket_cache(other)

    def test_prefill(self):
        fam = random_hash_family(3, 32, rng=np.random.default_rng(8))
        cache = BucketColumnCache(fam)
        cache.prefill(100)
        assert cache.cached_items == 100


#: negatives, the initial 1024-slot table, past two capacity doublings,
#: and ids the table never holds
IDS = st.one_of(
    st.integers(-(1 << 40), -1),
    st.integers(0, 1023),
    st.integers(1024, 5000),
    st.integers(MAX_CACHED_ITEM + 1, MAX_CACHED_ITEM + (1 << 20)),
)
LOOKUPS = st.lists(st.one_of(IDS, st.lists(IDS, min_size=1, max_size=12)), max_size=30)


class TestFlatCells:
    @given(LOOKUPS)
    @settings(max_examples=100, deadline=None)
    def test_cells_are_columns_plus_row_offsets(self, lookups):
        """Whichever of the scalar and the bulk path fills an id first,
        and whether the batch is tabled or bypasses the table."""
        fam = random_hash_family(3, 32, rng=np.random.default_rng(14))
        first, second = CountMinSketch(fam), CountMinSketch(fam)
        cache = first.bucket_cache
        offsets = np.arange(3)[:, None] * 32
        for lookup in lookups:
            if isinstance(lookup, int):
                assert cache.columns(lookup) == fam.hash_all(lookup)
                continue
            ids = np.array(lookup)
            columns = cache.columns_many(ids)
            np.testing.assert_array_equal(cache.cells_many(ids), columns + offsets)
            assert columns.T.tolist() == [list(fam.hash_all(i)) for i in lookup]
        # one table, however often it was regrown, under both sketches
        assert second.bucket_cache is cache
        assert cache._table.shape == (3, cache._known.shape[0])


class TestCachedSketchEquality:
    def test_mixed_update_stream_matches_reference_fold(self):
        """Sketch state after interleaved scalar/bulk updates equals a
        hand-computed fold through the family's scalar hash."""
        fam = random_hash_family(4, 54, rng=np.random.default_rng(9))
        cm = CountMinSketch(fam)
        rng = np.random.default_rng(10)
        reference = np.zeros(cm.shape)
        for _ in range(5):
            item = int(rng.integers(0, 4096))
            weight = float(rng.uniform(0.5, 2.0))
            cm.update(item, weight)
            for row, col in enumerate(fam.hash_all(item)):
                reference[row, col] += weight
            batch = rng.integers(0, 4096, size=50)
            weights = rng.uniform(0.5, 2.0, size=50)
            cm.update_many(batch, weights)
            for item_b, w in zip(batch.tolist(), weights.tolist()):
                for row, col in enumerate(fam.hash_all(item_b)):
                    reference[row, col] += w
        np.testing.assert_allclose(cm.matrix, reference)

    def test_queries_after_cached_updates(self):
        fam = random_hash_family(4, 54, rng=np.random.default_rng(11))
        cm = CountMinSketch(fam)
        for item in range(100):
            cm.update(item)
        for item in range(100):
            assert cm.query(item) >= 1.0

    def test_matrix_view_read_only(self):
        fam = random_hash_family(4, 54, rng=np.random.default_rng(12))
        cm = CountMinSketch(fam)
        cm.update(1)
        with pytest.raises(ValueError):
            cm.matrix[0, 0] = 99.0


class TestEstimateMany:
    def _trained_pair(self, seed=13):
        fam = random_hash_family(4, 54, rng=np.random.default_rng(seed))
        pair = FWPair(fam)
        rng = np.random.default_rng(seed + 1)
        for _ in range(500):
            pair.update(int(rng.integers(0, 256)), float(rng.uniform(1.0, 8.0)))
        return pair

    def test_estimate_many_matches_scalar(self):
        pair = self._trained_pair()
        items = np.arange(0, 512)  # half observed, half never seen
        bulk = pair.estimate_many(items)
        for j, item in enumerate(items.tolist()):
            assert bulk[j] == pair.estimate(item)

    def test_estimate_many_at_matches_estimate_many(self):
        """The pre-hashed kernel takes flat cells (``estimate_many_cells``;
        it was ``estimate_many_at`` over bucket columns)."""
        pair = self._trained_pair(seed=20)
        items = np.arange(0, 300)
        cells = pair.freq.bucket_cache.cells_many(items)
        np.testing.assert_array_equal(
            pair.estimate_many_cells(cells), pair.estimate_many(items)
        )

    def test_estimate_many_stacked_is_estimate_many_cell_by_cell(self):
        """Any mix of (pair, id) cells in one call, bit for bit: trained
        pairs, a sparse one (unobserved ids read its mean) and an empty
        one (reads 0.0)."""
        fam = random_hash_family(4, 54, rng=np.random.default_rng(40))
        rng = np.random.default_rng(41)
        pairs = [FWPair(fam) for _ in range(4)]
        for pair, samples in zip(pairs, (500, 300, 3, 0)):
            for _ in range(samples):
                pair.update(int(rng.integers(0, 256)), float(rng.uniform(1.0, 8.0)))
        which = rng.integers(0, len(pairs), size=700)
        items = rng.integers(0, 512, size=700)
        stacked = FWPair.estimate_many_stacked(
            pairs, which, get_bucket_cache(fam).cells_many(items)
        )
        expected = np.stack([pair.estimate_many(items) for pair in pairs])
        np.testing.assert_array_equal(stacked, expected[which, np.arange(700)])
        assert set(which.tolist()) == {0, 1, 2, 3}

    def test_empty_batch(self):
        pair = self._trained_pair(seed=30)
        assert pair.estimate_many(np.empty(0, dtype=np.int64)).shape == (0,)
