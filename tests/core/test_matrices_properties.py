"""Hypothesis properties of the F/W pair's stability metric (Eq. 1)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import POSGConfig
from repro.core.matrices import FWPair, make_shared_hashes


def make_pair(seed=0):
    hashes = make_shared_hashes(POSGConfig(rows=2, cols=8),
                                np.random.default_rng(seed))
    return FWPair(hashes)


updates = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=30),
        st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
    ),
    max_size=60,
)


class TestRelativeErrorProperties:
    @given(updates, updates)
    @settings(max_examples=60, deadline=None)
    def test_eta_nonnegative(self, first, second):
        pair = make_pair()
        for item, time in first:
            pair.update(item, time)
        snapshot = pair.snapshot()
        for item, time in second:
            pair.update(item, time)
        assert pair.relative_error(snapshot) >= 0.0

    @given(updates)
    @settings(max_examples=60, deadline=None)
    def test_eta_zero_against_own_snapshot(self, batch):
        pair = make_pair()
        for item, time in batch:
            pair.update(item, time)
        assert pair.relative_error(pair.snapshot()) == 0.0

    @given(updates, st.integers(min_value=1, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_eta_invariant_under_scaling(self, batch, doublings):
        """Scaling both matrices preserves every ratio, hence eta; merging
        a copy into each doubles it exactly."""
        pair = make_pair()
        for item, time in batch:
            pair.update(item, time)
        snapshot = pair.snapshot()
        pair.update(3, 5.0)
        before = pair.relative_error(snapshot)
        for _ in range(doublings):
            pair.freq.merge(pair.freq.copy())
            pair.work.merge(pair.work.copy())
        after = pair.relative_error(snapshot)
        assert after == np.float64(before) or abs(after - before) < 1e-9

    @given(updates)
    @settings(max_examples=40, deadline=None)
    def test_snapshot_matches_estimates_upper_bound(self, batch):
        """Every estimate equals some snapshot cell value (the min-F row's
        ratio), so estimates live inside the snapshot's value range."""
        pair = make_pair()
        for item, time in batch:
            pair.update(item, time)
        if not batch:
            return
        snapshot = pair.snapshot()
        positive = snapshot[snapshot > 0]
        for item, _ in batch:
            estimate = pair.estimate(item)
            assert positive.min() - 1e-9 <= estimate <= positive.max() + 1e-9
