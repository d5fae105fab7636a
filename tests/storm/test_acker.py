"""Tests for the XOR ack tracker."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storm.acker import _ACK_ID_BLOCK, AckTracker


@pytest.fixture
def tracker():
    return AckTracker(message_timeout=1000.0, rng=np.random.default_rng(0))


class TestBasics:
    def test_rejects_bad_timeout(self):
        with pytest.raises(ValueError):
            AckTracker(0.0)

    def test_fresh_ids_nonzero_and_distinct(self, tracker):
        ids = {tracker.fresh_ack_id() for _ in range(100)}
        assert 0 not in ids
        assert len(ids) == 100

    def test_single_edge_tree(self, tracker):
        root = tracker.fresh_ack_id()
        tracker.register_root("m1", root, now=5.0)
        assert tracker.pending_count == 1
        result = tracker.ack("m1", root)
        assert result == (True, 5.0)
        assert tracker.pending_count == 0
        assert tracker.acked == 1

    def test_duplicate_root_rejected(self, tracker):
        tracker.register_root("m1", 1, now=0.0)
        with pytest.raises(ValueError):
            tracker.register_root("m1", 2, now=0.0)


class TestTrees:
    def test_multi_edge_tree_completes_only_when_all_acked(self, tracker):
        root = tracker.fresh_ack_id()
        tracker.register_root("m1", root, now=0.0)
        edges = [tracker.fresh_ack_id() for _ in range(3)]
        for edge in edges:
            tracker.register_edge("m1", edge)
        assert tracker.ack("m1", root) is None
        assert tracker.ack("m1", edges[0]) is None
        assert tracker.ack("m1", edges[1]) is None
        result = tracker.ack("m1", edges[2])
        assert result is not None

    def test_edge_for_unknown_tree_ignored(self, tracker):
        tracker.register_edge("ghost", 123)  # no exception
        assert tracker.ack("ghost", 123) is None

    def test_fail_removes_tree(self, tracker):
        tracker.register_root("m1", 1, now=0.0)
        assert tracker.fail("m1") is True
        assert tracker.fail("m1") is False
        assert tracker.failed == 1
        assert tracker.ack("m1", 1) is None


class TestTimeouts:
    def test_expire_old_trees(self, tracker):
        tracker.register_root("old", 1, now=0.0)
        tracker.register_root("new", 2, now=800.0)
        expired = tracker.expire(now=1000.0)
        assert expired == ["old"]
        assert tracker.timed_out == 1
        assert tracker.pending_count == 1

    def test_next_expiry(self, tracker):
        assert tracker.next_expiry() is None
        tracker.register_root("m1", 1, now=42.0)
        assert tracker.next_expiry() == 42.0 + 1000.0

    def test_expire_none_when_young(self, tracker):
        tracker.register_root("m1", 1, now=0.0)
        assert tracker.expire(now=500.0) == []


class TestXorProperty:
    def test_interleaved_acks_and_edges(self, tracker):
        """Acks may arrive while new edges are still being registered."""
        root = tracker.fresh_ack_id()
        tracker.register_root("m1", root, now=0.0)
        e1 = tracker.fresh_ack_id()
        tracker.register_edge("m1", e1)
        assert tracker.ack("m1", root) is None
        e2 = tracker.fresh_ack_id()
        tracker.register_edge("m1", e2)
        assert tracker.ack("m1", e1) is None
        assert tracker.ack("m1", e2) is not None

    def test_outstanding_guard_prevents_false_completion(self, tracker):
        """Two identical ack ids XOR to zero but outstanding count saves us."""
        tracker.register_root("m1", 7, now=0.0)
        tracker.register_edge("m1", 7)  # checksum back to 0, outstanding 2
        assert tracker.ack("m1", 5) is None  # checksum nonzero again


class TestBlockDrawnAckIds:
    @pytest.mark.parametrize("seed", [0, 5, 11])
    def test_equal_the_scalar_draws_of_the_same_seed(self, seed):
        """Serving ids from blocks must not move the stream: three blocks'
        worth equals one scalar draw per id from an identical generator."""
        count = 2 * _ACK_ID_BLOCK + 17
        tracker = AckTracker(1000.0, rng=np.random.default_rng(seed))
        served = [tracker.fresh_ack_id() for _ in range(count)]
        scalar_rng = np.random.default_rng(seed)
        scalar = [
            int(scalar_rng.integers(1, 1 << 64, dtype=np.uint64))
            for _ in range(count)
        ]
        assert served == scalar
        assert all(type(ack_id) is int and 1 <= ack_id < 1 << 64 for ack_id in served)


#: one step of a tracker's life: emit a new tree, complete or fail a
#: pending one, replay a settled id, or sweep — each after a time advance
STEPS = st.lists(
    st.tuples(
        st.sampled_from(["emit", "emit", "ack", "fail", "replay", "sweep"]),
        st.sampled_from([0.0, 0.0, 1.0, 7.0, 30.0]),
        st.integers(0, 1000),
    ),
    max_size=60,
)


class TestSweepInEmissionOrder:
    @given(STEPS)
    @settings(max_examples=200, deadline=None)
    def test_expire_and_next_expiry_match_a_full_scan(self, steps):
        """Stopping at the first young tree finds what scanning every
        pending tree finds, replays and out-of-order completions included."""
        timeout = 20.0
        tracker = AckTracker(timeout, rng=np.random.default_rng(0))
        pending = {}  # the full-scan model: msg_id -> emitted_at
        settled = []
        now = 0.0
        for kind, advance, pick in steps:
            now += advance
            if kind == "emit" or (kind == "replay" and not settled):
                msg_id = len(pending) + len(settled)
                tracker.register_root(msg_id, 1, now)
                pending[msg_id] = now
            elif kind == "replay":
                msg_id = settled.pop(pick % len(settled))
                tracker.register_root(msg_id, 1, now)
                pending[msg_id] = now
            elif kind == "sweep":
                expected = [m for m, at in pending.items() if now - at >= timeout]
                assert tracker.expire(now) == expected
                for msg_id in expected:
                    settled.append(msg_id)
                    del pending[msg_id]
            elif pending:
                msg_id = list(pending)[pick % len(pending)]
                if kind == "ack":
                    assert tracker.ack(msg_id, 1) == (True, pending[msg_id])
                else:
                    assert tracker.fail(msg_id)
                settled.append(msg_id)
                del pending[msg_id]
            assert tracker.pending_count == len(pending)
            assert tracker.next_expiry() == (
                min(pending.values()) + timeout if pending else None
            )

    def test_rejects_an_emission_time_that_goes_backwards(self, tracker):
        tracker.register_root("m1", 1, now=10.0)
        with pytest.raises(ValueError, match="backwards"):
            tracker.register_root("m2", 2, now=9.0)
        assert tracker.pending_count == 1
