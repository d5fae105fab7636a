"""Deterministic tests for the scheduler's RecoveryConfig defenses.

Each scenario drives :class:`POSGScheduler` by hand — matrices in,
submits, replies in — so the timing of every defense (sync-round
timeout, bounded backoff, abandonment, staleness watchdog, generation
re-baselining) is exact.  All matrices are *empty* pairs: their
estimates are 0.0, so ``C_hat`` moves only through sync deltas and the
re-baselining arithmetic can be asserted to the last bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import POSGConfig, RecoveryConfig
from repro.core.instance import InstanceTracker
from repro.core.matrices import FWPair, make_shared_hashes
from repro.core.messages import MatricesMessage, SyncReply
from repro.core.scheduler import POSGScheduler, SchedulerState


def make_scheduler(k=3, recovery=None):
    config = POSGConfig(rows=2, cols=8, window_size=16, recovery=recovery)
    hashes = make_shared_hashes(config, np.random.default_rng(0))
    return POSGScheduler(k, config), hashes


def send_matrices(scheduler, hashes, instance, generation=0):
    scheduler.on_message(
        MatricesMessage(instance=instance, matrices=FWPair(hashes),
                        tuples_observed=0, generation=generation)
    )


def drain_send_all(scheduler):
    """Submit tuples until SEND_ALL finishes; return the emitted requests."""
    requests = []
    while scheduler.state is SchedulerState.SEND_ALL:
        decision = scheduler.submit(0)
        if decision.sync_request is not None:
            requests.append(decision.sync_request)
    return requests


def bootstrap(scheduler, hashes):
    """Matrices from everyone, then drain the first SEND_ALL round."""
    for instance in range(scheduler.k):
        send_matrices(scheduler, hashes, instance)
    assert scheduler.state is SchedulerState.SEND_ALL
    return drain_send_all(scheduler)


class TestSyncTimeout:
    def test_retransmits_missing_instances_only_with_same_epoch(self):
        recovery = RecoveryConfig(sync_timeout=4, sync_max_retries=2,
                                  staleness_limit=None)
        scheduler, hashes = make_scheduler(k=3, recovery=recovery)
        bootstrap(scheduler, hashes)
        epoch = scheduler.epoch
        scheduler.on_message(SyncReply(instance=0, epoch=epoch, delta=1.0))
        assert scheduler.pending_replies == {1, 2}

        for _ in range(3):  # within the timeout: nothing happens
            scheduler.submit(0)
        assert scheduler.state is SchedulerState.WAIT_ALL
        assert scheduler.sync_retransmits == 0

        first = scheduler.submit(0)  # deadline reached: re-enter SEND_ALL
        second = scheduler.submit(0)
        assert scheduler.sync_retransmits == 1
        assert [r.instance for r in (first.sync_request, second.sync_request)] == [1, 2]
        assert first.sync_request.epoch == epoch  # NOT a new epoch
        assert second.sync_request.epoch == epoch
        assert scheduler.state is SchedulerState.WAIT_ALL

        scheduler.on_message(SyncReply(instance=1, epoch=epoch, delta=2.0))
        scheduler.on_message(SyncReply(instance=2, epoch=epoch, delta=3.0))
        assert scheduler.state is SchedulerState.RUN
        np.testing.assert_allclose(scheduler.c_hat, [1.0, 2.0, 3.0])

    def test_duplicate_reply_after_completion_is_dropped_as_stale(self):
        recovery = RecoveryConfig(sync_timeout=4, staleness_limit=None)
        scheduler, hashes = make_scheduler(k=2, recovery=recovery)
        bootstrap(scheduler, hashes)
        epoch = scheduler.epoch
        scheduler.on_message(SyncReply(instance=0, epoch=epoch, delta=1.0))
        scheduler.on_message(SyncReply(instance=1, epoch=epoch, delta=1.0))
        assert scheduler.state is SchedulerState.RUN
        before = scheduler.stale_replies_dropped
        # the original (pre-retransmission) copy finally arrives
        scheduler.on_message(SyncReply(instance=1, epoch=epoch, delta=1.0))
        assert scheduler.stale_replies_dropped == before + 1
        np.testing.assert_allclose(scheduler.c_hat, [1.0, 1.0])

    def test_backoff_doubles_then_caps_then_abandons(self):
        recovery = RecoveryConfig(sync_timeout=4, sync_backoff=2.0,
                                  sync_timeout_max=8, sync_max_retries=3,
                                  staleness_limit=None)
        scheduler, hashes = make_scheduler(k=2, recovery=recovery)
        bootstrap(scheduler, hashes)  # replies never arrive

        triggers = []
        retransmits = 0
        while scheduler.state is not SchedulerState.RUN:
            scheduler.submit(0)
            if scheduler.sync_retransmits > retransmits:
                retransmits = scheduler.sync_retransmits
                triggers.append(scheduler.tuples_scheduled)
        # bootstrap drains at tuple 2; deadlines at +4, then +8, then +8
        # (capped), each measured from re-entering WAIT_ALL two resends
        # after the previous trigger.
        assert triggers == [6, 15, 24]
        assert scheduler.sync_rounds_abandoned == 1
        assert scheduler.state is SchedulerState.RUN

    def test_abandoned_round_folds_partial_deltas(self):
        recovery = RecoveryConfig(sync_timeout=4, sync_max_retries=0,
                                  staleness_limit=None)
        scheduler, hashes = make_scheduler(k=3, recovery=recovery)
        bootstrap(scheduler, hashes)
        scheduler.on_message(
            SyncReply(instance=0, epoch=scheduler.epoch, delta=5.0)
        )
        while scheduler.state is SchedulerState.WAIT_ALL:
            scheduler.submit(0)
        assert scheduler.state is SchedulerState.RUN
        assert scheduler.sync_rounds_abandoned == 1
        assert scheduler.sync_retransmits == 0
        np.testing.assert_allclose(scheduler.c_hat, [5.0, 0.0, 0.0])

    def test_replies_arriving_during_send_all_complete_on_entry(self):
        recovery = RecoveryConfig(sync_timeout=64, staleness_limit=None)
        scheduler, hashes = make_scheduler(k=2, recovery=recovery)
        for instance in range(2):
            send_matrices(scheduler, hashes, instance)
        epoch = scheduler.epoch
        scheduler.submit(0)  # request for instance 0 goes out
        # Reordering delivers both replies before SEND_ALL finishes —
        # instance 1's even before its own request was emitted.
        scheduler.on_message(SyncReply(instance=0, epoch=epoch, delta=1.0))
        scheduler.on_message(SyncReply(instance=1, epoch=epoch, delta=2.0))
        assert scheduler.state is SchedulerState.SEND_ALL
        scheduler.submit(0)  # last request out: nothing left to wait for
        assert scheduler.state is SchedulerState.RUN
        assert scheduler.sync_rounds_completed == 1

    def test_without_recovery_a_lost_reply_strands_wait_all(self):
        scheduler, hashes = make_scheduler(k=2, recovery=None)
        bootstrap(scheduler, hashes)
        scheduler.on_message(
            SyncReply(instance=0, epoch=scheduler.epoch, delta=1.0)
        )
        for _ in range(200):
            scheduler.submit(0)
        assert scheduler.state is SchedulerState.WAIT_ALL
        assert scheduler.sync_retransmits == 0


class TestStalenessWatchdog:
    def test_silent_instance_forces_round_robin_and_keeps_fresh_matrices(self):
        recovery = RecoveryConfig(sync_timeout=100, staleness_limit=10)
        scheduler, hashes = make_scheduler(k=2, recovery=recovery)
        bootstrap(scheduler, hashes)
        epoch = scheduler.epoch
        scheduler.on_message(SyncReply(instance=0, epoch=epoch, delta=1.0))
        scheduler.on_message(SyncReply(instance=1, epoch=epoch, delta=1.0))
        assert scheduler.state is SchedulerState.RUN

        # instance 0 stays chatty; instance 1 goes silent at tuple 0
        send_matrices(scheduler, hashes, 0)
        drain_send_all(scheduler)
        epoch = scheduler.epoch
        scheduler.on_message(SyncReply(instance=0, epoch=epoch, delta=1.0))
        scheduler.on_message(SyncReply(instance=1, epoch=epoch, delta=1.0))
        assert scheduler.state is SchedulerState.RUN

        while scheduler.state is SchedulerState.RUN:
            scheduler.submit(0)
        assert scheduler.state is SchedulerState.ROUND_ROBIN
        assert scheduler.watchdog_fallbacks == 1
        assert scheduler.tuples_scheduled == 11  # limit exceeded, not met

        # Instance 0's matrices survived the fallback: one message from
        # the silent instance completes the set again (Figure 3.B).
        send_matrices(scheduler, hashes, 1)
        assert scheduler.state is SchedulerState.SEND_ALL

    def test_disabled_watchdog_never_falls_back(self):
        recovery = RecoveryConfig(sync_timeout=100, staleness_limit=None)
        scheduler, hashes = make_scheduler(k=2, recovery=recovery)
        bootstrap(scheduler, hashes)
        epoch = scheduler.epoch
        scheduler.on_message(SyncReply(instance=0, epoch=epoch, delta=1.0))
        scheduler.on_message(SyncReply(instance=1, epoch=epoch, delta=1.0))
        for _ in range(500):
            scheduler.submit(0)
        assert scheduler.state is SchedulerState.RUN
        assert scheduler.watchdog_fallbacks == 0


def defence_counters(scheduler):
    return (
        scheduler.sync_retransmits,
        scheduler.sync_rounds_abandoned,
        scheduler.watchdog_fallbacks,
    )


class TestDefenseDeadline:
    """``defense_deadline()`` names the exact ``submit`` at which a
    defence next acts — the contract the simulator's segment router
    relies on to route whole segments without ticking per tuple."""

    K = 3

    #: one step of a random walk over reachable scheduler states
    operations = st.one_of(
        st.tuples(st.just("matrices"), st.integers(0, K - 1)),
        st.tuples(st.just("reply"), st.integers(0, K - 1)),
        st.tuples(st.just("replies"), st.just(None)),
        st.tuples(st.just("submit"), st.integers(1, 12)),
    )

    @given(
        st.lists(operations, max_size=40),
        st.sampled_from([1, 3, 7]),
        st.sampled_from([0, 1, 3]),
        st.sampled_from([None, 5, 20]),
    )
    @settings(max_examples=300, deadline=None)
    def test_a_defence_acts_at_exactly_the_deadline(
        self, walk, timeout, retries, staleness
    ):
        recovery = RecoveryConfig(
            sync_timeout=timeout, sync_timeout_max=4 * timeout,
            sync_max_retries=retries, staleness_limit=staleness,
        )
        scheduler, hashes = make_scheduler(k=self.K, recovery=recovery)
        bootstrap(scheduler, hashes)
        for operation, argument in walk:
            if operation == "matrices":
                send_matrices(scheduler, hashes, argument)
            elif operation == "reply":
                scheduler.on_message(
                    SyncReply(instance=argument, epoch=scheduler.epoch, delta=1.0)
                )
            elif operation == "replies":
                for instance in sorted(scheduler.pending_replies):
                    scheduler.on_message(
                        SyncReply(instance=instance, epoch=scheduler.epoch, delta=1.0)
                    )
            else:
                for _ in range(argument):
                    scheduler.submit(0)
        # the deadline is defined where the tick runs: past SEND_ALL
        drain_send_all(scheduler)

        deadline = scheduler.defense_deadline()
        before = defence_counters(scheduler)
        if deadline is None:
            state = scheduler.state
            for _ in range(50):
                scheduler.submit(0)
            assert defence_counters(scheduler) == before
            assert scheduler.state is state
            return
        assert deadline > scheduler.tuples_scheduled
        while scheduler.tuples_scheduled < deadline - 1:
            scheduler.submit(0)
            assert defence_counters(scheduler) == before
            assert scheduler.defense_deadline() == deadline
        scheduler.submit(0)
        assert sum(defence_counters(scheduler)) == sum(before) + 1

    def test_disabled_recovery_has_no_deadline(self):
        scheduler, hashes = make_scheduler(k=2, recovery=None)
        bootstrap(scheduler, hashes)
        assert scheduler.state is SchedulerState.WAIT_ALL
        assert scheduler.defense_deadline() is None


class TestGenerationRebaselining:
    def test_restart_offsets_preserve_c_hat_continuity(self):
        recovery = RecoveryConfig(sync_timeout=100, staleness_limit=None)
        scheduler, hashes = make_scheduler(k=2, recovery=recovery)
        bootstrap(scheduler, hashes)
        epoch = scheduler.epoch
        scheduler.on_message(SyncReply(instance=0, epoch=epoch, delta=10.0))
        scheduler.on_message(SyncReply(instance=1, epoch=epoch, delta=20.0))
        np.testing.assert_allclose(scheduler.c_hat, [10.0, 20.0])

        # instance 1 crash-restarted: its new incarnation ships matrices
        # with a bumped generation and measures C_op from zero again.
        send_matrices(scheduler, hashes, 1, generation=1)
        assert scheduler.restarts_detected == 1
        drain_send_all(scheduler)
        epoch = scheduler.epoch

        # a pre-crash reply from the dead incarnation must not count
        before = scheduler.stale_replies_dropped
        scheduler.on_message(
            SyncReply(instance=1, epoch=epoch, delta=99.0, generation=0)
        )
        assert scheduler.stale_replies_dropped == before + 1
        assert 1 in scheduler.pending_replies

        # new incarnation: C_op = 0.5, c_hat_at_send was 20 -> delta -19.5;
        # the stored offset shifts it so C_hat keeps the lifetime estimate.
        scheduler.on_message(
            SyncReply(instance=0, epoch=epoch, delta=1.0, generation=0)
        )
        scheduler.on_message(
            SyncReply(instance=1, epoch=epoch, delta=-19.5, generation=1)
        )
        assert scheduler.state is SchedulerState.RUN
        np.testing.assert_allclose(scheduler.c_hat, [11.0, 20.5])

    def test_restart_surfacing_through_a_reply_is_detected(self):
        recovery = RecoveryConfig(sync_timeout=100, staleness_limit=None)
        scheduler, hashes = make_scheduler(k=2, recovery=recovery)
        bootstrap(scheduler, hashes)
        scheduler.on_message(
            SyncReply(instance=1, epoch=scheduler.epoch, delta=0.0,
                      generation=2)
        )
        assert scheduler.restarts_detected == 1
        assert 1 not in scheduler.pending_replies


class TestMatricesRebroadcast:
    WINDOW = 2

    def make_tracker(self, rebroadcast_windows):
        recovery = RecoveryConfig(rebroadcast_windows=rebroadcast_windows)
        config = POSGConfig(rows=2, cols=8, window_size=self.WINDOW,
                            recovery=recovery)
        hashes = make_shared_hashes(config, np.random.default_rng(0))
        return InstanceTracker(0, config, hashes)

    def feed(self, tracker, count, time=1.0, grow=1.0):
        messages = []
        value = time
        for _ in range(count):
            messages.extend(tracker.execute(1, value))
            value *= grow
        return messages

    def test_quiet_windows_resend_the_last_stable_pair(self):
        tracker = self.make_tracker(rebroadcast_windows=2)
        # constant feed: snapshot at boundary 1, eta = 0 -> ship at 2
        shipped = self.feed(tracker, 2 * self.WINDOW)
        assert tracker.matrices_sent == 1
        (message,) = shipped
        # exploding execution times: eta > mu at every boundary, so the
        # instance refreshes forever and never ships a fresh pair
        resent = self.feed(tracker, 8 * self.WINDOW, grow=4.0)
        assert tracker.matrices_sent == 1
        assert tracker.matrices_rebroadcasts >= 2
        assert len(resent) == tracker.matrices_rebroadcasts
        for copy in resent:
            assert isinstance(copy, MatricesMessage)
            assert copy.generation == message.generation == 0
            assert copy.tuples_observed == message.tuples_observed
            np.testing.assert_array_equal(
                copy.matrices.freq.matrix, message.matrices.freq.matrix
            )

    def test_disabled_rebroadcast_stays_quiet(self):
        tracker = self.make_tracker(rebroadcast_windows=None)
        self.feed(tracker, 2 * self.WINDOW)
        assert tracker.matrices_sent == 1
        resent = self.feed(tracker, 8 * self.WINDOW, grow=4.0)
        assert resent == []
        assert tracker.matrices_rebroadcasts == 0

    def test_restart_forgets_the_retained_pair(self):
        tracker = self.make_tracker(rebroadcast_windows=2)
        self.feed(tracker, 2 * self.WINDOW)
        tracker.restart()
        # the pre-crash pair must not be re-sent by the new incarnation
        resent = self.feed(tracker, 8 * self.WINDOW, grow=4.0)
        assert all(m.generation == 1 for m in resent if m is not None)
        assert tracker.matrices_rebroadcasts == 0

    def test_rebroadcast_windows_validation(self):
        with pytest.raises(ValueError, match="rebroadcast_windows"):
            RecoveryConfig(rebroadcast_windows=0)
