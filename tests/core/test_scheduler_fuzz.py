"""Property-based fuzzing of the scheduler FSM.

Random interleavings of submissions and control messages must never
crash the scheduler, and its invariants must hold at every step:

- decisions always target a valid instance;
- C_hat entries stay finite;
- sync requests are emitted only in SEND_ALL, exactly k per epoch.

Every FSM edge, including each step of a tick-then-route chain inside
one ``submit``, is checked by the scheduler itself:
``POSGScheduler._transition`` raises on an edge outside
:data:`~repro.core.scheduler.TRANSITIONS` and on a recovery-only edge
with recovery off, so an illegal transition fails the example.

With a :class:`RecoveryConfig` armed the recovery-only edges open up
(watchdog fallback to ROUND_ROBIN) and the per-epoch request bound
relaxes to ``k * (1 + sync_max_retries)`` — retransmission rounds
re-issue requests under the *same* epoch.  The
recovery classes below fuzz those paths: liveness when every reply is
dropped, and stale accounting when retransmission duplicates replies.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import POSGConfig, RecoveryConfig
from repro.core.matrices import FWPair, make_shared_hashes
from repro.core.messages import MatricesMessage, SyncReply
from repro.core.scheduler import POSGScheduler, SchedulerState

#: defenses tuned small enough that fuzz sequences of ~120 actions
#: actually cross the timeout and staleness deadlines
FUZZ_RECOVERY = RecoveryConfig(
    sync_timeout=4,
    sync_backoff=2.0,
    sync_timeout_max=8,
    sync_max_retries=2,
    staleness_limit=32,
    rebroadcast_windows=None,
)


@st.composite
def action_sequences(draw):
    k = draw(st.integers(min_value=1, max_value=4))
    actions = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("submit"),
                          st.integers(min_value=0, max_value=50)),
                st.tuples(st.just("matrices"),
                          st.integers(min_value=0, max_value=3)),
                st.tuples(st.just("reply"),
                          st.integers(min_value=0, max_value=3),
                          st.integers(min_value=0, max_value=5),
                          st.floats(min_value=-100, max_value=100,
                                    allow_nan=False)),
            ),
            max_size=120,
        )
    )
    return k, actions


class TestSchedulerFuzz:
    @given(action_sequences())
    @settings(max_examples=80, deadline=None)
    def test_random_interleavings_hold_invariants(self, scenario):
        k, actions = scenario
        config = POSGConfig(rows=2, cols=8, window_size=16)
        hashes = make_shared_hashes(config, np.random.default_rng(0))
        scheduler = POSGScheduler(k, config)
        epoch_requests: dict[int, int] = {}

        for action in actions:
            if action[0] == "submit":
                decision = scheduler.submit(action[1])
                assert 0 <= decision.instance < k
                if decision.sync_request is not None:
                    assert decision.state is SchedulerState.SEND_ALL
                    epoch = decision.sync_request.epoch
                    epoch_requests[epoch] = epoch_requests.get(epoch, 0) + 1
                    assert epoch_requests[epoch] <= k
            elif action[0] == "matrices":
                instance = action[1] % k
                pair = FWPair(hashes)
                pair.update(1, 2.0)
                scheduler.on_message(
                    MatricesMessage(instance=instance, matrices=pair,
                                    tuples_observed=1)
                )
            else:  # reply
                _, instance, epoch, delta = action
                scheduler.on_message(
                    SyncReply(instance=instance % k, epoch=epoch, delta=delta)
                )
            assert np.all(np.isfinite(scheduler.c_hat))

    @given(action_sequences())
    @settings(max_examples=40, deadline=None)
    def test_counters_are_consistent(self, scenario):
        k, actions = scenario
        config = POSGConfig(rows=2, cols=8)
        hashes = make_shared_hashes(config, np.random.default_rng(1))
        scheduler = POSGScheduler(k, config)
        submits = 0
        matrices = 0
        for action in actions:
            if action[0] == "submit":
                scheduler.submit(action[1])
                submits += 1
            elif action[0] == "matrices":
                pair = FWPair(hashes)
                scheduler.on_message(
                    MatricesMessage(instance=action[1] % k, matrices=pair,
                                    tuples_observed=0)
                )
                matrices += 1
            else:
                scheduler.on_message(
                    SyncReply(instance=action[1] % k, epoch=action[2],
                              delta=action[3])
                )
        assert scheduler.tuples_scheduled == submits
        assert scheduler.matrices_received == matrices


@st.composite
def recovery_action_sequences(draw):
    """Like :func:`action_sequences` but with generation-tagged messages."""
    k = draw(st.integers(min_value=1, max_value=4))
    actions = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("submit"),
                          st.integers(min_value=0, max_value=50)),
                st.tuples(st.just("matrices"),
                          st.integers(min_value=0, max_value=3),
                          st.integers(min_value=0, max_value=2)),
                st.tuples(st.just("reply"),
                          st.integers(min_value=0, max_value=3),
                          st.integers(min_value=0, max_value=5),
                          st.floats(min_value=-100, max_value=100,
                                    allow_nan=False),
                          st.integers(min_value=0, max_value=2)),
            ),
            max_size=120,
        )
    )
    return k, actions


class TestRecoveryFuzz:
    @given(recovery_action_sequences())
    @settings(max_examples=80, deadline=None)
    def test_random_interleavings_hold_recovery_invariants(self, scenario):
        k, actions = scenario
        config = POSGConfig(rows=2, cols=8, window_size=16,
                            recovery=FUZZ_RECOVERY)
        hashes = make_shared_hashes(config, np.random.default_rng(0))
        scheduler = POSGScheduler(k, config)
        epoch_requests: dict[int, int] = {}
        request_bound = k * (1 + FUZZ_RECOVERY.sync_max_retries)

        for action in actions:
            if action[0] == "submit":
                decision = scheduler.submit(action[1])
                assert 0 <= decision.instance < k
                if decision.sync_request is not None:
                    assert decision.state is SchedulerState.SEND_ALL
                    epoch = decision.sync_request.epoch
                    epoch_requests[epoch] = epoch_requests.get(epoch, 0) + 1
                    assert epoch_requests[epoch] <= request_bound
            elif action[0] == "matrices":
                _, instance, generation = action
                pair = FWPair(hashes)
                pair.update(1, 2.0)
                scheduler.on_message(
                    MatricesMessage(instance=instance % k, matrices=pair,
                                    tuples_observed=1, generation=generation)
                )
            else:  # reply
                _, instance, epoch, delta, generation = action
                scheduler.on_message(
                    SyncReply(instance=instance % k, epoch=epoch, delta=delta,
                              generation=generation)
                )
            assert np.all(np.isfinite(scheduler.c_hat))

    @given(st.integers(min_value=1, max_value=4))
    @settings(max_examples=20, deadline=None)
    def test_wait_all_is_live_when_every_reply_is_dropped(self, k):
        """Satellite liveness property: total reply loss cannot deadlock.

        The timeout ladder is bounded (sync_timeout, backoff, max
        retries), so a fixed number of submits must carry the scheduler
        from WAIT_ALL to RUN through abandonment — with a retransmission
        count that exactly exhausts the retry budget.
        """
        config = POSGConfig(rows=2, cols=8, window_size=16,
                            recovery=FUZZ_RECOVERY)
        hashes = make_shared_hashes(config, np.random.default_rng(0))
        scheduler = POSGScheduler(k, config)
        for instance in range(k):
            pair = FWPair(hashes)
            scheduler.on_message(
                MatricesMessage(instance=instance, matrices=pair,
                                tuples_observed=0)
            )
        submits = 0
        while scheduler.state is not SchedulerState.RUN:
            scheduler.submit(0)
            submits += 1
            assert submits <= 200, "scheduler deadlocked in WAIT_ALL"
        assert scheduler.sync_retransmits == FUZZ_RECOVERY.sync_max_retries
        assert scheduler.sync_rounds_abandoned == 1

    @given(st.permutations([1, 2, 1, 2]))
    @settings(max_examples=24, deadline=None)
    def test_retransmission_duplicates_are_counted_stale_exactly_once(
        self, arrival_order
    ):
        """Stale-epoch accounting across retransmissions (same epoch).

        After a retransmission both the original and the re-requested
        reply may arrive; whatever the interleaving, each missing
        instance contributes exactly one accepted reply and one stale
        drop, and the round completes exactly once.
        """
        config = POSGConfig(rows=2, cols=8, window_size=16,
                            recovery=FUZZ_RECOVERY)
        hashes = make_shared_hashes(config, np.random.default_rng(0))
        scheduler = POSGScheduler(3, config)
        for instance in range(3):
            scheduler.on_message(
                MatricesMessage(instance=instance, matrices=FWPair(hashes),
                                tuples_observed=0)
            )
        while scheduler.state is SchedulerState.SEND_ALL:
            scheduler.submit(0)
        epoch = scheduler.epoch
        scheduler.on_message(SyncReply(instance=0, epoch=epoch, delta=1.0))
        while scheduler.sync_retransmits == 0:
            scheduler.submit(0)
        while scheduler.state is SchedulerState.SEND_ALL:
            scheduler.submit(0)
        before = scheduler.stale_replies_dropped
        for instance in arrival_order:
            scheduler.on_message(
                SyncReply(instance=instance, epoch=epoch, delta=1.0)
            )
        assert scheduler.state is SchedulerState.RUN
        assert scheduler.sync_rounds_completed == 1
        assert scheduler.stale_replies_dropped == before + 2
        np.testing.assert_allclose(scheduler.c_hat, [1.0, 1.0, 1.0])
