"""Unit tests for multi-source (sharded) POSG scheduling."""

import numpy as np
import pytest

from repro.core.config import POSGConfig
from repro.core.grouping import POSGGrouping
from repro.core.matrices import FWPair, make_shared_hashes
from repro.core.messages import MatricesMessage, SyncReply
from repro.core.multisource import MultiSourcePOSGGrouping
from repro.core.scheduler import POSGScheduler, SchedulerState
from repro.telemetry.recorder import TelemetryRecorder


def small_config(**overrides):
    defaults = dict(window_size=4, mu=1.0, rows=2, cols=8)
    defaults.update(overrides)
    return POSGConfig(**defaults)


def drive_to_run(policy, k=2, steps=400):
    """Zero-latency engine: execute each routed tuple immediately."""
    agents = {i: policy.create_instance_agent(i) for i in range(k)}
    for step in range(steps):
        decision = policy.route(1)
        messages = agents[decision.instance].on_executed(
            1, 2.0, decision.sync_request
        )
        for message in messages:
            policy.on_control(message)
    return agents


class TestConstruction:
    def test_rejects_bad_sources(self):
        with pytest.raises(ValueError, match="sources"):
            MultiSourcePOSGGrouping(0)

    def test_one_scheduler_per_source(self):
        policy = MultiSourcePOSGGrouping(3, small_config())
        policy.setup(2, np.random.default_rng(0))
        assert policy.sources == 3
        assert len(policy.schedulers) == 3
        assert [s.source for s in policy.schedulers] == [0, 1, 2]
        assert policy.scheduler is policy.schedulers[0]

    def test_single_source_is_unlabelled(self):
        # s=1 collapses to the paper deployment: source=None keeps the
        # scheduler's telemetry identical to POSGGrouping's.
        policy = MultiSourcePOSGGrouping(1, small_config())
        policy.setup(2, np.random.default_rng(0))
        assert policy.schedulers[0].source is None


class TestInterleave:
    def test_route_cycles_schedulers_by_arrival_index(self):
        policy = MultiSourcePOSGGrouping(3, small_config())
        policy.setup(2, np.random.default_rng(0))
        for _ in range(7):
            policy.route(1)
        assert [s.tuples_scheduled for s in policy.schedulers] == [3, 2, 2]

    def test_bootstrap_round_robin_is_per_shard(self):
        # each shard runs its own ROUND_ROBIN counter over the k instances
        policy = MultiSourcePOSGGrouping(2, small_config())
        policy.setup(3, np.random.default_rng(0))
        picks = [policy.route(1).instance for _ in range(6)]
        # shard 0 routes tuples 0,2,4 -> 0,1,2; shard 1 routes 1,3,5 -> 0,1,2
        assert picks == [0, 0, 1, 1, 2, 2]


class TestControlDispatch:
    def test_matrices_broadcast_to_every_shard(self):
        policy = MultiSourcePOSGGrouping(3, small_config())
        policy.setup(2, np.random.default_rng(0))
        drive_to_run(policy, k=2)
        received = [s.matrices_received for s in policy.schedulers]
        assert all(count == received[0] and count > 0 for count in received)

    def test_broadcast_copies_are_merge_isolated(self):
        """With merge_matrices each shard must merge into a private pair.

        A reference single scheduler receiving the same message sequence
        pins the expected estimate; if the shards shared one stored pair
        the second shard would fold the same counters twice.
        """
        config = small_config(merge_matrices=True)
        policy = MultiSourcePOSGGrouping(2, config)
        policy.setup(2, np.random.default_rng(0))
        reference = POSGScheduler(2, config)
        pair = FWPair(make_shared_hashes(config, rng=np.random.default_rng(5)))
        pair.update(7, 3.0)
        for _ in range(2):  # two deliveries -> one store + one merge
            policy.on_control(
                MatricesMessage(instance=0, matrices=pair.copy(), tuples_observed=1)
            )
            reference.on_message(
                MatricesMessage(instance=0, matrices=pair.copy(), tuples_observed=1)
            )
        expected = reference.estimate(7, 0)
        for scheduler in policy.schedulers:
            assert scheduler.estimate(7, 0) == expected

    def test_reply_routes_to_its_source_shard(self):
        policy = MultiSourcePOSGGrouping(3, small_config())
        policy.setup(2, np.random.default_rng(0))
        # epoch 99 does not match any shard's epoch -> the targeted shard
        # (and only it) books a stale reply
        policy.on_control(SyncReply(instance=0, epoch=99, delta=1.0, source=2))
        assert [s.stale_replies_dropped for s in policy.schedulers] == [0, 0, 1]

    def test_reply_with_unknown_source_rejected(self):
        policy = MultiSourcePOSGGrouping(2, small_config())
        policy.setup(2, np.random.default_rng(0))
        with pytest.raises(ValueError, match="shard"):
            policy.on_control(SyncReply(instance=0, epoch=0, delta=1.0, source=5))

    def test_rejects_unknown_message_type(self):
        policy = MultiSourcePOSGGrouping(2, small_config())
        policy.setup(2, np.random.default_rng(0))
        with pytest.raises(TypeError):
            policy.on_control("not a message")


class TestSyncCursor:
    def test_restores_interleave_modulo_sources(self):
        policy = MultiSourcePOSGGrouping(3, small_config())
        policy.setup(2, np.random.default_rng(0))
        for _ in range(7):
            policy.route(1)
        policy.sync_cursor(7)
        assert policy._cursor == 1

    def test_rejects_negative_position(self):
        # Regression: a negative position used to alias silently onto
        # some shard via the modulo and desynchronize the interleave.
        policy = MultiSourcePOSGGrouping(3, small_config())
        policy.setup(2, np.random.default_rng(0))
        with pytest.raises(ValueError, match=">= 0"):
            policy.sync_cursor(-1)

    def test_rejects_position_beyond_routed_tuples(self):
        policy = MultiSourcePOSGGrouping(3, small_config())
        policy.setup(2, np.random.default_rng(0))
        for _ in range(5):
            policy.route(1)
        with pytest.raises(ValueError, match="beyond"):
            policy.sync_cursor(6)

    def test_accepts_exact_routed_count(self):
        # The segment engines call sync_cursor(end) right after the
        # commit step books exactly `end` tuples — equality must pass.
        policy = MultiSourcePOSGGrouping(2, small_config())
        policy.setup(2, np.random.default_rng(0))
        for _ in range(4):
            policy.route(1)
        policy.sync_cursor(4)
        assert policy._cursor == 0


class TestControlBatch:
    def test_invalid_batch_applies_nothing(self):
        """A bad reply anywhere in the batch must not fold earlier ones.

        Per-message delivery used to apply the valid head of the batch
        before raising on the bad tail; the whole batch is validated
        first now, so the stale counter stays untouched.
        """
        policy = MultiSourcePOSGGrouping(2, small_config())
        policy.setup(2, np.random.default_rng(0))
        batch = [
            SyncReply(instance=0, epoch=99, delta=1.0, source=0),  # valid
            SyncReply(instance=0, epoch=99, delta=1.0, source=5),  # bad shard
        ]
        with pytest.raises(ValueError, match="shard"):
            policy.on_control_batch(batch)
        # the valid reply was NOT applied: no stale reply booked anywhere
        assert [s.stale_replies_dropped for s in policy.schedulers] == [0, 0]

    def test_foreign_type_rejected_before_any_apply(self):
        policy = MultiSourcePOSGGrouping(2, small_config())
        policy.setup(2, np.random.default_rng(0))
        batch = [
            SyncReply(instance=0, epoch=99, delta=1.0, source=1),
            "not a message",
        ]
        with pytest.raises(TypeError):
            policy.on_control_batch(batch)
        assert [s.stale_replies_dropped for s in policy.schedulers] == [0, 0]

    def test_valid_batch_applies_in_order(self):
        policy = MultiSourcePOSGGrouping(2, small_config())
        policy.setup(2, np.random.default_rng(0))
        policy.on_control_batch(
            [
                SyncReply(instance=0, epoch=99, delta=1.0, source=0),
                SyncReply(instance=1, epoch=99, delta=1.0, source=1),
            ]
        )
        assert [s.stale_replies_dropped for s in policy.schedulers] == [1, 1]

    def test_empty_batch_is_noop(self):
        policy = MultiSourcePOSGGrouping(2, small_config())
        policy.setup(2, np.random.default_rng(0))
        policy.on_control_batch([])

    def test_base_policy_default_delegates_per_message(self):
        policy = POSGGrouping(small_config())
        policy.setup(2, np.random.default_rng(0))
        pair = FWPair(make_shared_hashes(small_config(), rng=np.random.default_rng(5)))
        pair.update(7, 3.0)
        policy.on_control_batch(
            [MatricesMessage(instance=0, matrices=pair, tuples_observed=1)]
        )
        assert policy.scheduler.matrices_received == 1


class TestProtocol:
    def test_all_shards_reach_run(self):
        # window_size must give each shard (which only sees 1/s of the
        # tuples) room to finish a sync round before the next matrices
        # message preempts it (Figure 3.F)
        policy = MultiSourcePOSGGrouping(3, small_config(window_size=64))
        policy.setup(2, np.random.default_rng(0))
        drive_to_run(policy, k=2, steps=600)
        for scheduler in policy.schedulers:
            assert scheduler.sync_rounds_completed >= 1
            assert scheduler.state in (SchedulerState.RUN, SchedulerState.SEND_ALL,
                                       SchedulerState.WAIT_ALL)

    def test_requests_stamped_with_shard_and_replies_echo_it(self):
        policy = MultiSourcePOSGGrouping(2, small_config())
        policy.setup(2, np.random.default_rng(0))
        agents = {i: policy.create_instance_agent(i) for i in range(2)}
        seen_request_sources = set()
        seen_reply_sources = set()
        for _ in range(400):
            decision = policy.route(1)
            if decision.sync_request is not None:
                seen_request_sources.add(decision.sync_request.source)
            messages = agents[decision.instance].on_executed(
                1, 2.0, decision.sync_request
            )
            for message in messages:
                if isinstance(message, SyncReply):
                    seen_reply_sources.add(message.source)
                policy.on_control(message)
        assert seen_request_sources == {0, 1}
        assert seen_reply_sources == {0, 1}

    def test_delta_rebaselines_against_total_instance_time(self):
        """The instance answers with its TOTAL cumulated time, so a
        shard that only routed part of the load re-baselines to the
        global figure after its sync round."""
        policy = MultiSourcePOSGGrouping(2, small_config())
        policy.setup(2, np.random.default_rng(0))
        agents = drive_to_run(policy, k=2, steps=600)
        totals = np.zeros(2)
        for instance, agent in agents.items():
            totals[instance] = agent.tracker.cumulated_time
        for scheduler in policy.schedulers:
            assert scheduler.sync_rounds_completed >= 1
            # each shard's C_hat tracks the instance totals (what every
            # source together put there), not its ~1/2 local share:
            # folding Delta = C_op - c_hat_at_send re-anchors to C_op.
            assert float(scheduler.c_hat.sum()) > 0.6 * float(totals.sum())


class TestStats:
    def test_merged_stats_sum_over_shards(self):
        policy = MultiSourcePOSGGrouping(2, small_config())
        policy.setup(2, np.random.default_rng(0))
        drive_to_run(policy, k=2)
        merged = policy.stats()
        assert merged["sources"] == 2
        assert len(merged["per_source"]) == 2
        for key in ("tuples_scheduled", "matrices_received", "control_bits"):
            assert merged[key] == sum(s[key] for s in merged["per_source"])
        assert merged["tuples_scheduled"] == 400


class TestTelemetryLabels:
    def test_shard_label_present_for_multi_source(self):
        recorder = TelemetryRecorder()
        policy = MultiSourcePOSGGrouping(
            2, small_config(), telemetry=recorder
        )
        policy.setup(2, np.random.default_rng(0))
        drive_to_run(policy, k=2)
        text = recorder.registry.to_prometheus()
        assert 'scheduler="0"' in text
        assert 'scheduler="1"' in text

    def test_no_shard_label_for_single_source(self):
        recorder = TelemetryRecorder()
        policy = MultiSourcePOSGGrouping(
            1, small_config(), telemetry=recorder
        )
        policy.setup(2, np.random.default_rng(0))
        drive_to_run(policy, k=2)
        assert "scheduler=" not in recorder.registry.to_prometheus()


class TestSingleSourceEquivalence:
    def test_s1_matches_posg_grouping_exactly(self):
        config = small_config()
        single = POSGGrouping(config)
        sharded = MultiSourcePOSGGrouping(1, config)
        single.setup(2, np.random.default_rng(0))
        sharded.setup(2, np.random.default_rng(0))
        agents_a = {i: single.create_instance_agent(i) for i in range(2)}
        agents_b = {i: sharded.create_instance_agent(i) for i in range(2)}
        for step in range(400):
            da = single.route(step % 7)
            db = sharded.route(step % 7)
            assert (da.instance, da.sync_request) == (db.instance, db.sync_request)
            for agents, decision, policy in (
                (agents_a, da, single),
                (agents_b, db, sharded),
            ):
                for message in agents[decision.instance].on_executed(
                    step % 7, 2.0, decision.sync_request
                ):
                    policy.on_control(message)
        assert single.scheduler.stats() == sharded.scheduler.stats()
        np.testing.assert_array_equal(
            single.scheduler.c_hat, sharded.scheduler.c_hat
        )
