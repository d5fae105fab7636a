"""Unit tests for cross-shard coordination (CoordinationConfig).

Covers the two composable mechanisms — local delta gossip and sync-reply
snooping — at the policy/scheduler level; the
engine-level bit-identity sweeps live in
``tests/simulator/test_coordination_equivalence.py``.
"""

import numpy as np
import pytest

from repro.core.config import CoordinationConfig, POSGConfig
from repro.core.multisource import (
    GOSSIP_BITS,
    SNOOP_BITS,
    MultiSourcePOSGGrouping,
)
from repro.core.scheduler import POSGScheduler, SchedulerState


def coord_config(**overrides):
    coordination = CoordinationConfig(
        **{
            key: overrides.pop(key)
            for key in ("gossip", "gossip_stride", "snoop")
            if key in overrides
        }
    )
    defaults = dict(window_size=8, mu=1.0, rows=2, cols=8)
    defaults.update(overrides)
    return POSGConfig(coordination=coordination, **defaults)


def drive(policy, k=2, steps=400, item=1):
    """Zero-latency engine: execute each routed tuple immediately."""
    agents = {i: policy.create_instance_agent(i) for i in range(k)}
    for _ in range(steps):
        decision = policy.route(item)
        messages = agents[decision.instance].on_executed(
            item, 2.0, decision.sync_request
        )
        for message in messages:
            policy.on_control(message)
    return agents


class TestCoordinationConfig:
    def test_rejects_negative_stride(self):
        with pytest.raises(ValueError, match="gossip_stride"):
            CoordinationConfig(gossip_stride=-1)

    def test_defaults(self):
        coordination = CoordinationConfig()
        assert coordination.gossip
        assert coordination.snoop
        assert coordination.gossip_stride == 16

    def test_no_coordination_arms_nothing(self):
        policy = MultiSourcePOSGGrouping(
            2, POSGConfig(window_size=8, mu=1.0, rows=2, cols=8)
        )
        policy.setup(2, np.random.default_rng(0))
        assert not policy._gossip_on
        for scheduler in policy.schedulers:
            assert scheduler._fold_hook is None


class TestGossip:
    def test_single_source_never_gossips(self):
        policy = MultiSourcePOSGGrouping(1, coord_config())
        policy.setup(2, np.random.default_rng(0))
        drive(policy, k=2)
        assert not policy._gossip_on
        assert policy.stats()["gossip_updates"] == 0

    def test_sibling_belief_tracks_owner_adds(self):
        # After the shards reach greedy routing, every nonzero estimate
        # a shard adds to its own C_hat must land on the sibling too.
        policy = MultiSourcePOSGGrouping(2, coord_config(snoop=False))
        policy.setup(2, np.random.default_rng(0))
        drive(policy, k=2, steps=300)
        if policy.stats()["gossip_updates"] == 0:
            pytest.skip("drive loop never produced a nonzero estimate")
        owner, sibling = policy.schedulers
        before_owner = owner.c_hat.copy()
        before_sibling = sibling.c_hat.copy()
        assert policy._cursor == 0
        decision = policy.route(1)
        if owner.c_hat[decision.instance] == before_owner[decision.instance]:
            pytest.skip("routed through a zero estimate")
        delta_owner = owner.c_hat - before_owner
        delta_sibling = sibling.c_hat - before_sibling
        np.testing.assert_array_equal(delta_owner, delta_sibling)

    def test_round_robin_decisions_do_not_gossip(self):
        policy = MultiSourcePOSGGrouping(2, coord_config())
        policy.setup(2, np.random.default_rng(0))
        for _ in range(6):  # both shards still bootstrapping ROUND_ROBIN
            policy.route(1)
        assert policy.stats()["gossip_updates"] == 0
        for scheduler in policy.schedulers:
            np.testing.assert_array_equal(scheduler.c_hat, 0.0)

    def test_stride_bills_digest_bits(self):
        policy = MultiSourcePOSGGrouping(3, coord_config(gossip_stride=4))
        policy.setup(2, np.random.default_rng(0))
        drive(policy, k=2, steps=600)
        stats = policy.stats()
        if stats["gossip_updates"] < 4:
            pytest.skip("drive loop produced too few gossip events")
        assert stats["gossip_billed"] >= 1
        # each digest: owner sends (s-1) * GOSSIP_BITS, every sibling
        # receives GOSSIP_BITS -> sent == received per digest
        billed_bits = stats["gossip_billed"] * 2 * GOSSIP_BITS
        assert billed_bits > 0

    def test_stride_zero_disables_billing_only(self):
        results = {}
        for stride in (0, 2):
            policy = MultiSourcePOSGGrouping(
                2, coord_config(gossip_stride=stride, snoop=False)
            )
            policy.setup(2, np.random.default_rng(0))
            drive(policy, k=2, steps=400)
            stats = policy.stats()
            results[stride] = (
                stats["gossip_updates"],
                stats["gossip_billed"],
                tuple(
                    tuple(scheduler.c_hat) for scheduler in policy.schedulers
                ),
            )
        updates0, billed0, beliefs0 = results[0]
        updates2, billed2, beliefs2 = results[2]
        assert updates0 == updates2  # same routing, same gossip traffic
        assert beliefs0 == beliefs2  # billing never feeds back
        assert billed0 == 0
        if updates2 >= 2:
            assert billed2 >= 1

    def test_commit_gossip_matches_per_tuple_billing(self):
        # The parallel engine replays billing at commit; the digest
        # count over an event interval is a floor-difference, so split
        # deliveries must bill exactly like one per-tuple sequence.
        policy = MultiSourcePOSGGrouping(2, coord_config(gossip_stride=3))
        policy.setup(2, np.random.default_rng(0))
        policy.commit_gossip(0, 7)  # events 0 -> 7: digests at 3, 6
        assert policy._gossip_billed == 2
        assert policy.stats()["gossip_updates"] == 7
        policy.commit_gossip(0, 2)  # events 7 -> 9: digest at 9
        assert policy._gossip_billed == 3
        policy.commit_gossip(1, 2)  # independent per-source counter
        assert policy._gossip_billed == 3

    @pytest.mark.parametrize("stride", [0, 1, 16, 17])
    def test_commit_gossip_bills_like_one_digest_at_a_time(self, stride):
        """``commit_gossip`` bills a whole interval's digests with one
        multiply per counter; the counters must equal billing each
        digest on its own, as the per-tuple route does."""
        rng = np.random.default_rng(stride)
        batched, looped = (
            MultiSourcePOSGGrouping(3, coord_config(gossip_stride=stride))
            for _ in range(2)
        )
        for policy in (batched, looped):
            policy.setup(2, np.random.default_rng(0))
        for _ in range(50):
            source = int(rng.integers(3))
            gossiped = int(rng.integers(0, 60))
            batched.commit_gossip(source, gossiped)
            for _ in range(gossiped):
                looped._gossip_updates += 1
                looped._gossip_events[source] += 1
                if stride and looped._gossip_events[source] % stride == 0:
                    looped._bill_gossip_digest(source)
        assert batched.stats() == looped.stats()
        assert batched._gossip_events == looped._gossip_events
        if stride:
            assert batched.stats()["gossip_billed"] > 0

    def test_commit_gossip_noop_when_gossip_off(self):
        policy = MultiSourcePOSGGrouping(2, coord_config(gossip=False))
        policy.setup(2, np.random.default_rng(0))
        policy.commit_gossip(0, 10)
        assert policy.stats()["gossip_updates"] == 0
        assert policy._gossip_billed == 0


class TestSnoop:
    def test_fold_publishes_fresh_global_to_siblings(self):
        policy = MultiSourcePOSGGrouping(
            2, coord_config(gossip=False, window_size=16)
        )
        policy.setup(2, np.random.default_rng(0))
        drive(policy, k=2, steps=800)
        stats = policy.stats()
        if stats["sync_rounds_completed"] == 0:
            pytest.skip("drive loop never completed a sync round")
        assert stats["snoop_published"] > 0
        # snoop bits are billed symmetrically per published value
        assert stats["control_bits_sent"] >= stats["snoop_published"] * SNOOP_BITS

    def test_generation_mismatch_blocks_publish(self):
        policy = MultiSourcePOSGGrouping(2, coord_config())
        policy.setup(2, np.random.default_rng(0))
        owner, sibling = policy.schedulers
        owner._c_hat[:] = [5.0, 7.0]
        sibling._c_hat[:] = [1.0, 1.0]
        sibling._generations[0] = 3  # sibling already saw a restart
        policy._publish_fold(owner, [0, 1])
        assert sibling.c_hat[0] == 1.0  # blocked: generation mismatch
        assert sibling.c_hat[1] == 7.0  # published
        assert policy._snoop_published == 1

    def test_inflight_measurement_blocks_publish(self):
        # A sibling whose own fold for the instance is imminent must not
        # be overwritten: its pending delta re-baselines anyway, and
        # snooping first would double-apply the re-baseline.
        policy = MultiSourcePOSGGrouping(2, coord_config())
        policy.setup(2, np.random.default_rng(0))
        owner, sibling = policy.schedulers
        owner._c_hat[:] = [5.0, 7.0]
        sibling._c_hat[:] = [1.0, 1.0]
        sibling._pending_replies.add(0)
        sibling._pending_deltas[1] = 2.0
        policy._publish_fold(owner, [0, 1])
        assert sibling.c_hat[0] == 1.0
        assert sibling.c_hat[1] == 1.0
        assert policy._snoop_published == 0


class TestDecisionEstimate:
    def test_round_robin_decision_carries_zero_estimate(self):
        scheduler = POSGScheduler(
            2, POSGConfig(window_size=8, mu=1.0, rows=2, cols=8)
        )
        decision = scheduler.submit(1)
        assert decision.estimate == 0.0

    def test_greedy_decision_estimate_equals_c_hat_add(self):
        scheduler = POSGScheduler(
            2, POSGConfig(window_size=8, mu=1.0, rows=2, cols=8)
        )
        scheduler._state = SchedulerState.RUN
        before = scheduler._c_hat.copy()
        decision = scheduler.submit(1)
        added = scheduler._c_hat[decision.instance] - before[decision.instance]
        assert decision.estimate == added
