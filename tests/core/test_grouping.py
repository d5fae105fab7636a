"""Tests for the engine-facing grouping policies."""

import inspect

import numpy as np
import pytest

import repro.core
from repro.core.config import POSGConfig
from repro.core.grouping import (
    FullKnowledgeGrouping,
    GroupingPolicy,
    KeyGrouping,
    POSGGrouping,
    RandomGrouping,
    RoundRobinGrouping,
    TwoChoicesGrouping,
)
from repro.core.scheduler import SchedulerState


class TestRoundRobin:
    def test_cycles(self):
        policy = RoundRobinGrouping()
        policy.setup(3)
        assert [policy.route(i).instance for i in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_no_sync_requests(self):
        policy = RoundRobinGrouping()
        policy.setup(2)
        assert policy.route(1).sync_request is None

    def test_no_instance_agent(self):
        policy = RoundRobinGrouping()
        policy.setup(2)
        assert policy.create_instance_agent(0) is None

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            RoundRobinGrouping().setup(0)


class TestRandom:
    def test_range_and_determinism(self):
        a, b = RandomGrouping(), RandomGrouping()
        a.setup(4, np.random.default_rng(7))
        b.setup(4, np.random.default_rng(7))
        picks_a = [a.route(i).instance for i in range(50)]
        picks_b = [b.route(i).instance for i in range(50)]
        assert picks_a == picks_b
        assert all(0 <= p < 4 for p in picks_a)

    def test_covers_all_instances(self):
        policy = RandomGrouping()
        policy.setup(3, np.random.default_rng(1))
        picks = {policy.route(i).instance for i in range(100)}
        assert picks == {0, 1, 2}


class TestKeyGrouping:
    def test_same_item_same_instance(self):
        policy = KeyGrouping()
        policy.setup(4, np.random.default_rng(3))
        first = policy.route(42).instance
        assert all(policy.route(42).instance == first for _ in range(10))

    def test_different_items_spread(self):
        policy = KeyGrouping()
        policy.setup(4, np.random.default_rng(3))
        picks = {policy.route(item).instance for item in range(200)}
        assert len(picks) == 4


class TestFullKnowledge:
    def test_balances_exact_loads(self):
        times = {1: 10.0, 2: 1.0}
        policy = FullKnowledgeGrouping(lambda item, inst: times[item])
        policy.setup(2)
        assert policy.route(1).instance == 0  # load [10, 0]
        assert policy.route(2).instance == 1  # load [10, 1]
        assert policy.route(2).instance == 1  # load [10, 2]
        assert policy.route(1).instance == 1  # load [10, 12]
        np.testing.assert_allclose(policy.loads, [10.0, 12.0])

    def test_oracle_sees_instance_heterogeneity(self):
        # instance 1 runs twice as slow
        policy = FullKnowledgeGrouping(lambda item, inst: 1.0 * (inst + 1))
        policy.setup(2)
        picks = [policy.route(0).instance for _ in range(9)]
        # slow instance receives roughly half the tuples of the fast one
        assert picks.count(0) > picks.count(1)


class TestPOSGGrouping:
    def test_starts_in_round_robin(self):
        policy = POSGGrouping(POSGConfig(window_size=4, rows=2, cols=8))
        policy.setup(2, np.random.default_rng(0))
        assert policy.state is SchedulerState.ROUND_ROBIN
        assert [policy.route(1).instance for i in range(4)] == [0, 1, 0, 1]

    def test_full_loop_reaches_run(self):
        """Wire scheduler and agents directly (zero-latency engine)."""
        config = POSGConfig(window_size=4, mu=1.0, rows=2, cols=8)
        policy = POSGGrouping(config)
        policy.setup(2, np.random.default_rng(0))
        agents = {i: policy.create_instance_agent(i) for i in range(2)}
        for step in range(200):
            decision = policy.route(1)
            messages = agents[decision.instance].on_executed(
                1, 2.0, decision.sync_request
            )
            for message in messages:
                policy.on_control(message)
            if policy.state is SchedulerState.RUN:
                break
        assert policy.state is SchedulerState.RUN
        assert policy.scheduler.sync_rounds_completed >= 1

    def test_tracker_accessible(self):
        policy = POSGGrouping(POSGConfig(rows=2, cols=8))
        policy.setup(2, np.random.default_rng(0))
        policy.create_instance_agent(0)
        assert policy.tracker(0).instance_id == 0

    def test_duplicate_agent_rejected(self):
        policy = POSGGrouping(POSGConfig(rows=2, cols=8))
        policy.setup(2, np.random.default_rng(0))
        policy.create_instance_agent(0)
        with pytest.raises(ValueError):
            policy.create_instance_agent(0)

    def test_agent_before_setup_rejected(self):
        with pytest.raises(RuntimeError):
            POSGGrouping().create_instance_agent(0)

    def test_scheduler_before_setup_rejected(self):
        with pytest.raises(RuntimeError):
            POSGGrouping().scheduler


#: every concrete grouping policy the package exports
POLICIES = [
    item
    for item in (getattr(repro.core, name) for name in repro.core.__all__)
    if isinstance(item, type)
    and issubclass(item, GroupingPolicy)
    and not inspect.isabstract(item)
]


def _unit_oracle(item, instance):
    return 1.0


#: constructor arguments of the policies that need any
ARGUMENTS = {
    FullKnowledgeGrouping: (_unit_oracle,),
    TwoChoicesGrouping: (_unit_oracle,),
}

NOT_SET_UP = r"^policy not set up; call setup\(k\) first$"


class TestEveryPolicy:
    @pytest.mark.parametrize("cls", POLICIES, ids=lambda cls: cls.__name__)
    def test_requires_setup(self, cls):
        policy = cls(*ARGUMENTS.get(cls, ()))
        with pytest.raises(RuntimeError, match=NOT_SET_UP):
            policy.route(1)

    def test_full_knowledge_loads_require_setup(self):
        with pytest.raises(RuntimeError, match=NOT_SET_UP):
            FullKnowledgeGrouping(_unit_oracle).loads
