"""Tests for the reactive-scheduling and key-grouping baselines."""

import numpy as np
import pytest

from repro.core.config import POSGConfig
from repro.core.grouping import KeyGrouping, POSGGrouping, RoundRobinGrouping
from repro.core.messages import LoadReport
from repro.core.reactive import ReactiveGrouping
from repro.simulator.run import simulate_stream
from repro.workloads.distributions import ZipfItems
from repro.workloads.synthetic import StreamSpec, generate_stream


def skewed_stream(m=16_384, n=512, k=4, seed=0):
    spec = StreamSpec(m=m, n=n, k=k)
    return generate_stream(ZipfItems(n, 1.2), spec, np.random.default_rng(seed))


class TestReactiveGrouping:
    def test_validation(self):
        with pytest.raises(ValueError):
            ReactiveGrouping(report_interval=0)

    def test_round_robin_until_first_report(self):
        policy = ReactiveGrouping(report_interval=4)
        policy.setup(3)
        picks = [policy.route(0).instance for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_agent_reports_every_interval(self):
        policy = ReactiveGrouping(report_interval=3)
        policy.setup(2)
        agent = policy.create_instance_agent(0)
        messages = []
        for _ in range(7):
            messages.extend(agent.on_executed(1, 2.0))
        reports = [msg for msg in messages if isinstance(msg, LoadReport)]
        assert len(reports) == 2
        assert reports[-1].cumulated_time == pytest.approx(12.0)
        assert reports[-1].tuples_executed == 6

    def test_routes_to_least_reported_load(self):
        policy = ReactiveGrouping(report_interval=4)
        policy.setup(2)
        policy.on_control(LoadReport(instance=0, cumulated_time=100.0,
                                     tuples_executed=10))
        policy.on_control(LoadReport(instance=1, cumulated_time=10.0,
                                     tuples_executed=10))
        assert policy.route(5).instance == 1
        assert policy.reports_received == 2

    def test_extrapolates_with_mean_cost(self):
        policy = ReactiveGrouping(report_interval=4)
        policy.setup(2)
        policy.on_control(LoadReport(0, 100.0, 10))  # mean cost 10
        policy.on_control(LoadReport(1, 95.0, 10))
        # instance 1 lighter; after one assignment its projection is
        # 95 + 10 = 105 > 100, so the next goes to instance 0
        assert policy.route(5).instance == 1
        assert policy.route(5).instance == 0

    def test_bootstrap_does_not_herd_after_first_report(self):
        """Regression: one early report must not end the bootstrap.

        The first report used to flip the scheduler to argmin over
        *all* instances, where the unreported ones projected as
        ``0 + in_flight * mean_cost``; with a zero measured mean every
        projection froze at zero and argmin pinned the whole stream to
        one instance.  Instances that have not reported yet must keep
        receiving round-robin shares until they produce a report."""
        policy = ReactiveGrouping(report_interval=8)
        policy.setup(3)
        policy.on_control(
            LoadReport(instance=0, cumulated_time=0.0, tuples_executed=8)
        )
        picks = [policy.route(0).instance for _ in range(8)]
        assert picks == [1, 2, 1, 2, 1, 2, 1, 2]

    def test_mean_cost_is_per_instance_not_last_writer_wins(self):
        """Regression: a 4x-slower instance's report used to overwrite
        the single global mean cost, so every other instance's in-flight
        tuples projected 4x too expensive (and report *order* changed
        routing).  Each instance extrapolates with its own mean: here
        instance 0 (mean 1 ms, load 4) absorbs twelve tuples before its
        projection reaches instance 1's load (mean 4 ms, load 16),
        whichever report arrived last."""
        def drive(reports):
            policy = ReactiveGrouping(report_interval=4)
            policy.setup(2)
            for report in reports:
                policy.on_control(report)
            return [policy.route(0).instance for _ in range(12)]

        fast = LoadReport(instance=0, cumulated_time=4.0, tuples_executed=4)
        slow = LoadReport(instance=1, cumulated_time=16.0, tuples_executed=4)
        assert drive([fast, slow]) == [0] * 12
        assert drive([slow, fast]) == [0] * 12

    def test_rejects_foreign_messages(self):
        policy = ReactiveGrouping()
        policy.setup(2)
        with pytest.raises(TypeError):
            policy.on_control("junk")

    @staticmethod
    def assert_untouched(policy):
        assert policy.reports_received == 0
        # no instance has reported, so the rotation still covers all four
        assert [policy.route(0).instance for _ in range(8)] == [0, 1, 2, 3] * 2

    @pytest.mark.parametrize("instance", [-1, 4, 7])
    def test_refuses_report_from_unknown_instance(self, instance):
        policy = ReactiveGrouping(report_interval=4)
        policy.setup(4)
        with pytest.raises(ValueError,
                           match=f"^load report from unknown instance {instance}$"):
            policy.on_control(LoadReport(instance, 5.0, 1))
        self.assert_untouched(policy)

    def test_refused_batch_applies_nothing(self):
        """Atomic delivery: the valid head of a batch is not applied
        when a later report names an unknown instance."""
        policy = ReactiveGrouping(report_interval=4)
        policy.setup(4)
        batch = [LoadReport(0, 5.0, 1), LoadReport(9, 1.0, 1)]
        with pytest.raises(ValueError, match="unknown instance 9$"):
            policy.on_control_batch(batch)
        self.assert_untouched(policy)

    def test_reactive_beats_round_robin(self):
        """Load feedback, even stale, helps over blind rotation."""
        stream = skewed_stream()
        rr = simulate_stream(stream, RoundRobinGrouping(), k=4)
        reactive = simulate_stream(
            stream, ReactiveGrouping(report_interval=64), k=4,
            rng=np.random.default_rng(1),
        )
        assert (reactive.stats.average_completion_time
                < rr.stats.average_completion_time)

    def test_posg_beats_reactive_under_control_plane_latency(self):
        """The paper's Section III argument, measured end to end: reactive
        scheduling acts on a "previous, possibly stale, load state", so a
        slow control plane hurts it; POSG's proactive estimates do not
        need fresh state, only (rare) sketch deliveries."""
        from repro.core.config import POSGConfig
        from repro.core.grouping import POSGGrouping

        config = POSGConfig(window_size=64, rows=4, cols=54,
                            merge_matrices=True, pooled_estimates=True)
        control_latency = 200.0
        reactive_L, posg_L, fresh_reactive_L = [], [], []
        for seed in range(3):
            stream = skewed_stream(seed=seed)
            reactive = simulate_stream(
                stream, ReactiveGrouping(report_interval=256), k=4,
                control_latency=control_latency,
                rng=np.random.default_rng(1),
            )
            posg = simulate_stream(
                stream, POSGGrouping(config), k=4,
                control_latency=control_latency,
                rng=np.random.default_rng(1),
            )
            fresh_reactive = simulate_stream(
                stream, ReactiveGrouping(report_interval=64), k=4,
                control_latency=1.0, rng=np.random.default_rng(1),
            )
            reactive_L.append(reactive.stats.average_completion_time)
            posg_L.append(posg.stats.average_completion_time)
            fresh_reactive_L.append(fresh_reactive.stats.average_completion_time)
        assert np.mean(posg_L) < np.mean(reactive_L)
        # staleness is what hurts reactive: it degrades against its own
        # fresh self (1 ms control plane, a report every 64 tuples)
        assert np.mean(reactive_L) > np.mean(fresh_reactive_L)


class TestKeyGrouping:
    def test_loses_to_shuffle_grouping_on_content_skew(self):
        """Section VI: key-grouping balancers underperform under shuffle
        grouping when execution time depends on the tuple.  Key affinity
        sends every occurrence of a heavy key to one instance, so even
        blind Round-Robin beats it, and POSG beats Round-Robin."""
        config = POSGConfig(window_size=64, rows=4, cols=54,
                            merge_matrices=True, pooled_estimates=True)
        for seed in range(3):
            stream = skewed_stream(m=20_000, n=256, seed=seed)
            posg, rr, key = (
                simulate_stream(
                    stream, policy, k=4, rng=np.random.default_rng(1)
                ).stats.average_completion_time
                for policy in (POSGGrouping(config), RoundRobinGrouping(),
                               KeyGrouping())
            )
            assert posg < rr < key, (seed, posg, rr, key)
