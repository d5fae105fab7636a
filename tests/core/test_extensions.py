"""Tests for the beyond-paper extensions: merge decay, two-choices
grouping, latency-aware scheduling."""

import numpy as np
import pytest

from repro.core.config import POSGConfig
from repro.core.grouping import POSGGrouping, TwoChoicesGrouping
from repro.core.matrices import FWPair, make_shared_hashes
from repro.core.messages import MatricesMessage
from repro.core.scheduler import POSGScheduler


def matrices_from(hashes, instance, samples):
    pair = FWPair(hashes)
    for item, time in samples:
        pair.update(item, time)
    return MatricesMessage(instance=instance, matrices=pair,
                           tuples_observed=len(samples))


class TestMergeDecay:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            POSGConfig(merge_decay=1.5)
        with pytest.raises(ValueError):
            POSGConfig(merge_decay=-0.1)

    def test_decay_weights_recent_batches_more(self):
        config = POSGConfig(rows=2, cols=8, merge_matrices=True, merge_decay=0.5)
        hashes = make_shared_hashes(config, np.random.default_rng(0))
        scheduler = POSGScheduler(1, config)
        scheduler.on_message(matrices_from(hashes, 0, [(1, 10.0)] * 4))
        scheduler.on_message(matrices_from(hashes, 0, [(1, 20.0)] * 4))
        # weights: old 0.5*4=2 samples at 10ms, new 4 samples at 20ms
        expected = (2 * 10.0 + 4 * 20.0) / 6
        assert scheduler.estimate(1, 0) == pytest.approx(expected)

    def test_decay_one_is_plain_merge(self):
        config = POSGConfig(rows=2, cols=8, merge_matrices=True, merge_decay=1.0)
        hashes = make_shared_hashes(config, np.random.default_rng(0))
        scheduler = POSGScheduler(1, config)
        scheduler.on_message(matrices_from(hashes, 0, [(1, 10.0)] * 4))
        scheduler.on_message(matrices_from(hashes, 0, [(1, 20.0)] * 4))
        assert scheduler.estimate(1, 0) == pytest.approx(15.0)

    def test_zero_decay_equals_replace(self):
        config = POSGConfig(rows=2, cols=8, merge_matrices=True, merge_decay=0.0)
        hashes = make_shared_hashes(config, np.random.default_rng(0))
        scheduler = POSGScheduler(1, config)
        scheduler.on_message(matrices_from(hashes, 0, [(1, 10.0)] * 4))
        scheduler.on_message(matrices_from(hashes, 0, [(1, 20.0)] * 4))
        assert scheduler.estimate(1, 0) == pytest.approx(20.0)

    def test_scale_preserves_ratios(self):
        hashes = make_shared_hashes(POSGConfig(rows=2, cols=8),
                                    np.random.default_rng(1))
        pair = FWPair(hashes)
        pair.update(3, 7.0)
        pair.update(3, 9.0)
        before = pair.estimate(3)
        pair.scale(0.25)
        assert pair.estimate(3) == pytest.approx(before)

    def test_scale_rejects_negative(self):
        hashes = make_shared_hashes(POSGConfig(rows=2, cols=8),
                                    np.random.default_rng(1))
        pair = FWPair(hashes)
        with pytest.raises(ValueError):
            pair.scale(-1.0)


class TestTwoChoices:
    def test_picks_lighter_of_two(self):
        policy = TwoChoicesGrouping(lambda item, inst: 1.0)
        policy.setup(2, np.random.default_rng(0))
        picks = [policy.route(0).instance for _ in range(100)]
        counts = np.bincount(picks, minlength=2)
        # with d=2 over k=2, it is exact least-loaded: perfectly balanced
        assert abs(counts[0] - counts[1]) <= 1

    def test_k_one(self):
        policy = TwoChoicesGrouping(lambda item, inst: 1.0)
        policy.setup(1, np.random.default_rng(0))
        assert policy.route(0).instance == 0

    def test_better_than_random_on_skewed_work(self):
        from repro.core.grouping import RandomGrouping
        from repro.simulator.run import simulate_stream
        from repro.workloads.distributions import ZipfItems
        from repro.workloads.synthetic import StreamSpec, generate_stream

        stream = generate_stream(
            ZipfItems(128, 1.0), StreamSpec(m=4096, n=128, k=4),
            np.random.default_rng(2),
        )
        random_result = simulate_stream(
            stream, RandomGrouping(), k=4, rng=np.random.default_rng(3)
        )
        two_result = simulate_stream(
            stream, lambda oracle: TwoChoicesGrouping(oracle), k=4,
            rng=np.random.default_rng(3),
        )
        assert (
            two_result.stats.average_completion_time
            < random_result.stats.average_completion_time
        )


class TestLatencyAware:
    def test_hints_validation(self):
        with pytest.raises(ValueError):
            POSGScheduler(2, POSGConfig(rows=2, cols=8), latency_hints=[1.0])
        with pytest.raises(ValueError):
            POSGScheduler(2, POSGConfig(rows=2, cols=8), latency_hints=[-1.0, 0.0])

    def test_high_latency_instance_down_weighted(self):
        config = POSGConfig(rows=2, cols=8)
        hashes = make_shared_hashes(config, np.random.default_rng(0))
        scheduler = POSGScheduler(2, config, latency_hints=[0.0, 100.0])
        for instance in range(2):
            scheduler.on_message(matrices_from(hashes, instance, [(1, 5.0)] * 4))
        # drive through SEND_ALL/WAIT_ALL
        from repro.core.messages import SyncReply
        decisions = [scheduler.submit(1) for _ in range(2)]
        for decision in decisions:
            scheduler.on_message(SyncReply(
                instance=decision.instance,
                epoch=decision.sync_request.epoch, delta=0.0,
            ))
        # in RUN: with hint 100 on instance 1, the first ~20 estimated-5ms
        # tuples all go to instance 0
        picks = [scheduler.submit(1).instance for _ in range(19)]
        assert all(pick == 0 for pick in picks[:18])

    def test_grouping_passes_hints_through(self):
        policy = POSGGrouping(POSGConfig(rows=2, cols=8),
                              latency_hints=[0.0, 2.0])
        policy.setup(2, np.random.default_rng(1))
        assert policy.scheduler._latency_hints is not None


class TestPerInstanceDataLatency:
    def test_simulator_accepts_latency_list(self):
        from repro.core.grouping import RoundRobinGrouping
        from repro.simulator.run import simulate_stream
        from repro.workloads.distributions import UniformItems
        from repro.workloads.synthetic import StreamSpec, generate_stream

        stream = generate_stream(
            UniformItems(32), StreamSpec(m=64, n=32, w_n=4, k=2,
                                         over_provisioning=10.0),
            np.random.default_rng(4),
        )
        result = simulate_stream(
            stream, RoundRobinGrouping(), k=2, data_latency=[0.0, 50.0]
        )
        # over-provisioned: completion = work (+latency on instance 1)
        completions = result.stats.completions
        assignments = result.stats.assignments
        slow = completions[assignments == 1] - stream.base_times[assignments == 1]
        fast = completions[assignments == 0] - stream.base_times[assignments == 0]
        assert np.all(slow >= 50.0 - 1e-9)
        assert np.all(fast < 50.0)

    def test_rejects_wrong_length(self):
        from repro.core.grouping import RoundRobinGrouping
        from repro.simulator.run import simulate_stream
        from repro.workloads.distributions import UniformItems
        from repro.workloads.synthetic import StreamSpec, generate_stream

        stream = generate_stream(
            UniformItems(16), StreamSpec(m=16, n=16, w_n=4, k=2),
            np.random.default_rng(5),
        )
        with pytest.raises(ValueError):
            simulate_stream(stream, RoundRobinGrouping(), k=2,
                            data_latency=[1.0])

    def test_latency_aware_beats_vanilla_under_heterogeneous_network(self):
        """The paper's future-work claim, demonstrated.

        The regime matters: avoiding a distant instance pays off when the
        cluster has spare capacity (here 2x over-provisioned, one
        instance 300 ms away); under tight provisioning the shifted load
        costs more in queueing than the latency it saves — which is why
        the hints are opt-in rather than automatic.
        """
        from repro.simulator.run import simulate_stream
        from repro.workloads.distributions import ZipfItems
        from repro.workloads.synthetic import StreamSpec, generate_stream

        latencies = [0.0, 0.0, 0.0, 300.0]
        stream = generate_stream(
            ZipfItems(256, 1.0),
            StreamSpec(m=8192, n=256, k=4, over_provisioning=2.0),
            np.random.default_rng(6),
        )
        config = POSGConfig(window_size=64, rows=4, cols=54,
                            merge_matrices=True, pooled_estimates=True)
        vanilla = simulate_stream(
            stream, POSGGrouping(config), k=4,
            data_latency=latencies, rng=np.random.default_rng(7),
        )
        aware = simulate_stream(
            stream, POSGGrouping(config, latency_hints=latencies), k=4,
            data_latency=latencies, rng=np.random.default_rng(7),
        )
        assert (
            aware.stats.average_completion_time
            < vanilla.stats.average_completion_time
        )
