"""Tests for the event-driven stage topology and its equivalence with the
fast path."""

import numpy as np
import pytest

from repro.core.config import POSGConfig
from repro.core.grouping import (
    FullKnowledgeGrouping,
    POSGGrouping,
    RoundRobinGrouping,
)
from repro.simulator.run import simulate_stream
from repro.simulator.topology import StageTopology
from repro.workloads.distributions import ZipfItems
from repro.workloads.nonstationary import LoadShiftScenario
from repro.workloads.synthetic import StreamSpec, generate_stream


def small_stream(seed=0, m=1024, n=128, k=3):
    spec = StreamSpec(m=m, n=n, k=k)
    return generate_stream(ZipfItems(n, 1.0), spec, np.random.default_rng(seed))


class LinearDrift:
    """A duck-typed scenario: each instance's multiplier moves linearly
    from ``start`` to ``end`` over the first ``duration`` tuples."""

    def __init__(self, start, end, duration):
        self.start, self.end, self.duration = start, end, duration
        self.k = len(start)

    def multiplier(self, instance, tuple_index):
        fraction = min(1.0, tuple_index / self.duration)
        start = self.start[instance]
        return start + (self.end[instance] - start) * fraction

    def multiplier_matrix(self, m):
        """:meth:`multiplier` in bulk, the same IEEE operations."""
        fraction = np.minimum(1.0, np.arange(m) / self.duration)
        start, end = np.asarray(self.start), np.asarray(self.end)
        return start + (end - start) * fraction[:, None]


class TestBasics:
    def test_runs_to_completion(self):
        stream = small_stream()
        topo = StageTopology(3, RoundRobinGrouping())
        result = topo.run(stream)
        assert result.stats.m == stream.m

    def test_single_use(self):
        stream = small_stream(m=16)
        topo = StageTopology(2, RoundRobinGrouping())
        topo.run(stream)
        with pytest.raises(RuntimeError):
            topo.run(stream)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            StageTopology(0, RoundRobinGrouping())

    def test_rejects_short_scenario(self):
        with pytest.raises(ValueError):
            StageTopology(
                5, RoundRobinGrouping(), scenario=LoadShiftScenario.constant(2)
            )


class TestEquivalenceWithFastPath:
    """The DES reference and the fast path must agree tuple-for-tuple."""

    def assert_equivalent(self, stream, k, make_policy, scenario=None, seed=7):
        fast = simulate_stream(
            stream, make_policy(), k=k, scenario=scenario,
            rng=np.random.default_rng(seed),
        )
        topo = StageTopology(k, make_policy(), scenario=scenario,
                             rng=np.random.default_rng(seed))
        slow = topo.run(stream)
        np.testing.assert_array_equal(
            fast.stats.assignments, slow.stats.assignments
        )
        np.testing.assert_allclose(
            fast.stats.completions, slow.stats.completions, rtol=1e-12
        )
        assert fast.control_messages == slow.control_messages

    def test_round_robin(self):
        self.assert_equivalent(small_stream(), 3, RoundRobinGrouping)

    def test_full_knowledge(self):
        stream = small_stream(seed=1)
        fast = simulate_stream(
            stream, lambda oracle: FullKnowledgeGrouping(oracle), k=3
        )
        topo = StageTopology(3, lambda oracle: FullKnowledgeGrouping(oracle))
        slow = topo.run(stream)
        np.testing.assert_array_equal(
            fast.stats.assignments, slow.stats.assignments
        )
        np.testing.assert_allclose(
            fast.stats.completions, slow.stats.completions, rtol=1e-12
        )

    def test_posg(self):
        config = POSGConfig(window_size=64, rows=2, cols=16)
        self.assert_equivalent(
            small_stream(seed=2, m=2048),
            3,
            lambda: POSGGrouping(config),
        )

    def test_posg_with_load_shift(self):
        config = POSGConfig(window_size=64, rows=2, cols=16)
        scenario = LoadShiftScenario(
            phases=((1.1, 1.0, 0.9), (0.9, 1.0, 1.1)), boundaries=(1024,)
        )
        self.assert_equivalent(
            small_stream(seed=3, m=2048),
            3,
            lambda: POSGGrouping(config),
            scenario=scenario,
        )

    def test_posg_under_drift(self):
        """Continuous drift: a duck-typed scenario must produce identical
        results on both simulation paths."""
        config = POSGConfig(window_size=64, rows=2, cols=16)
        scenario = LinearDrift(
            start=(1.2, 1.0, 0.8), end=(0.8, 1.0, 1.2), duration=1500
        )
        self.assert_equivalent(
            small_stream(seed=6, m=2048),
            3,
            lambda: POSGGrouping(config),
            scenario=scenario,
        )

    def test_posg_with_data_latency(self):
        config = POSGConfig(window_size=64, rows=2, cols=16)
        stream = small_stream(seed=4, m=2048)
        fast = simulate_stream(
            stream, POSGGrouping(config), k=3, data_latency=0.5,
            rng=np.random.default_rng(11),
        )
        topo = StageTopology(
            3, POSGGrouping(config), data_latency=0.5,
            rng=np.random.default_rng(11),
        )
        slow = topo.run(stream)
        np.testing.assert_array_equal(
            fast.stats.assignments, slow.stats.assignments
        )
        np.testing.assert_allclose(
            fast.stats.completions, slow.stats.completions, rtol=1e-12
        )
