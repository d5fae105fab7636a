"""Cross-module integration tests: full POSG deployments end to end."""

import numpy as np
import pytest

from repro.core.config import POSGConfig
from repro.core.grouping import (
    FullKnowledgeGrouping,
    POSGGrouping,
    RoundRobinGrouping,
)
from repro.core.scheduler import SchedulerState
from repro.simulator.run import simulate_stream
from repro.workloads.distributions import ZipfItems
from repro.workloads.nonstationary import LoadShiftScenario
from repro.workloads.synthetic import StreamSpec, generate_stream


def stream_of(m=8192, n=256, k=4, seed=0, **overrides):
    spec = StreamSpec(m=m, n=n, k=k, **overrides)
    return generate_stream(ZipfItems(n, 1.0), spec, np.random.default_rng(seed))


def posg_config(**overrides):
    defaults = dict(window_size=64, rows=4, cols=32, merge_matrices=True)
    defaults.update(overrides)
    return POSGConfig(**defaults)


class TestDeterminism:
    def test_simulation_fully_reproducible(self):
        stream = stream_of()
        results = [
            simulate_stream(
                stream, POSGGrouping(posg_config()), k=4,
                rng=np.random.default_rng(3),
            )
            for _ in range(2)
        ]
        np.testing.assert_array_equal(
            results[0].stats.assignments, results[1].stats.assignments
        )
        np.testing.assert_array_equal(
            results[0].stats.completions, results[1].stats.completions
        )
        assert results[0].state_transitions == results[1].state_transitions

    def test_different_hash_seeds_change_schedule(self):
        stream = stream_of()
        a = simulate_stream(stream, POSGGrouping(posg_config()), k=4,
                            rng=np.random.default_rng(3))
        b = simulate_stream(stream, POSGGrouping(posg_config()), k=4,
                            rng=np.random.default_rng(4))
        assert not np.array_equal(a.stats.assignments, b.stats.assignments)


class TestWorkConservation:
    @pytest.mark.parametrize("policy_factory", [
        lambda: RoundRobinGrouping(),
        lambda: POSGGrouping(posg_config()),
    ])
    def test_every_tuple_executes_exactly_once(self, policy_factory):
        stream = stream_of()
        result = simulate_stream(stream, policy_factory(), k=4,
                                 rng=np.random.default_rng(5))
        counts = result.stats.instance_tuple_counts(4)
        assert counts.sum() == stream.m

    def test_total_work_equals_stream_work(self):
        """Sum of (completion - queuing) per instance == total base work."""
        stream = stream_of()
        result = simulate_stream(stream, RoundRobinGrouping(), k=4)
        # finish - start == execution time; reconstruct from busy periods:
        finish = stream.arrivals + result.stats.completions
        for instance in range(4):
            mask = result.stats.assignments == instance
            # per-instance: total busy time >= sum of its work
            work = stream.base_times[mask].sum()
            makespan = finish[mask].max() - stream.arrivals[mask].min()
            assert makespan >= work - 1e-9


class TestPolicyOrdering:
    def test_oracle_tracks_greedy_bound(self):
        """FK's final load imbalance respects the GOS guarantee."""
        stream = stream_of(m=4096)
        result = simulate_stream(
            stream, lambda o: FullKnowledgeGrouping(o), k=4
        )
        loads = np.array([
            stream.base_times[result.stats.assignments == i].sum()
            for i in range(4)
        ])
        lower = max(stream.base_times.sum() / 4, stream.base_times.max())
        assert loads.max() <= (2 - 1 / 4) * lower + 1e-6


class TestAdaptation:
    def test_load_shift_triggers_new_matrices(self):
        """After a strong shift, instances destabilize and re-ship."""
        m = 16_384
        scenario = LoadShiftScenario(
            phases=((1.0, 1.0, 1.0, 1.0), (3.0, 1.0, 1.0, 0.5)),
            boundaries=(m // 2,),
        )
        stream = stream_of(m=m)
        policy = POSGGrouping(posg_config(merge_matrices=False))
        result = simulate_stream(
            stream, policy, k=4, scenario=scenario,
            rng=np.random.default_rng(6),
        )
        # matrices received both before and after the shift
        assert policy.scheduler.matrices_received >= 8
        post_shift_runs = [
            i for i, s in result.state_transitions
            if s is SchedulerState.RUN and i > m // 2
        ]
        assert post_shift_runs, "no resynchronization after the load shift"

    def test_heterogeneous_instances_receive_uneven_work(self):
        """POSG learns that a slow instance should get fewer tuples."""
        scenario = LoadShiftScenario.constant(4, (1.0, 1.0, 1.0, 4.0))
        stream = stream_of(m=16_384)
        policy = POSGGrouping(posg_config())
        result = simulate_stream(
            stream, policy, k=4, scenario=scenario,
            rng=np.random.default_rng(7),
        )
        counts = result.stats.instance_tuple_counts(4)
        # the 4x-slower instance must receive clearly fewer tuples
        assert counts[3] < 0.6 * counts[:3].mean()
