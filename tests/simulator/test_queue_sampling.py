"""Tests for the backlog-trace instrumentation."""

import numpy as np
import pytest

from repro.core.config import POSGConfig
from repro.core.grouping import (
    FullKnowledgeGrouping,
    POSGGrouping,
    RoundRobinGrouping,
)
from repro.faults.plan import CrashFault, FaultPlan
from repro.simulator.run import simulate_stream
from repro.workloads.distributions import UniformItems
from repro.workloads.synthetic import Stream, StreamSpec, generate_stream


def small_stream(m=1000, n=64, k=3, seed=0, **overrides):
    spec = StreamSpec(m=m, n=n, w_n=8, k=k, **overrides)
    return generate_stream(UniformItems(n), spec, np.random.default_rng(seed))


def clocked_stream(m, gap, base_time):
    """One item, arrivals every ``gap`` ms, ``base_time`` ms of work each."""
    return Stream(
        items=np.zeros(m, dtype=np.int64),
        base_times=np.full(m, base_time),
        arrivals=np.arange(m, dtype=np.float64) * gap,
        n=1,
        time_table=np.array([base_time]),
    )


class TestQueueSampling:
    def test_disabled_by_default(self):
        result = simulate_stream(small_stream(m=50), RoundRobinGrouping(), k=3)
        assert result.queue_samples is None
        assert result.queue_sample_indices is None

    def test_sample_shape(self):
        result = simulate_stream(
            small_stream(m=1000), RoundRobinGrouping(), k=3,
            sample_queues_every=100,
        )
        assert result.queue_samples.shape == (10, 3)
        np.testing.assert_array_equal(
            result.queue_sample_indices, np.arange(0, 1000, 100)
        )

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            simulate_stream(
                small_stream(m=10), RoundRobinGrouping(), k=2,
                sample_queues_every=0,
            )

    def test_backlogs_nonnegative(self):
        result = simulate_stream(
            small_stream(m=2000), RoundRobinGrouping(), k=3,
            sample_queues_every=50,
        )
        assert np.all(result.queue_samples >= 0)

    def test_overloaded_instance_backlog_grows(self):
        """Single slow instance at rho > 1: backlog grows monotonically
        on average."""
        stream = clocked_stream(500, gap=5.0, base_time=10.0)  # rho = 2
        result = simulate_stream(
            stream, RoundRobinGrouping(), k=1, sample_queues_every=100
        )
        backlog = result.queue_samples[:, 0]
        assert backlog[-1] > backlog[0]
        assert backlog[-1] > 1000.0  # ~500 tuples * 5ms excess / sampled late

    def test_idle_system_backlog_zero(self):
        stream = small_stream(m=300, over_provisioning=50.0)
        result = simulate_stream(
            stream, RoundRobinGrouping(), k=3, sample_queues_every=50
        )
        # massively over-provisioned: queues are empty at almost every sample
        assert np.mean(result.queue_samples == 0.0) > 0.9


POLICIES = {
    # under a fault plan: the generic loop, the generic loop, the segment router
    "round_robin": lambda oracle: RoundRobinGrouping(),
    "full_knowledge": FullKnowledgeGrouping,
    "posg": lambda oracle: POSGGrouping(
        POSGConfig(window_size=8, rows=2, cols=8, mu=1.0)
    ),
}


@pytest.mark.parametrize("policy", POLICIES.values(), ids=POLICIES)
class TestPostHocSampler:
    """The chunked engine derives the backlog trace after its loop from
    ``(finishes, assignments, arrivals, crashes)``; the reference engine
    samples inline.  Hand-built cases the generated differential
    (``test_segment_router_equivalence.py``) rarely draws."""

    def trace(self, policy, stream, k, every, crashes=()):
        plan = FaultPlan(crashes=list(crashes)) if crashes else None
        reference, chunked = (
            simulate_stream(
                stream, policy, k=k, rng=np.random.default_rng(2),
                sample_queues_every=every, faults=plan, chunk_size=chunk_size,
            )
            for chunk_size in (0, 16)
        )
        np.testing.assert_array_equal(
            reference.queue_sample_indices, chunked.queue_sample_indices
        )
        np.testing.assert_array_equal(
            reference.queue_samples, chunked.queue_samples
        )
        assert chunked.queue_samples.dtype == reference.queue_samples.dtype
        assert chunked.queue_sample_indices.dtype == np.int64
        return chunked

    @pytest.mark.parametrize("every", [1, 7, 64, 1_000])
    def test_fault_free_loops_at_every_stride(self, policy, every):
        m = 64
        chunked = self.trace(policy, clocked_stream(m, 1.0, 2.5), 2, every)
        assert len(chunked.queue_sample_indices) == -(-m // every)
        assert chunked.queue_samples.shape == (-(-m // every), 2)

    def test_instance_that_receives_no_tuple(self, policy):
        chunked = self.trace(policy, clocked_stream(3, 1.0, 5.0), 5, 1)
        unused = sorted(set(range(5)) - set(chunked.stats.assignments.tolist()))
        assert unused
        assert not chunked.queue_samples[:, unused].any()
        assert chunked.queue_samples.any()

    def test_crash_on_an_instance_that_receives_no_tuple_afterwards(self, policy):
        stream = clocked_stream(3, 1.0, 0.25)
        chunked = self.trace(policy, stream, 5, 1, [CrashFault(4, 1.0, 10.0)])
        # fired at tuple 1, first visible at tuple 2: 11.0 - 2.0
        assert chunked.queue_samples[:, 4].tolist() == [0.0, 0.0, 9.0]

    def test_crash_due_exactly_at_a_sampled_arrival(self, policy):
        stream = clocked_stream(40, 1.0, 0.5)
        chunked = self.trace(
            policy, stream, 2, 5, [CrashFault(1, float(stream.arrivals[10]), 7.5)]
        )
        backlog = dict(
            zip(chunked.queue_sample_indices.tolist(), chunked.queue_samples[:, 1])
        )
        # the sample at tuple 10 is taken before the crash due there fires
        assert backlog[10] == 0.0
        assert backlog[15] >= 17.5 - 15.0

    def test_two_crashes_of_one_instance_due_at_the_same_tuple(self, policy):
        stream = clocked_stream(40, 1.0, 0.5)
        chunked = self.trace(
            policy, stream, 2, 1,
            [CrashFault(0, 9.5, 12.0), CrashFault(0, 10.0, 3.0)],
        )
        assert chunked.faults.report()["injected"]["crashes"] == 2
        assert chunked.queue_samples[10, 0] < 1.0
        # the later restart (9.5 + 12.0) wins
        assert chunked.queue_samples[11, 0] >= 21.5 - 11.0

    def test_outage_that_ends_before_the_current_backlog(self, policy):
        stream = clocked_stream(60, 1.0, 10.0)  # rho = 5 at k = 2
        crash = CrashFault(1, float(stream.arrivals[30]), 1.0)
        crashed = self.trace(policy, stream, 2, 1, [crash])
        plain = self.trace(policy, stream, 2, 1)
        assert crashed.queue_samples[30, 1] > 50.0
        np.testing.assert_array_equal(crashed.queue_samples, plain.queue_samples)
