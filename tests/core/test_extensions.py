"""Per-instance data latencies: ``simulate_stream`` takes one constant
delay per instance."""

import numpy as np
import pytest


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
