"""Property-based invariants of the fast simulation path."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grouping import KeyGrouping, RoundRobinGrouping
from repro.simulator.run import simulate_stream
from repro.workloads.synthetic import Stream


@st.composite
def tiny_streams(draw):
    m = draw(st.integers(min_value=1, max_value=60))
    n = draw(st.integers(min_value=1, max_value=8))
    items = draw(
        st.lists(st.integers(min_value=0, max_value=n - 1),
                 min_size=m, max_size=m)
    )
    table = draw(
        st.lists(st.floats(min_value=0.1, max_value=50.0),
                 min_size=n, max_size=n)
    )
    gaps = draw(
        st.lists(st.floats(min_value=0.0, max_value=20.0),
                 min_size=m, max_size=m)
    )
    arrivals = np.cumsum(gaps) - gaps[0]
    table = np.asarray(table)
    items = np.asarray(items)
    return Stream(
        items=items,
        base_times=table[items],
        arrivals=np.asarray(arrivals),
        n=n,
        time_table=table,
    )


class TestFastPathInvariants:
    @given(tiny_streams(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_completion_at_least_service_time(self, stream, k):
        result = simulate_stream(stream, RoundRobinGrouping(), k=k)
        assert np.all(result.stats.completions >= stream.base_times - 1e-9)

    @given(tiny_streams(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_fifo_order_per_instance(self, stream, k):
        result = simulate_stream(stream, RoundRobinGrouping(), k=k)
        finish = stream.arrivals + result.stats.completions
        for instance in range(k):
            mask = result.stats.assignments == instance
            assert np.all(np.diff(finish[mask]) >= -1e-9)

    @given(tiny_streams(), st.integers(min_value=1, max_value=4),
           st.integers(min_value=0, max_value=100))
    @settings(max_examples=40, deadline=None)
    def test_no_idle_while_queued(self, stream, k, seed):
        """Work conservation: an instance's total busy time equals the sum
        of its service times, and its makespan is at most last-arrival +
        total service (it never idles with work queued)."""
        result = simulate_stream(
            stream, KeyGrouping(), k=k,
            rng=np.random.default_rng(seed),
        )
        finish = stream.arrivals + result.stats.completions
        for instance in range(k):
            mask = result.stats.assignments == instance
            if not mask.any():
                continue
            total_service = stream.base_times[mask].sum()
            last_arrival = stream.arrivals[mask].max()
            assert finish[mask].max() <= last_arrival + total_service + 1e-6

    @given(tiny_streams())
    @settings(max_examples=30, deadline=None)
    def test_single_instance_is_sequential(self, stream):
        """k=1: completions are the M/G/1-style recursion exactly."""
        result = simulate_stream(stream, RoundRobinGrouping(), k=1)
        finish = 0.0
        for j in range(stream.m):
            start = max(stream.arrivals[j], finish)
            finish = start + stream.base_times[j]
            expected = finish - stream.arrivals[j]
            assert result.stats.completions[j] == expected
