"""Tests for the Greedy Online Scheduler and Theorem 4.2."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import verify_theorem_42
from repro.core.gos import (
    adversarial_sequence,
    greedy_online_schedule,
    makespan,
    opt_lower_bound,
)
from repro.core.grouping import FullKnowledgeGrouping, RoundRobinGrouping
from repro.simulator.run import simulate_stream
from repro.workloads.synthetic import Stream


class TestGreedySchedule:
    def test_paper_example(self):
        """Section II example: a0, b1, a2 with w_a=10, w_b=1 on k=2."""
        assignment, loads = greedy_online_schedule([10.0, 1.0, 10.0], 2)
        # a0 -> machine 0; b1 -> machine 1 (load 0); a2 -> machine 1 (load 1).
        assert assignment == [0, 1, 1]
        assert loads == [10.0, 11.0]

    def test_single_machine(self):
        assignment, loads = greedy_online_schedule([1.0, 2.0, 3.0], 1)
        assert assignment == [0, 0, 0]
        assert loads == [6.0]

    def test_empty_sequence(self):
        assignment, loads = greedy_online_schedule([], 3)
        assert assignment == []
        assert loads == [0.0, 0.0, 0.0]

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            greedy_online_schedule([1.0], 0)

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            greedy_online_schedule([-1.0], 2)

    def test_loads_sum_to_total(self):
        weights = [3.0, 1.0, 4.0, 1.0, 5.0]
        _, loads = greedy_online_schedule(weights, 3)
        assert sum(loads) == pytest.approx(sum(weights))

    def test_tie_breaks_to_lowest_index(self):
        assignment, _ = greedy_online_schedule([1.0, 1.0, 1.0], 3)
        assert assignment == [0, 1, 2]


class TestBounds:
    def test_opt_lower_bound_average(self):
        assert opt_lower_bound([2.0, 2.0, 2.0, 2.0], 2) == 4.0

    def test_opt_lower_bound_max_task(self):
        assert opt_lower_bound([10.0, 1.0], 4) == 10.0

    def test_opt_lower_bound_empty(self):
        assert opt_lower_bound([], 2) == 0.0

    def test_makespan(self):
        assert makespan([1.0, 5.0, 3.0]) == 5.0

    def test_makespan_rejects_empty(self):
        with pytest.raises(ValueError):
            makespan([])


class TestTheorem42:
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 10])
    def test_ratio_bounded_on_random_sequences(self, k):
        rng = np.random.default_rng(k)
        for _ in range(20):
            weights = rng.uniform(1.0, 64.0, size=200).tolist()
            ratio = verify_theorem_42(weights, k).ratio
            assert ratio <= 2.0 - 1.0 / k + 1e-9

    @pytest.mark.parametrize("k", [2, 3, 5, 10])
    def test_adversarial_sequence_is_tight(self, k):
        """GOS hits exactly (2 - 1/k) * OPT on the Gusfield construction."""
        weights = adversarial_sequence(k, w_max=1.0)
        _, loads = greedy_online_schedule(weights, k)
        assert makespan(loads) == pytest.approx(2.0 - 1.0 / k)
        # OPT achieves w_max: the k(k-1) small tasks fill k-1 machines.
        assert opt_lower_bound(weights, k) == pytest.approx(1.0)

    def test_adversarial_sequence_size(self):
        assert len(adversarial_sequence(4)) == 4 * 3 + 1

    @given(
        st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=200),
        st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=100, deadline=None)
    def test_ratio_property(self, weights, k):
        assert verify_theorem_42(weights, k).ratio <= 2.0 - 1.0 / k + 1e-6


def paper_example_completions(policy):
    """Section II's stream a0, b1, a2 (w_a = 10, w_b = 1) arriving at
    0, 1 and 2 on k = 2, through the engine that measures L."""
    stream = Stream(
        items=np.array([0, 1, 0]),
        base_times=np.array([10.0, 1.0, 10.0]),
        arrivals=np.array([0.0, 1.0, 2.0]),
        n=2,
        time_table=np.array([10.0, 1.0]),
    )
    result = simulate_stream(stream, policy, k=2)
    return result.stats.assignments.tolist(), result.stats.completions


class TestCompletionTimes:
    def test_paper_round_robin_example(self):
        """Section II: RR sends a2 behind a0 and wastes 8 ms queueing."""
        assignment, completions = paper_example_completions(RoundRobinGrouping())
        assert assignment == [0, 1, 0]
        assert completions.sum() == 10 + 1 + 10 + (10 - 2)

    def test_paper_better_schedule_example(self):
        assignment, completions = paper_example_completions(
            lambda oracle: FullKnowledgeGrouping(oracle)
        )
        assert assignment == [0, 1, 1]
        assert completions.sum() == 10 + 1 + 10
