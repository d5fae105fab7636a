"""Unit tests for TopologyMetrics."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.storm.metrics import TopologyMetrics


def executors(*counts):
    """Stand-ins for one bolt's executors, by task index."""
    return [
        SimpleNamespace(task_index=index, executed=count)
        for index, count in enumerate(counts)
    ]


class TestTopologyMetrics:
    def test_initial_state(self):
        metrics = TopologyMetrics()
        assert metrics.emitted == 0
        assert metrics.completed == 0
        assert metrics.timed_out == 0
        assert metrics.failed == 0
        assert metrics.control_messages == 0
        assert metrics.completion_latencies().size == 0
        assert metrics.completed_ids() == []

    def test_average_requires_completions(self):
        with pytest.raises(ValueError):
            TopologyMetrics().average_completion_time()

    def test_completion_ordering_by_msg_id(self):
        metrics = TopologyMetrics()
        metrics.record_completion(5, 50.0)
        metrics.record_completion(1, 10.0)
        metrics.record_completion(3, 30.0)
        np.testing.assert_allclose(
            metrics.completion_latencies(), [10.0, 30.0, 50.0]
        )
        assert metrics.completed_ids() == [1, 3, 5]

    def test_average(self):
        metrics = TopologyMetrics()
        metrics.record_completion(0, 10.0)
        metrics.record_completion(1, 30.0)
        assert metrics.average_completion_time() == 20.0

    def test_execution_counts(self):
        metrics = TopologyMetrics()
        assert metrics.executions("worker", 0) == 0
        metrics.bind_executors({"worker": executors(2, 0, 1)})
        np.testing.assert_array_equal(
            metrics.task_execution_counts("worker", 3), [2, 0, 1]
        )
        assert metrics.executions("worker", 3) == 0
        assert metrics.executions("other", 0) == 0

    def test_counters(self):
        metrics = TopologyMetrics()
        metrics.record_emit()
        metrics.record_timeout("a")
        metrics.record_failure("b")
        metrics.record_control_message()
        assert metrics.emitted == 1
        assert metrics.timed_out == 1
        assert metrics.failed == 1
        assert metrics.control_messages == 1
        assert metrics.control_bits == 0  # legacy no-size call

    def test_control_bits_accumulate(self):
        metrics = TopologyMetrics()
        metrics.record_control_message(64)
        metrics.record_control_message(27_648)
        metrics.record_control_message()  # unknown size counts 0 bits
        assert metrics.control_messages == 3
        assert metrics.control_bits == 27_712

    def test_samples_for_registry_collector(self):
        metrics = TopologyMetrics()
        metrics.record_emit()
        metrics.record_completion(0, 10.0)
        metrics.bind_executors({"worker": executors(0, 1)})
        metrics.record_control_message(64)
        by_key = {sample.key: sample.value for sample in metrics.samples()}
        assert by_key["storm_tuples_emitted_total"] == 1
        assert by_key["storm_tuples_completed_total"] == 1
        assert by_key["storm_control_messages_total"] == 1
        assert by_key["storm_control_bits_total"] == 64
        assert by_key['storm_task_executed_total{component="worker",task="1"}'] == 1
        # a task that executed nothing exports no series
        assert 'storm_task_executed_total{component="worker",task="0"}' not in by_key
