"""Reliability-mode edge cases: unanchored streams, manual acking, and the
collector's once-only ack/fail handling."""

import numpy as np
import pytest

from repro.storm.cluster import ClusterConfig, LocalCluster
from repro.storm.components import STREAM_SPOUT_FIELDS, StreamSpout, WorkBolt
from repro.storm.executor import BoltCollector, TaskContext
from repro.storm.topology import Bolt, TopologyBuilder
from repro.storm.tuples import StormTuple
from repro.workloads.distributions import UniformItems
from repro.workloads.synthetic import StreamSpec, generate_stream


def small_stream(m=50, n=8, seed=0):
    spec = StreamSpec(m=m, n=n, w_n=2, k=1)
    return generate_stream(UniformItems(n), spec, np.random.default_rng(seed))


class TestUnanchoredStream:
    def test_unanchored_tuples_not_tracked(self):
        stream = small_stream()
        spout = StreamSpout(stream, anchored=False)
        builder = TopologyBuilder()
        builder.set_spout("src", lambda: spout,
                          output_fields=STREAM_SPOUT_FIELDS)
        builder.set_bolt("work", lambda: WorkBolt(stream.time_table),
                         parallelism=1).shuffle_grouping("src")
        cluster = LocalCluster()
        cluster.submit(builder.build())
        cluster.run()
        # no acking: nothing emitted into the tracker, nothing completed
        assert cluster.metrics.emitted == 0
        assert cluster.metrics.completed == 0
        assert spout.acked == 0
        # but the work still happened
        assert cluster.metrics.executions("work", 0) == 50


class ManualAckBolt(Bolt):
    """Acks explicitly; used with auto_ack disabled."""

    def __init__(self):
        self.executed = 0

    def prepare(self, context: TaskContext, collector: BoltCollector) -> None:
        self._collector = collector

    def execute(self, tup):
        self.executed += 1
        self._collector.ack(tup)


class ForgetfulBolt(Bolt):
    """Never acks; with auto_ack off, every tree must time out."""

    def prepare(self, context: TaskContext, collector: BoltCollector) -> None:
        pass

    def execute(self, tup):
        pass


class TestManualAcking:
    def test_manual_ack_completes(self):
        stream = small_stream()
        builder = TopologyBuilder()
        builder.set_spout("src", lambda: StreamSpout(stream),
                          output_fields=STREAM_SPOUT_FIELDS)
        builder.set_bolt("work", ManualAckBolt, parallelism=1) \
               .shuffle_grouping("src")
        cluster = LocalCluster(ClusterConfig(auto_ack=False))
        cluster.submit(builder.build())
        cluster.run()
        assert cluster.metrics.completed == 50
        assert cluster.metrics.timed_out == 0

    def test_forgetting_to_ack_times_everything_out(self):
        stream = small_stream(m=20)
        builder = TopologyBuilder()
        spout = StreamSpout(stream)
        builder.set_spout("src", lambda: spout,
                          output_fields=STREAM_SPOUT_FIELDS)
        builder.set_bolt("work", ForgetfulBolt, parallelism=1) \
               .shuffle_grouping("src")
        config = ClusterConfig(auto_ack=False, message_timeout=500.0,
                               timeout_sweep_interval=100.0)
        cluster = LocalCluster(config)
        cluster.submit(builder.build())
        cluster.run()
        assert cluster.metrics.timed_out == 20
        assert cluster.metrics.completed == 0
        assert spout.failed == 20

    def test_double_ack_is_idempotent(self):
        stream = small_stream(m=10)

        class DoubleAckBolt(Bolt):
            def prepare(self, context, collector):
                self._collector = collector

            def execute(self, tup):
                self._collector.ack(tup)
                self._collector.ack(tup)  # must be a no-op

        builder = TopologyBuilder()
        builder.set_spout("src", lambda: StreamSpout(stream),
                          output_fields=STREAM_SPOUT_FIELDS)
        builder.set_bolt("work", DoubleAckBolt, parallelism=1) \
               .shuffle_grouping("src")
        cluster = LocalCluster(ClusterConfig(auto_ack=False))
        cluster.submit(builder.build())
        cluster.run()
        assert cluster.metrics.completed == 10

    def test_fail_then_ack_fails_the_tree(self):
        stream = small_stream(m=10)

        class FailThenAckBolt(Bolt):
            def prepare(self, context, collector):
                self._collector = collector

            def execute(self, tup):
                self._collector.fail(tup)
                self._collector.ack(tup)  # the tuple is handled: a no-op

        builder = TopologyBuilder()
        spout = StreamSpout(stream)
        builder.set_spout("src", lambda: spout,
                          output_fields=STREAM_SPOUT_FIELDS)
        builder.set_bolt("work", FailThenAckBolt, parallelism=1) \
               .shuffle_grouping("src")
        cluster = LocalCluster()  # auto-ack on: it must skip failed tuples
        cluster.submit(builder.build())
        cluster.run()
        assert cluster.metrics.failed == 10
        assert cluster.metrics.completed == 0
        assert spout.failed == 10 and spout.acked == 0


class RecordingCluster:
    """Stands in for the cluster behind one collector; logs what reaches it."""

    def __init__(self):
        self.calls = []

    def ack_tuple(self, tup):
        self.calls.append(("ack", tup.root_id))

    def fail_tuple(self, tup):
        self.calls.append(("fail", tup.root_id))


def anchored_tuple(root_id):
    return StormTuple([root_id, 0], STREAM_SPOUT_FIELDS, "src", 0, root_id)


class TestCollectorHandling:
    def test_second_ack_never_reaches_the_cluster(self):
        cluster = RecordingCluster()
        collector = BoltCollector(cluster, None, 0)
        tup = anchored_tuple(7)
        assert not collector.was_handled(tup)
        collector.ack(tup)
        assert collector.was_handled(tup)
        collector.ack(tup)
        assert cluster.calls == [("ack", 7)]

    def test_ack_after_fail_never_reaches_the_cluster(self):
        cluster = RecordingCluster()
        collector = BoltCollector(cluster, None, 0)
        tup = anchored_tuple(3)
        collector.fail(tup)
        assert collector.was_handled(tup)
        collector.ack(tup)
        assert cluster.calls == [("fail", 3)]

    def test_handling_is_per_tuple(self):
        cluster = RecordingCluster()
        collector = BoltCollector(cluster, None, 0)
        first, second = anchored_tuple(1), anchored_tuple(2)
        collector.ack(first)
        assert not collector.was_handled(second)
        collector.fail(second)
        assert cluster.calls == [("ack", 1), ("fail", 2)]

    def test_no_collector_keeps_per_tuple_state_after_a_run(self):
        stream = small_stream(m=200)
        builder = TopologyBuilder()
        builder.set_spout("src", lambda: StreamSpout(stream),
                          output_fields=STREAM_SPOUT_FIELDS)
        builder.set_bolt("work", lambda: WorkBolt(stream.time_table),
                         parallelism=3).shuffle_grouping("src")
        cluster = LocalCluster()
        cluster.submit(builder.build())
        cluster.run()
        assert cluster.metrics.completed == 200
        for executor in cluster._bolt_executors["work"]:
            held = {
                name: len(value)
                for name, value in vars(executor.collector).items()
                if isinstance(value, (set, dict, list, tuple))
            }
            assert not any(held.values()), held
