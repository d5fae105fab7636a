"""Advanced Storm-engine integration: fan-out anchoring, groupings
end-to-end, backpressure timing and acker edge cases."""

import numpy as np
import pytest

from repro.storm.cluster import ClusterConfig, LocalCluster
from repro.storm.components import (
    STREAM_SPOUT_FIELDS,
    ForwardingBolt,
    StreamSpout,
    WorkBolt,
)
from repro.storm.grouping import AllGrouping
from repro.storm.topology import Bolt, TopologyBuilder
from repro.workloads.distributions import UniformItems
from repro.workloads.synthetic import Stream, StreamSpec, generate_stream


def small_stream(m=100, n=16, seed=0):
    spec = StreamSpec(m=m, n=n, w_n=4, k=2)
    return generate_stream(UniformItems(n), spec, np.random.default_rng(seed))


class CountingBolt(Bolt):
    """Remembers every executed tuple (terminal)."""

    instances: list = []

    def __init__(self):
        self.seen = []
        CountingBolt.instances.append(self)

    def execute(self, tup):
        self.seen.append(tuple(tup.values))


class TestFanOut:
    def test_all_grouping_replicates_and_completes(self):
        """AllGrouping fans every tuple to all tasks; trees still complete."""
        CountingBolt.instances = []
        stream = small_stream(m=50)
        builder = TopologyBuilder()
        builder.set_spout("src", lambda: StreamSpout(stream),
                          output_fields=STREAM_SPOUT_FIELDS)
        builder.set_bolt("sink", CountingBolt, parallelism=3) \
               .custom_grouping("src", AllGrouping())
        cluster = LocalCluster()
        cluster.submit(builder.build())
        cluster.run()
        assert cluster.metrics.completed == 50
        for bolt in CountingBolt.instances:
            assert len(bolt.seen) == 50

    def test_two_subscribers_each_get_every_tuple(self):
        CountingBolt.instances = []
        stream = small_stream(m=40)
        builder = TopologyBuilder()
        builder.set_spout("src", lambda: StreamSpout(stream),
                          output_fields=STREAM_SPOUT_FIELDS)
        builder.set_bolt("a", CountingBolt, parallelism=1).shuffle_grouping("src")
        builder.set_bolt("b", CountingBolt, parallelism=1).shuffle_grouping("src")
        cluster = LocalCluster()
        cluster.submit(builder.build())
        cluster.run()
        assert cluster.metrics.completed == 40
        assert all(len(bolt.seen) == 40 for bolt in CountingBolt.instances)

    def test_three_stage_pipeline_latency_accumulates(self):
        stream = small_stream(m=30)
        config = ClusterConfig(transfer_latency=2.0)

        def run(stages):
            builder = TopologyBuilder()
            builder.set_spout("src", lambda: StreamSpout(stream),
                              output_fields=STREAM_SPOUT_FIELDS)
            previous = "src"
            for index in range(stages):
                name = f"fwd{index}"
                builder.set_bolt(name, ForwardingBolt, parallelism=1,
                                 output_fields=STREAM_SPOUT_FIELDS) \
                       .shuffle_grouping(previous)
                previous = name
            builder.set_bolt("sink", lambda: WorkBolt(stream.time_table),
                             parallelism=2).shuffle_grouping(previous)
            cluster = LocalCluster(config)
            cluster.submit(builder.build())
            cluster.run()
            return cluster.metrics.average_completion_time()

        # each extra forwarding stage adds at least one 2ms network hop
        assert run(3) > run(1)


class TestBackpressure:
    def test_pending_cap_is_respected(self):
        """With max_spout_pending=N, at most N trees are in flight."""
        stream = small_stream(m=60)
        config = ClusterConfig(max_spout_pending=3)
        builder = TopologyBuilder()
        builder.set_spout("src", lambda: StreamSpout(stream),
                          output_fields=STREAM_SPOUT_FIELDS)
        builder.set_bolt("work", lambda: WorkBolt(stream.time_table),
                         parallelism=1).shuffle_grouping("src")
        cluster = LocalCluster(config)
        cluster.submit(builder.build())

        max_pending = 0
        original = cluster.acker.register_root

        def spy(msg_id, ack_id, now):
            nonlocal max_pending
            original(msg_id, ack_id, now)
            max_pending = max(max_pending, cluster.acker.pending_count)

        cluster.acker.register_root = spy
        cluster.run()
        assert cluster.metrics.completed == 60
        assert max_pending <= 3

    def test_backpressure_slows_the_source(self):
        stream = small_stream(m=60)

        def final_time(pending_cap):
            builder = TopologyBuilder()
            builder.set_spout("src", lambda: StreamSpout(stream),
                              output_fields=STREAM_SPOUT_FIELDS)
            builder.set_bolt("work", lambda: WorkBolt(stream.time_table),
                             parallelism=1).shuffle_grouping("src")
            cluster = LocalCluster(ClusterConfig(max_spout_pending=pending_cap))
            cluster.submit(builder.build())
            return cluster.run()

        assert final_time(1) >= final_time(None)


class TestAckerEdgeCases:
    def test_ack_after_timeout_is_ignored(self):
        """A straggler finishing after its tree timed out must not crash
        or double-count."""
        stream = Stream(
            items=np.zeros(3, dtype=np.int64),
            base_times=np.full(3, 100.0),
            arrivals=np.array([0.0, 1.0, 2.0]),
            n=1,
            time_table=np.array([100.0]),
        )
        config = ClusterConfig(message_timeout=150.0, timeout_sweep_interval=50.0)
        builder = TopologyBuilder()
        spout = StreamSpout(stream)
        builder.set_spout("src", lambda: spout, output_fields=STREAM_SPOUT_FIELDS)
        builder.set_bolt("work", lambda: WorkBolt(stream.time_table),
                         parallelism=1).shuffle_grouping("src")
        cluster = LocalCluster(config)
        cluster.submit(builder.build())
        cluster.run()
        # tuple 2 waits 200ms in queue -> timed out, then executes anyway
        assert cluster.metrics.timed_out >= 1
        assert cluster.metrics.completed + cluster.metrics.timed_out == 3
        assert spout.acked + spout.failed == 3
