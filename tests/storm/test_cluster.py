"""End-to-end tests for the local cluster."""

import math

import numpy as np
import pytest

from repro.storm.cluster import ClusterConfig, LocalCluster
from repro.storm.components import (
    STREAM_SPOUT_FIELDS,
    ForwardingBolt,
    StreamSpout,
    WorkBolt,
)
from repro.storm.topology import Bolt, TopologyBuilder
from repro.workloads.distributions import UniformItems
from repro.workloads.nonstationary import LoadShiftScenario
from repro.workloads.synthetic import Stream, StreamSpec, generate_stream


def small_stream(m=200, n=16, seed=0, k=2):
    spec = StreamSpec(m=m, n=n, w_n=4, k=k)
    return generate_stream(UniformItems(n), spec, np.random.default_rng(seed))


class FailingBolt(Bolt):
    """Fails every other tuple and acks the rest."""

    def prepare(self, context, collector):
        self._collector = collector
        self._count = 0

    def execute(self, tup):
        self._count += 1
        if self._count % 2 == 0:
            self._collector.fail(tup)
        else:
            self._collector.ack(tup)


def run_work_topology(stream, k=2, config=None, scenario=None):
    builder = TopologyBuilder()
    builder.set_spout(
        "source", lambda: StreamSpout(stream), output_fields=STREAM_SPOUT_FIELDS
    )
    builder.set_bolt(
        "worker", lambda: WorkBolt(stream.time_table, scenario), parallelism=k
    ).shuffle_grouping("source")
    cluster = LocalCluster(config)
    cluster.submit(builder.build())
    cluster.run()
    return cluster


class TestBasicRun:
    def test_all_tuples_complete(self):
        stream = small_stream()
        cluster = run_work_topology(stream)
        assert cluster.metrics.emitted == stream.m
        assert cluster.metrics.completed == stream.m
        assert cluster.metrics.timed_out == 0

    def test_completion_latencies_positive(self):
        stream = small_stream()
        cluster = run_work_topology(stream)
        latencies = cluster.metrics.completion_latencies()
        assert latencies.shape == (stream.m,)
        assert np.all(latencies > 0)

    def test_latency_at_least_work_time(self):
        stream = small_stream()
        cluster = run_work_topology(stream)
        latencies = cluster.metrics.completion_latencies()
        assert np.all(latencies >= stream.base_times - 1e-9)

    def test_shuffle_splits_evenly(self):
        stream = small_stream(m=100)
        cluster = run_work_topology(stream, k=4)
        counts = cluster.metrics.task_execution_counts("worker", 4)
        np.testing.assert_array_equal(counts, [25, 25, 25, 25])

    def test_spout_sees_acks(self):
        stream = small_stream(m=50)
        builder = TopologyBuilder()
        spout = StreamSpout(stream)
        builder.set_spout("source", lambda: spout, output_fields=STREAM_SPOUT_FIELDS)
        builder.set_bolt(
            "worker", lambda: WorkBolt(stream.time_table), parallelism=2
        ).shuffle_grouping("source")
        cluster = LocalCluster()
        cluster.submit(builder.build())
        cluster.run()
        assert spout.acked == 50
        assert spout.failed == 0

    def test_requires_submit_before_run(self):
        with pytest.raises(RuntimeError):
            LocalCluster().run()

    def test_double_submit_rejected(self):
        stream = small_stream(m=5)
        builder = TopologyBuilder()
        builder.set_spout("s", lambda: StreamSpout(stream),
                          output_fields=STREAM_SPOUT_FIELDS)
        builder.set_bolt("w", lambda: WorkBolt(stream.time_table),
                         parallelism=1).shuffle_grouping("s")
        topo = builder.build()
        cluster = LocalCluster()
        cluster.submit(topo)
        with pytest.raises(RuntimeError):
            cluster.submit(topo)


class TestMultiStage:
    def test_forwarding_chain_completes(self):
        stream = small_stream(m=60)
        builder = TopologyBuilder()
        builder.set_spout("source", lambda: StreamSpout(stream),
                          output_fields=STREAM_SPOUT_FIELDS)
        builder.set_bolt("fwd", ForwardingBolt, parallelism=2,
                         output_fields=STREAM_SPOUT_FIELDS).shuffle_grouping("source")
        builder.set_bolt("worker", lambda: WorkBolt(stream.time_table),
                         parallelism=2).shuffle_grouping("fwd")
        cluster = LocalCluster()
        cluster.submit(builder.build())
        cluster.run()
        assert cluster.metrics.completed == 60
        assert cluster.metrics.timed_out == 0


class TestReliability:
    def test_failing_bolt_fails_trees(self):
        stream = small_stream(m=40)
        builder = TopologyBuilder()
        spout = StreamSpout(stream)
        builder.set_spout("source", lambda: spout, output_fields=STREAM_SPOUT_FIELDS)
        builder.set_bolt("flaky", FailingBolt,
                         parallelism=1).shuffle_grouping("source")
        cluster = LocalCluster()
        cluster.submit(builder.build())
        cluster.run()
        assert cluster.metrics.failed == 20
        assert cluster.metrics.completed == 20
        assert spout.failed == 20

    def test_timeouts_under_overload(self):
        """An undersized worker with a short timeout drops tuples."""
        # 50 tuples arriving every 1ms, each costing 10ms on one worker.
        stream = Stream(
            items=np.zeros(50, dtype=np.int64),
            base_times=np.full(50, 10.0),
            arrivals=np.arange(50, dtype=np.float64),
            n=1,
            time_table=np.array([10.0]),
        )
        config = ClusterConfig(message_timeout=50.0, timeout_sweep_interval=10.0)
        cluster = run_work_topology(stream, k=1, config=config)
        assert cluster.metrics.timed_out > 0
        assert cluster.metrics.completed + cluster.metrics.timed_out == 50

    def test_max_spout_pending_backpressure(self):
        stream = small_stream(m=100)
        config = ClusterConfig(max_spout_pending=1)
        cluster = run_work_topology(stream, k=2, config=config)
        # Backpressure slows the source but nothing is lost.
        assert cluster.metrics.completed == 100


class TestScenario:
    def test_load_shift_multiplier_applies(self):
        stream = Stream(
            items=np.zeros(4, dtype=np.int64),
            base_times=np.full(4, 10.0),
            arrivals=np.array([0.0, 100.0, 200.0, 300.0]),
            n=1,
            time_table=np.array([10.0]),
        )
        scenario = LoadShiftScenario(phases=((2.0,), (5.0,)), boundaries=(2,))
        cluster = run_work_topology(stream, k=1, scenario=scenario)
        latencies = cluster.metrics.completion_latencies()
        # phase 1: 10ms * 2.0; phase 2: 10ms * 5.0 (plus ack latency)
        assert latencies[0] == pytest.approx(20.0, abs=1.5)
        assert latencies[3] == pytest.approx(50.0, abs=1.5)


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"message_timeout": 0.0},
        {"max_spout_pending": 0},
        {"transfer_latency": -1.0},
        {"control_latency": -1.0},
        {"idle_backoff": 0.0},
        {"timeout_sweep_interval": 0.0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ClusterConfig(**kwargs)


class TestBadWorkTime:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_raises_naming_the_bolt_and_leaves_the_tuple_queued(self, bad):
        stream = Stream(
            items=np.zeros(3, dtype=np.int64),
            base_times=np.full(3, 10.0),
            arrivals=np.array([0.0, 100.0, 200.0]),
            n=1,
            time_table=np.array([bad]),
        )
        builder = TopologyBuilder()
        builder.set_spout(
            "source", lambda: StreamSpout(stream), output_fields=STREAM_SPOUT_FIELDS
        )
        builder.set_bolt(
            "worker", lambda: WorkBolt(stream.time_table), parallelism=2
        ).shuffle_grouping("source")
        cluster = LocalCluster()
        cluster.submit(builder.build())
        with pytest.raises(ValueError, match=r"bolt 'worker' task \d"):
            cluster.run()
        executors = cluster._bolt_executors["worker"]
        assert [executor.busy for executor in executors] == [False, False]
        assert sum(len(executor.queue) for executor in executors) == 1
        assert cluster.metrics.completed == 0


class TestSeededAckIds:
    def test_config_seed_makes_ack_ids_reproducible(self):
        a = LocalCluster(ClusterConfig(seed=5))
        b = LocalCluster(ClusterConfig(seed=5))
        ids_a = [a.acker.fresh_ack_id() for _ in range(32)]
        ids_b = [b.acker.fresh_ack_id() for _ in range(32)]
        assert ids_a == ids_b
        assert all(1 <= i < (1 << 64) for i in ids_a)

    def test_explicit_rng_overrides_config_seed(self):
        a = LocalCluster(ClusterConfig(seed=5), rng=np.random.default_rng(11))
        b = LocalCluster(ClusterConfig(seed=6), rng=np.random.default_rng(11))
        assert ([a.acker.fresh_ack_id() for _ in range(8)]
                == [b.acker.fresh_ack_id() for _ in range(8)])
