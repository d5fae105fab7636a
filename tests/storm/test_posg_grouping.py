"""Tests for POSG as a Storm custom grouping."""

import numpy as np
import pytest

from repro.core.config import POSGConfig
from repro.core.scheduler import SchedulerState
from repro.storm.cluster import ClusterConfig, LocalCluster
from repro.storm.components import STREAM_SPOUT_FIELDS, StreamSpout, WorkBolt
from repro.storm.posg_grouping import POSGShuffleGrouping
from repro.storm.topology import TopologyBuilder
from repro.workloads.distributions import ZipfItems
from repro.workloads.synthetic import StreamSpec, generate_stream


def make_stream(m=3000, n=128, k=3, seed=0):
    spec = StreamSpec(m=m, n=n, k=k)
    return generate_stream(ZipfItems(n, 1.0), spec, np.random.default_rng(seed))


def run_posg_topology(stream, k=3, config=None, posg_config=None, seed=1):
    grouping = POSGShuffleGrouping(
        item_field="value",
        config=posg_config or POSGConfig(window_size=64, rows=2, cols=16),
        rng=np.random.default_rng(seed),
    )
    builder = TopologyBuilder()
    builder.set_spout("source", lambda: StreamSpout(stream),
                      output_fields=STREAM_SPOUT_FIELDS)
    builder.set_bolt("worker", lambda: WorkBolt(stream.time_table),
                     parallelism=k).custom_grouping("source", grouping)
    cluster = LocalCluster(config)
    cluster.submit(builder.build())
    cluster.run()
    return cluster, grouping


class TestLifecycle:
    def test_reaches_run_state(self):
        stream = make_stream()
        cluster, grouping = run_posg_topology(stream)
        assert grouping.state is SchedulerState.RUN
        assert grouping.scheduler.sync_rounds_completed >= 1

    def test_all_tuples_complete(self):
        stream = make_stream(m=1000)
        cluster, _ = run_posg_topology(stream)
        assert cluster.metrics.completed == 1000
        assert cluster.metrics.timed_out == 0

    def test_control_messages_counted(self):
        stream = make_stream(m=2000)
        cluster, _ = run_posg_topology(stream)
        assert cluster.metrics.control_messages > 0

    def test_trackers_observe_executions(self):
        stream = make_stream(m=1000, k=2)
        cluster, grouping = run_posg_topology(stream, k=2)
        total = sum(
            grouping.policy.tracker(i).tuples_executed for i in range(2)
        )
        assert total == 1000

    def test_control_overhead_negligible(self):
        """Theorem 3.3: O(km/N) messages; here a small fraction of m."""
        stream = make_stream(m=3000)
        cluster, _ = run_posg_topology(stream)
        assert cluster.metrics.control_messages < stream.m * 0.2

    def test_control_bits_counted(self):
        """The paper reports control overhead in traffic volume, not
        message count: every recorded message must carry its wire size."""
        stream = make_stream(m=2000)
        cluster, grouping = run_posg_topology(stream)
        assert cluster.metrics.control_bits > 0
        # matrices dominate the volume: more bits than 64 per message
        assert (
            cluster.metrics.control_bits
            > cluster.metrics.control_messages * 64
        )

    def test_one_grouping_on_two_subscriptions_is_refused(self):
        """``prepare`` sets a grouping's scheduler up for one source, so a
        second subscription through the same grouping is refused."""
        stream = make_stream(m=100)
        grouping = POSGShuffleGrouping("value", POSGConfig(rows=2, cols=16))
        builder = TopologyBuilder()
        bolt = builder.set_bolt(
            "worker", lambda: WorkBolt(stream.time_table), parallelism=3
        )
        for source in ("left", "right"):
            builder.set_spout(source, lambda: StreamSpout(stream),
                              output_fields=STREAM_SPOUT_FIELDS)
            bolt.custom_grouping(source, grouping)
        cluster = LocalCluster()
        with pytest.raises(ValueError, match="bound to source 'left'"):
            cluster.submit(builder.build())

    def test_each_grouping_hears_only_its_own_sources_executions(self):
        """Two spouts, each behind its own grouping, into one bolt: an
        execution is reported to the grouping that routed the tuple, so
        each grouping's trackers fold exactly what its scheduler sent."""
        stream = make_stream(m=4000, k=5)
        groupings = {}
        builder = TopologyBuilder()
        bolt = builder.set_bolt(
            "worker", lambda: WorkBolt(stream.time_table), parallelism=5
        )
        for seed, source in enumerate(("left", "right")):
            # unanchored: both spouts replay the same message ids
            builder.set_spout(source, lambda: StreamSpout(stream, anchored=False),
                              output_fields=STREAM_SPOUT_FIELDS)
            groupings[source] = POSGShuffleGrouping(
                "value", POSGConfig(window_size=64, rows=2, cols=16),
                np.random.default_rng(seed),
            )
            bolt.custom_grouping(source, groupings[source])
        cluster = LocalCluster()
        cluster.submit(builder.build())
        cluster.run()
        for grouping in groupings.values():
            executed = sum(
                grouping.policy.tracker(i).tuples_executed for i in range(5)
            )
            assert grouping.scheduler.stats()["tuples_scheduled"] == stream.m
            assert executed == stream.m

    def test_two_reporting_groupings_on_one_edge_are_refused(self):
        """Two groupings that want reports on the same (source, bolt)
        edge: an execution could not be told apart between them."""
        stream = make_stream(m=100)
        builder = TopologyBuilder()
        builder.set_spout("source", lambda: StreamSpout(stream),
                          output_fields=STREAM_SPOUT_FIELDS)
        bolt = builder.set_bolt(
            "worker", lambda: WorkBolt(stream.time_table), parallelism=3
        )
        for _ in range(2):
            bolt.custom_grouping(
                "source", POSGShuffleGrouping("value", POSGConfig(rows=2, cols=16))
            )
        with pytest.raises(ValueError, match="two groupings"):
            LocalCluster().submit(builder.build())


class TestTelemetry:
    def test_cluster_and_grouping_share_recorder(self):
        from repro.telemetry.recorder import TelemetryRecorder

        stream = make_stream(m=2000)
        with TelemetryRecorder() as recorder:
            grouping = POSGShuffleGrouping(
                item_field="value",
                config=POSGConfig(window_size=64, rows=2, cols=16),
                rng=np.random.default_rng(1),
                telemetry=recorder,
            )
            builder = TopologyBuilder()
            builder.set_spout("source", lambda: StreamSpout(stream),
                              output_fields=STREAM_SPOUT_FIELDS)
            builder.set_bolt("worker", lambda: WorkBolt(stream.time_table),
                             parallelism=3).custom_grouping("source", grouping)
            cluster = LocalCluster(telemetry=recorder)
            cluster.submit(builder.build())
            cluster.run()
            snapshot = recorder.registry.snapshot()
        assert snapshot["storm_tuples_emitted_total"] == 2000
        assert snapshot["storm_control_bits_total"] == cluster.metrics.control_bits
        assert snapshot["posg_scheduler_tuples_scheduled_total"] == 2000
        assert recorder.tracer.events("scheduler_state")


class TestBehaviour:
    def test_posg_beats_assg_on_skewed_stream(self):
        # Sized so the sketch resolves items sharply (cols ~ n): with a
        # short test stream the speedup must come from estimate quality,
        # not from long-run averaging.
        spec = StreamSpec(m=6000, n=64, w_n=16, k=3)
        stream = generate_stream(
            ZipfItems(64, 1.0), spec, np.random.default_rng(5)
        )
        # ASSG run
        builder = TopologyBuilder()
        builder.set_spout("source", lambda: StreamSpout(stream),
                          output_fields=STREAM_SPOUT_FIELDS)
        builder.set_bolt("worker", lambda: WorkBolt(stream.time_table),
                         parallelism=3).shuffle_grouping("source")
        assg = LocalCluster()
        assg.submit(builder.build())
        assg.run()
        # POSG run
        posg_cluster, _ = run_posg_topology(
            stream, k=3,
            posg_config=POSGConfig(window_size=64, rows=4, cols=64,
                                   merge_matrices=True),
        )
        assert (
            posg_cluster.metrics.average_completion_time()
            < assg.metrics.average_completion_time()
        )

    def test_matches_engine_agnostic_policy_decisions(self):
        """The storm wiring must reproduce the simulator's POSG decisions
        when latencies are aligned (zero transfer, same control latency)."""
        from repro.core.grouping import POSGGrouping
        from repro.simulator.run import simulate_stream

        stream = make_stream(m=2000, k=2, seed=9)
        posg_config = POSGConfig(window_size=64, rows=2, cols=16)

        sim_result = simulate_stream(
            stream, POSGGrouping(posg_config), k=2,
            control_latency=1.0, rng=np.random.default_rng(33),
        )
        cluster, grouping = run_posg_topology(
            stream, k=2, posg_config=posg_config, seed=33,
            config=ClusterConfig(transfer_latency=0.0, control_latency=1.0),
        )
        counts = cluster.metrics.task_execution_counts("worker", 2)
        np.testing.assert_array_equal(
            counts, np.bincount(sim_result.stats.assignments, minlength=2)
        )
