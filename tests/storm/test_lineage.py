"""Lineage tracing on the Storm layer (prototype deployment)."""

import numpy as np
import pytest

from repro.core.config import POSGConfig
from repro.storm.cluster import LocalCluster
from repro.storm.components import STREAM_SPOUT_FIELDS, StreamSpout, WorkBolt
from repro.storm.multisource import MultiSourcePOSGCoordinator
from repro.storm.posg_grouping import POSGShuffleGrouping
from repro.storm.topology import TopologyBuilder
from repro.telemetry.audit import AuditConfig
from repro.telemetry.flightrecorder import FlightRecorderConfig
from repro.telemetry.lineage import LineageConfig, LineageTracer, SLOConfig
from repro.workloads.distributions import ZipfItems
from repro.workloads.synthetic import StreamSpec, generate_stream


def make_stream(m=3000, n=128, k=3, seed=0):
    spec = StreamSpec(m=m, n=n, k=k)
    return generate_stream(ZipfItems(n, 1.0), spec, np.random.default_rng(seed))


def run_traced_topology(stream, k=3, lineage=None, seed=1, with_clock=True,
                        make_grouping=POSGShuffleGrouping, **observers):
    cluster = LocalCluster()
    grouping = make_grouping(
        item_field="value",
        config=POSGConfig(window_size=64, rows=2, cols=16),
        rng=np.random.default_rng(seed),
        lineage=lineage,
        # span stamps read the cluster's virtual clock
        clock=(lambda: cluster.sim.now) if with_clock else None,
        **observers,
    )
    builder = TopologyBuilder()
    builder.set_spout("source", lambda: StreamSpout(stream),
                      output_fields=STREAM_SPOUT_FIELDS)
    builder.set_bolt("worker", lambda: WorkBolt(stream.time_table),
                     parallelism=k).custom_grouping("source", grouping)
    cluster.submit(builder.build())
    cluster.run()
    return cluster, grouping


class TestStormLineage:
    def test_spans_close_with_real_queue_wait(self):
        stream = make_stream(m=3000)
        _, grouping = run_traced_topology(
            stream, lineage=LineageConfig(sample_every=50)
        )
        tracer = grouping.lineage
        spans = tracer.spans()
        assert len(spans) > 20
        # the control plane reports executions without enqueue clocks:
        # scheduling_delay is 0 by construction, and the exact
        # partition means completion == queue_wait + service_time
        for span in spans:
            assert span["scheduling_delay"] == 0.0
            residual = (
                (span["completion_ms"] - span["scheduling_delay"])
                - span["queue_wait"]
            ) - span["service_time"]
            assert residual == 0.0
            assert span["service_time"] > 0.0
        # under any nontrivial load some sampled tuple had to queue
        assert any(span["queue_wait"] > 0.0 for span in spans)

    def test_believed_loads_and_window_captured(self):
        stream = make_stream(m=2000, k=3)
        _, grouping = run_traced_topology(
            stream, lineage=LineageConfig(sample_every=40)
        )
        for record in grouping.lineage.records():
            believed = record[2]
            assert len(believed) == 3
            assert record[7] >= 1  # pre-execution window counter

    def test_without_clock_only_service_time(self):
        stream = make_stream(m=1500)
        _, grouping = run_traced_topology(
            stream, lineage=LineageConfig(sample_every=40), with_clock=False
        )
        spans = grouping.lineage.spans()
        assert spans
        for span in spans:
            assert span["queue_wait"] == 0.0
            assert span["completion_ms"] == span["service_time"]

    def test_pure_observer(self):
        stream = make_stream(m=2000)
        bare_cluster, bare = run_traced_topology(stream)
        traced_cluster, traced = run_traced_topology(
            stream, lineage=LineageConfig(sample_every=50)
        )
        assert bare.lineage is None
        assert traced.lineage is not None
        assert (
            bare_cluster.metrics.completed == traced_cluster.metrics.completed
        )
        assert (
            bare_cluster.metrics.control_messages
            == traced_cluster.metrics.control_messages
        )
        np.testing.assert_array_equal(
            bare.scheduler.c_hat, traced.scheduler.c_hat
        )

    def test_slo_evaluated(self):
        stream = make_stream(m=2000)
        _, grouping = run_traced_topology(
            stream,
            lineage=LineageConfig(
                sample_every=50,
                slos=(SLOConfig("p50-tight", latency_ms=0.001, percentile=50.0),),
            ),
        )
        (slo,) = grouping.lineage.slo_status()
        # sub-microsecond target: everything violates, burn rate >> 1
        assert slo["met"] is False
        assert slo["burn_rate"] > 1.0

    def test_prebuilt_tracer_passes_through(self):
        stream = make_stream(m=1000)
        tracer = LineageTracer(LineageConfig(sample_every=30))
        _, grouping = run_traced_topology(stream, lineage=tracer)
        assert grouping.lineage is tracer
        assert tracer.report()["samples_total"] > 0

    def test_single_source_grouping_is_the_one_shard_coordinator(self):
        """``POSGShuffleGrouping`` is shard 0 of a one-source coordinator:
        same completions, control traffic and observer reports."""
        stream = make_stream(m=3000)

        def observed(make_grouping):
            return run_traced_topology(
                stream, make_grouping=make_grouping,
                lineage=LineageConfig(sample_every=16),
                audit=AuditConfig(sample_every=16),
                flight=FlightRecorderConfig(sample_every=16),
            )

        coordinators = []

        def shard_zero(**keywords):
            coordinators.append(MultiSourcePOSGCoordinator(1, **keywords))
            return coordinators[0].shard(0)

        single_cluster, single = observed(POSGShuffleGrouping)
        sharded_cluster, _ = observed(shard_zero)
        (coordinator,) = coordinators
        ours, theirs = single_cluster.metrics, sharded_cluster.metrics
        np.testing.assert_array_equal(
            ours.completion_latencies(), theirs.completion_latencies()
        )
        assert ours.completed_ids() == theirs.completed_ids()
        assert ours.control_bits == theirs.control_bits > 0
        assert ours.control_messages == theirs.control_messages
        assert ours.timed_out == theirs.timed_out
        assert single.scheduler.stats() == coordinator.scheduler.stats()
        assert single.audit.report() == coordinator.audit.report()
        assert single.flight.timelines() == coordinator.flight.timelines()
        assert single.flight.report() == coordinator.flight.report()
        assert single.lineage.timelines() == coordinator.lineage.timelines()
        assert single.lineage.report() == coordinator.lineage.report()
        assert single.audit.samples > 100 and single.lineage.spans()

    def test_rejects_wrong_lineage_type(self):
        with pytest.raises(TypeError, match="lineage"):
            POSGShuffleGrouping(lineage="span chain")
