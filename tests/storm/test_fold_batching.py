"""Deferred instance folds on the Storm layer equal per-tuple folds.

With no audit or lineage tracer attached, the POSG grouping keeps the
execution reports of each task that change nothing the scheduler sees
and folds them per window through ``InstanceTracker.execute_batch``.
An estimator audit sampling once per 10**9 reports forces the per-tuple
path without changing routing: its one sample reads an estimate, and
estimates are pure.  Each pair of runs below (deferred, per tuple) must
agree on the run digest, on the bytes of every shipped (F, W) pair, and
on every scheduler's and tracker's end-of-run stats.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.messages import MatricesMessage
from repro.faults import CrashFault, FaultPlan
from repro.storm.cluster import ClusterConfig, LocalCluster
from repro.storm.components import (
    STREAM_SPOUT_FIELDS,
    ShardedStreamSpout,
    StreamSpout,
    WorkBolt,
)
from repro.storm.multisource import MultiSourcePOSGCoordinator
from repro.storm.posg_grouping import POSGShuffleGrouping
from repro.storm.topology import TopologyBuilder
from repro.telemetry.audit import AuditConfig
from repro.workloads.twitter import TwitterDatasetSpec, generate_twitter_stream
from tests.storm.test_golden_outputs import CONFIG, K, cluster_digest

M = 3000
#: samples report 0 only: the per-tuple path, routing untouched
PER_TUPLE = AuditConfig(sample_every=10**9)


@pytest.fixture(scope="module")
def stream():
    return generate_twitter_stream(
        TwitterDatasetSpec(m=M, k=K), np.random.default_rng(0)
    )


class Probe:
    """Logs what one run's folds produced: shipped pairs, batch folds and
    the deferred reports each crash found."""

    def __init__(self, coordinator, reporting):
        self.shipped = []
        self.batches = 0
        self.deferred_at_crash = []
        inner = reporting.on_execution

        def on_execution(task, tup, duration):
            messages = inner(task, tup, duration)
            for message in messages:
                if isinstance(message, MatricesMessage):
                    self.shipped.append((
                        message.instance,
                        message.generation,
                        message.tuples_observed,
                        message.matrices.freq.matrix.tobytes(),
                        message.matrices.work.matrix.tobytes(),
                    ))
            return messages

        reporting.on_execution = on_execution
        crash = coordinator._on_instance_crash

        def on_instance_crash(task):
            self.deferred_at_crash.append(len(coordinator._deferred[task][0]))
            crash(task)

        coordinator._on_instance_crash = on_instance_crash
        self._coordinator = coordinator

    def watch_batches(self):
        for agent in self._coordinator._agents.values():
            tracker = agent.tracker
            fold = tracker.execute_batch

            def execute_batch(items, times, fold=fold):
                self.batches += 1
                fold(items, times)

            tracker.execute_batch = execute_batch


def run(stream, config, audit, cluster_config=None, faults=None, sources=1):
    rng = np.random.default_rng(1)
    builder = TopologyBuilder()
    bolt = builder.set_bolt(
        "worker", lambda: WorkBolt(stream.time_table), parallelism=K
    )
    if sources == 1:
        grouping = POSGShuffleGrouping("value", config, rng, audit=audit)
        coordinator = grouping._coordinator
        builder.set_spout(
            "source", lambda: StreamSpout(stream), output_fields=STREAM_SPOUT_FIELDS
        )
        bolt.custom_grouping("source", grouping)
        reporting = grouping
    else:
        coordinator = MultiSourcePOSGCoordinator(
            sources, "value", config, rng, audit=audit
        )
        for shard in range(sources):
            builder.set_spout(
                f"source{shard}",
                (lambda i: lambda: ShardedStreamSpout(stream, i, sources))(shard),
                output_fields=STREAM_SPOUT_FIELDS,
            )
            grouping = coordinator.shard(shard)
            bolt.custom_grouping(f"source{shard}", grouping)
            if shard == 0:
                reporting = grouping
    cluster = LocalCluster(
        cluster_config if cluster_config is not None else ClusterConfig(seed=0),
        faults=faults,
    )
    probe = Probe(coordinator, reporting)
    cluster.submit(builder.build())
    probe.watch_batches()
    final = cluster.run()
    policy = coordinator.policy
    return {
        "digest": cluster_digest(cluster, final),
        "shipped": probe.shipped,
        "schedulers": [scheduler.stats() for scheduler in policy.schedulers],
        "trackers": [
            policy._agents[task].tracker.stats() for task in sorted(policy._agents)
        ],
    }, probe


def assert_same_folds(stream, config, **kwargs):
    deferred, deferred_probe = run(stream, config, None, **kwargs)
    per_tuple, per_tuple_probe = run(stream, config, PER_TUPLE, **kwargs)
    assert deferred["digest"] == per_tuple["digest"]
    assert deferred["shipped"] == per_tuple["shipped"]
    assert deferred["schedulers"] == per_tuple["schedulers"]
    assert deferred["trackers"] == per_tuple["trackers"]
    assert per_tuple_probe.batches == 0
    return deferred, deferred_probe


@pytest.mark.parametrize("window_size", [1, 2, 32, 128])
def test_every_window_size(stream, window_size):
    config = dataclasses.replace(CONFIG, window_size=window_size)
    deferred, probe = assert_same_folds(stream, config)
    assert sum(t["tuples_executed"] for t in deferred["trackers"]) == M
    if window_size == 1:
        # every report closes a window: nothing is ever deferred
        assert probe.batches == 0
    else:
        assert probe.batches > 0
    if window_size <= 32:
        assert deferred["shipped"]


def test_a_crash_mid_window(stream):
    crash = CrashFault(
        instance=1, at_ms=float(stream.arrivals[M // 2]), outage_ms=200.0
    )
    deferred, probe = assert_same_folds(
        stream, CONFIG, faults=FaultPlan(crashes=(crash,), seed=7)
    )
    # the crash found reports waiting, which must count before the restart
    assert probe.deferred_at_crash and probe.deferred_at_crash[0] > 0
    assert deferred["trackers"][1]["restarts"] == 1


def test_max_spout_pending(stream):
    assert_same_folds(
        stream, CONFIG, cluster_config=ClusterConfig(seed=0, max_spout_pending=50)
    )


def test_two_upstream_shards(stream):
    deferred, probe = assert_same_folds(stream, CONFIG, sources=2)
    assert probe.batches > 0
    assert deferred["shipped"]
