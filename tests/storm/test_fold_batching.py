"""Deferred instance folds on the Storm layer equal per-tuple folds.

The POSG grouping keeps the execution reports of each task that change
nothing the scheduler sees and folds them per window through
``InstanceTracker.execute_batch``.  The reference is a test-local
subclass whose ``on_execution`` folds every report as it arrives.  Each
pair of runs below (deferred, per tuple) must agree on the run digest,
on the bytes of every shipped (F, W) pair, and on every scheduler's and
tracker's end-of-run stats.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.messages import MatricesMessage
from repro.storm.cluster import ClusterConfig, LocalCluster
from repro.storm.components import STREAM_SPOUT_FIELDS, StreamSpout, WorkBolt
from repro.storm.posg_grouping import POSGShuffleGrouping
from repro.storm.topology import TopologyBuilder
from repro.workloads.twitter import TwitterDatasetSpec, generate_twitter_stream
from tests.storm.test_golden_outputs import CONFIG, K, cluster_digest

M = 3000


class PerTupleGrouping(POSGShuffleGrouping):
    """Folds every execution report as it arrives: the reference."""

    def on_execution(self, task, tup, duration):
        return self.policy.tracker(task).execute(
            self._item(tup), duration, tup.sync_request
        )


@pytest.fixture(scope="module")
def stream():
    return generate_twitter_stream(
        TwitterDatasetSpec(m=M, k=K), np.random.default_rng(0)
    )


class Probe:
    """Logs what one run's folds produced: shipped pairs and batch folds."""

    def __init__(self, grouping):
        self.shipped = []
        self.batches = 0
        inner = grouping.on_execution

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

        grouping.on_execution = on_execution
        self._grouping = grouping

    def watch_batches(self):
        policy = self._grouping.policy
        for task in range(policy.k):
            tracker = policy.tracker(task)
            fold = tracker.execute_batch

            def execute_batch(items, times, fold=fold):
                self.batches += 1
                fold(items, times)

            tracker.execute_batch = execute_batch


def run(stream, config, grouping_class, cluster_config=None):
    grouping = grouping_class("value", config, np.random.default_rng(1))
    builder = TopologyBuilder()
    builder.set_spout(
        "source", lambda: StreamSpout(stream), output_fields=STREAM_SPOUT_FIELDS
    )
    builder.set_bolt(
        "worker", lambda: WorkBolt(stream.time_table), parallelism=K
    ).custom_grouping("source", grouping)
    cluster = LocalCluster(
        cluster_config if cluster_config is not None else ClusterConfig(seed=0)
    )
    probe = Probe(grouping)
    cluster.submit(builder.build())
    probe.watch_batches()
    final = cluster.run()
    policy = grouping.policy
    return {
        "digest": cluster_digest(cluster, final),
        "shipped": probe.shipped,
        "schedulers": [scheduler.stats() for scheduler in policy.schedulers],
        "trackers": [policy.tracker(task).stats() for task in range(policy.k)],
    }, probe


def assert_same_folds(stream, config, **kwargs):
    deferred, deferred_probe = run(stream, config, POSGShuffleGrouping, **kwargs)
    per_tuple, per_tuple_probe = run(stream, config, PerTupleGrouping, **kwargs)
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
    if window_size >= 32:
        # sync rounds completed: reports carrying a request took the
        # per-tuple step in the deferred run too
        assert deferred["schedulers"][0]["sync_rounds_completed"] > 0


def test_max_spout_pending(stream):
    assert_same_folds(
        stream, CONFIG, cluster_config=ClusterConfig(seed=0, max_spout_pending=50)
    )
