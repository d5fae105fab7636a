"""Deferred instance folds on the Storm layer equal per-report folds.

Each bolt task's ``InstanceTracker`` records execution reports and
folds its sketches when a window closes.  The reference is a test-local
subclass whose ``on_execution`` reads the tracker's matrices after every
report, which folds each one as it arrives.  Each pair of runs below
(deferred, per report) must agree on the run digest, on the bytes of
every shipped (F, W) pair, on every scheduler's and tracker's end-of-run
stats and on the trackers' final matrices.  Folds are counted by
wrapping ``FWPair.fold``.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.matrices import FWPair
from repro.core.messages import MatricesMessage
from repro.storm.cluster import ClusterConfig, LocalCluster
from repro.storm.components import STREAM_SPOUT_FIELDS, StreamSpout, WorkBolt
from repro.storm.posg_grouping import POSGShuffleGrouping
from repro.storm.topology import TopologyBuilder
from repro.workloads.twitter import TwitterDatasetSpec, generate_twitter_stream
from tests.storm.test_golden_outputs import CONFIG, K, cluster_digest

M = 3000


class PerReportGrouping(POSGShuffleGrouping):
    """Folds every execution report as it arrives: the reference."""

    def on_execution(self, task, tup, duration):
        messages = super().on_execution(task, tup, duration)
        self.policy.tracker(task).matrices
        return messages


@pytest.fixture(scope="module")
def stream():
    return generate_twitter_stream(
        TwitterDatasetSpec(m=M, k=K), np.random.default_rng(0)
    )


@pytest.fixture
def folds(monkeypatch):
    """Every ``FWPair.fold`` call's batch length, in order."""
    lengths = []
    fold = FWPair.fold

    def counting(pair, items, times):
        lengths.append(len(items))
        fold(pair, items, times)

    monkeypatch.setattr(FWPair, "fold", counting)
    return lengths


def run(stream, config, grouping_class, folds, cluster_config=None):
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
    shipped = []
    inner = grouping.on_execution

    def on_execution(task, tup, duration):
        messages = inner(task, tup, duration)
        shipped.extend(
            (
                message.instance,
                message.generation,
                message.tuples_observed,
                message.matrices.freq.matrix.tobytes(),
                message.matrices.work.matrix.tobytes(),
            )
            for message in messages
            if isinstance(message, MatricesMessage)
        )
        return messages

    grouping.on_execution = on_execution
    cluster.submit(builder.build())
    del folds[:]
    final = cluster.run()
    policy = grouping.policy
    trackers = [policy.tracker(task) for task in range(policy.k)]
    record = {
        "digest": cluster_digest(cluster, final),
        "shipped": shipped,
        "schedulers": [scheduler.stats() for scheduler in policy.schedulers],
        "trackers": [tracker.stats() for tracker in trackers],
        "folds": len(folds),
    }
    record["matrices"] = [
        (t.matrices.freq.matrix.tobytes(), t.matrices.work.matrix.tobytes())
        for t in trackers
    ]
    return record


def assert_same_folds(stream, config, folds, **kwargs):
    deferred = run(stream, config, POSGShuffleGrouping, folds, **kwargs)
    per_report = run(stream, config, PerReportGrouping, folds, **kwargs)
    for key in ("digest", "shipped", "schedulers", "trackers", "matrices"):
        assert deferred[key] == per_report[key], key
    # the reference folds each report on its own; the deferred run once
    # per window closed (no task restarts in these runs)
    assert per_report["folds"] == M
    windows = sum(
        t["tuples_executed"] // config.window_size for t in deferred["trackers"]
    )
    assert deferred["folds"] == windows
    return deferred


@pytest.mark.parametrize("window_size", [1, 2, 32, 128])
def test_every_window_size(stream, window_size, folds):
    config = dataclasses.replace(CONFIG, window_size=window_size)
    deferred = assert_same_folds(stream, config, folds)
    assert sum(t["tuples_executed"] for t in deferred["trackers"]) == M
    if window_size <= 32:
        assert deferred["shipped"]
    if window_size >= 32:
        # sync rounds completed: their replies left with the report that
        # carried the request, before the window's fold
        assert deferred["schedulers"][0]["sync_rounds_completed"] > 0
        assert deferred["folds"] < M // window_size + K


def test_max_spout_pending(stream, folds):
    assert_same_folds(
        stream, CONFIG, folds,
        cluster_config=ClusterConfig(seed=0, max_spout_pending=50),
    )
