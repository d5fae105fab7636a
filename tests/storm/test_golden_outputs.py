"""Golden pins for the Storm layer and the event kernel it shares.

Every digest below was recorded at commit e58f616 (the parent of the
event-kernel rewrite) and covers everything a run of the engine reports:
completion latencies and ids, per-task execution counts, control
messages and bits, timeouts, failures, the final virtual time and the
number of events the kernel executed.  A change to the order in which
events fire, to an RNG stream (ack ids, hash families) or to
the arithmetic of an estimate moves at least one of them.

``GOLDEN_STATS`` was recorded at commit fe56ea1, while execution reports
were still folded one tuple at a time.  It pins what the run digests do
not reach: the end-of-run stats of every scheduler and instance tracker
of each POSG scenario, so a fold left pending at shutdown shows.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.core.config import POSGConfig
from repro.core.grouping import POSGGrouping
from repro.simulator.topology import StageTopology
from repro.storm.cluster import ClusterConfig, LocalCluster
from repro.storm.components import (
    STREAM_SPOUT_FIELDS,
    ForwardingBolt,
    StreamSpout,
    WorkBolt,
)
from repro.storm.grouping import ShuffleGrouping
from repro.storm.posg_grouping import POSGShuffleGrouping
from repro.storm.topology import TopologyBuilder
from repro.workloads.twitter import TwitterDatasetSpec, generate_twitter_stream

K = 5
M = 4000
#: Figure 12's sketch and estimate settings, with a window and tolerance
#: small enough that 4000 tuples see ~40 matrices and several sync rounds
#: (the figure's own N = 128 never leaves ROUND_ROBIN on a stream this short)
CONFIG = POSGConfig(
    window_size=32, mu=0.5, rows=4, cols=54,
    merge_matrices=True, pooled_estimates=True,
)
#: ASSG under back-to-back arrivals queues past a 40 ms timeout: trees time
#: out and the sweep (every 10 ms) fails them
TIGHT_TIMEOUT = ClusterConfig(
    seed=0, message_timeout=40.0, timeout_sweep_interval=10.0
)


@pytest.fixture(scope="module")
def stream():
    return generate_twitter_stream(
        TwitterDatasetSpec(m=M, k=K), np.random.default_rng(0)
    )


def posg(config=CONFIG):
    return POSGShuffleGrouping("value", config, np.random.default_rng(1))


def digest(*parts) -> str:
    sha = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            sha.update(str(part.dtype).encode() + part.tobytes())
        else:
            sha.update(repr(part).encode())
        sha.update(b"|")
    return sha.hexdigest()


def cluster_digest(cluster, final, bolts=("worker",), parallelism=K) -> str:
    metrics = cluster.metrics
    return digest(
        metrics.completion_latencies(),
        metrics.completed_ids(),
        [metrics.task_execution_counts(name, parallelism) for name in bolts],
        metrics.control_messages,
        metrics.control_bits,
        metrics.timed_out,
        metrics.failed,
        final,
        cluster.sim.events_processed,
    )


def policy_stats_digest(policy) -> str:
    """sha256 of every scheduler's and every instance tracker's stats()."""
    return digest(
        [scheduler.stats() for scheduler in policy.schedulers],
        [policy._agents[task].tracker.stats() for task in sorted(policy._agents)],
    )


def single_stage(stream, grouping, config=None):
    builder = TopologyBuilder()
    builder.set_spout(
        "source", lambda: StreamSpout(stream), output_fields=STREAM_SPOUT_FIELDS
    )
    builder.set_bolt(
        "worker", lambda: WorkBolt(stream.time_table), parallelism=K
    ).custom_grouping("source", grouping)
    cluster = LocalCluster(config if config is not None else ClusterConfig(seed=0))
    cluster.submit(builder.build())
    return cluster, cluster.run()


def run_single_stage(stream, grouping, config=None):
    """The run's digest, and the POSG policy behind it (``None`` for ASSG)."""
    digest_ = cluster_digest(*single_stage(stream, grouping, config))
    return digest_, getattr(grouping, "policy", None)


def run_chain(stream):
    grouping = posg()
    builder = TopologyBuilder()
    builder.set_spout(
        "source", lambda: StreamSpout(stream), output_fields=STREAM_SPOUT_FIELDS
    )
    builder.set_bolt(
        "fwd", ForwardingBolt, parallelism=2, output_fields=STREAM_SPOUT_FIELDS
    ).shuffle_grouping("source")
    builder.set_bolt(
        "worker", lambda: WorkBolt(stream.time_table), parallelism=K
    ).custom_grouping("fwd", grouping)
    cluster = LocalCluster(ClusterConfig(seed=0))
    cluster.submit(builder.build())
    final = cluster.run()
    return digest(
        cluster_digest(cluster, final),
        cluster.metrics.task_execution_counts("fwd", 2),
    ), grouping.policy


def run_stage_topology(stream):
    policy = POSGGrouping(CONFIG)
    topology = StageTopology(
        K, policy, control_latency=1.0,
        rng=np.random.default_rng(1),
    )
    result = topology.run(stream)
    return digest(
        result.stats.completions,
        result.stats.assignments,
        [(index, state.value) for index, state in result.state_transitions],
        result.control_messages,
        result.control_bits,
        topology.sim.now,
        topology.sim.events_processed,
    ), policy


SCENARIOS = {
    "posg": lambda s: run_single_stage(s, posg()),
    # the paper's protocol: replace stored matrices, per-instance estimates
    "posg_unpooled": lambda s: run_single_stage(
        s,
        posg(dataclasses.replace(
            CONFIG, merge_matrices=False, pooled_estimates=False
        )),
    ),
    "assg": lambda s: run_single_stage(s, ShuffleGrouping()),
    "max_spout_pending": lambda s: run_single_stage(
        s, posg(), ClusterConfig(seed=0, max_spout_pending=50)
    ),
    "transfer_latency": lambda s: run_single_stage(
        s, posg(), ClusterConfig(seed=0, transfer_latency=0.5)
    ),
    "message_timeout": lambda s: run_single_stage(
        s, ShuffleGrouping(), TIGHT_TIMEOUT
    ),
    "forwarding_chain": run_chain,
    "stage_topology": run_stage_topology,
}

GOLDEN = {
    "assg": "3c5fd38ff2335c00173617a57b866a7822ad7c93b89328be1954a0dbc134119b",
    "forwarding_chain": "5d4f44d9d523035282d696d3ac09894315e1c6076842437b71ea56a6fe7d060e",
    "max_spout_pending": "202b4d43834181fad5561752347efcace0580c88c8110dc6d99155e5b444e75c",
    "message_timeout": "90f1243a253ecf973ab07b33386038d419bd49acaba0fc32672933b15cd00609",
    "posg": "ff74a028655c31aafd2872aad108be6b89fb67aca2b77594abb117490dbb6f0c",
    "posg_unpooled": "f6b7195148651851c152ed7aaccf67872b43adb0b1d726c18227e90b54f798bf",
    "stage_topology": "6b42ad124a0a2b3ba77ee044191462405c46c5f11eac47250305e0381afccf35",
    "transfer_latency": "cee8ac0bd67d9f71f8b342938102d8ccc36fa9d0d51cd1c65168023ed0e8cd2e",
}


#: end-of-run stats of every POSG scenario: the scheduler's counters and
#: each instance tracker's (tuples executed, C_op, matrices sent, window
#: position, ...), which the run digests above do not cover
GOLDEN_STATS = {
    "forwarding_chain": "0cfd879b034b94c68ae3a0533494fb6ff0aceff15be4f14630748b52b7381bcf",
    "max_spout_pending": "3e670e97fb92a53524b7e49f512a19342f31e4c79830a34d88f630307de0a66f",
    "posg": "0cfd879b034b94c68ae3a0533494fb6ff0aceff15be4f14630748b52b7381bcf",
    "posg_unpooled": "c9b0d42a452b54d20bca54517103fbb513a184539a498768afedbd222f385ac1",
    "stage_topology": "0cfd879b034b94c68ae3a0533494fb6ff0aceff15be4f14630748b52b7381bcf",
    "transfer_latency": "25377749256b5d980515eeb154e1d882169ff139c6444b7d1e9c3fe392d122f5",
}


@pytest.fixture(scope="module")
def runs(stream):
    """Each scenario's ``(digest, policy)``, run once per module."""
    cache = {}

    def run(name):
        if name not in cache:
            cache[name] = SCENARIOS[name](stream)
        return cache[name]

    return run


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_matches_recorded_digest(name, runs):
    assert runs(name)[0] == GOLDEN[name]


def test_stats_pins_cover_every_posg_scenario(runs):
    posg_scenarios = {name for name in SCENARIOS if runs(name)[1] is not None}
    assert posg_scenarios == set(GOLDEN_STATS)


@pytest.mark.parametrize("name", sorted(GOLDEN_STATS))
def test_matches_recorded_stats(name, runs):
    assert policy_stats_digest(runs(name)[1]) == GOLDEN_STATS[name]


def test_pinned_scenarios_exercise_what_they_name(stream, runs):
    """The pins must cover the sweep and a moving scheduler."""
    timed, _ = single_stage(stream, ShuffleGrouping(), TIGHT_TIMEOUT)
    assert timed.metrics.timed_out > 0
    assert timed.metrics.completed + timed.metrics.timed_out == stream.m
    policy = runs("posg")[1]
    assert policy.scheduler.stats()["sync_rounds_completed"] >= 2
