"""Lineage determinism across engines: bit-identity contracts.

Three contracts, following ``test_flightrecorder_equivalence.py``:

- enabling the tracer never perturbs the run: routing, completions,
  FSM transitions, and control traffic are bit-identical with the
  tracer on or off, in every engine;
- the recorded **timelines themselves** are bit-identical between the
  per-tuple reference engine (``chunk_size=0``) and the chunked engine
  — the determinism contract the latency experiment self-gates on;
- the same holds under an active fault plan, and every sampled span
  satisfies the exact latency partition
  ``scheduling_delay + queue_wait + service_time == completion``.
"""

import numpy as np
import pytest

from repro.core.config import POSGConfig
from repro.core.grouping import POSGGrouping, RoundRobinGrouping
from repro.core.multisource import MultiSourcePOSGGrouping
from repro.faults import CrashFault, FaultPlan, MessageFaults
from repro.simulator.run import simulate_stream
from repro.telemetry.lineage import LineageConfig, LineageTracer, SLOConfig
from repro.workloads.synthetic import default_stream

M = 8_000
K = 5
LINEAGE = LineageConfig(
    sample_every=97,
    slos=(SLOConfig("p99-under-10s", latency_ms=10_000.0, percentile=99.0),),
)


def config():
    return POSGConfig(window_size=128)


def chaos_plan():
    stream = default_stream(seed=0, m=M)
    return FaultPlan(
        matrices=MessageFaults(drop=0.05, delay=0.2, delay_ms=4.0),
        sync_requests=MessageFaults(drop=0.10),
        sync_replies=MessageFaults(drop=0.10, reorder=0.3),
        crashes=(
            CrashFault(
                instance=2,
                at_ms=float(stream.arrivals[M // 2]),
                outage_ms=400.0,
            ),
        ),
        seed=7,
    )


def run_sequential(sources, chunk_size, lineage=None, faults=None):
    stream = default_stream(seed=0, m=M)
    policy = (
        POSGGrouping(config())
        if sources is None
        else MultiSourcePOSGGrouping(sources, config())
    )
    return simulate_stream(
        stream,
        policy,
        k=K,
        rng=np.random.default_rng(1),
        chunk_size=chunk_size,
        lineage=lineage,
        faults=faults,
    )


def assert_run_identical(a, b):
    np.testing.assert_array_equal(a.stats.completions, b.stats.completions)
    np.testing.assert_array_equal(a.stats.assignments, b.stats.assignments)
    assert a.state_transitions == b.state_transitions
    assert a.control_messages == b.control_messages
    assert a.control_bits == b.control_bits


def assert_exact_partition(tracer):
    assert tracer.report()["samples_total"] > 0
    for span in tracer.spans():
        residual = (
            (span["completion_ms"] - span["scheduling_delay"])
            - span["queue_wait"]
        ) - span["service_time"]
        assert residual == 0.0


@pytest.fixture(scope="module")
def reference():
    """Per-tuple reference run with the tracer (s = 3)."""
    return run_sequential(3, 0, lineage=LINEAGE)


class TestLineageIsPureObserver:
    @pytest.mark.parametrize("chunk_size", [0, 2048])
    def test_sharded_routing_unchanged(self, chunk_size):
        bare = run_sequential(3, chunk_size)
        traced = run_sequential(3, chunk_size, lineage=LINEAGE)
        assert_run_identical(bare, traced)
        assert bare.lineage is None
        assert traced.lineage is not None
        assert traced.lineage.report()["samples_total"] > 0

    @pytest.mark.parametrize("chunk_size", [0, 2048])
    def test_single_scheduler_routing_unchanged(self, chunk_size):
        bare = run_sequential(None, chunk_size)
        traced = run_sequential(None, chunk_size, lineage=LINEAGE)
        assert_run_identical(bare, traced)
        assert traced.lineage.sources == 1


class TestCrossEngineTimelineIdentity:
    @pytest.mark.parametrize("chunk_size", [64, 1000, 2048, 4096])
    def test_chunked_matches_reference(self, reference, chunk_size):
        chunked = run_sequential(3, chunk_size, lineage=LINEAGE)
        assert_run_identical(reference, chunked)
        assert reference.lineage.timelines() == chunked.lineage.timelines()
        assert reference.lineage.report() == chunked.lineage.report()

    def test_single_scheduler_cross_engine(self):
        reference = run_sequential(None, 0, lineage=LINEAGE)
        chunked = run_sequential(None, 2048, lineage=LINEAGE)
        assert reference.lineage.timelines() == chunked.lineage.timelines()

    def test_round_robin_cross_engine(self):
        # policies without believed loads trace through the base hook
        stream = default_stream(seed=0, m=M)
        runs = [
            simulate_stream(
                stream,
                RoundRobinGrouping(),
                k=K,
                rng=np.random.default_rng(1),
                chunk_size=chunk_size,
                lineage=LINEAGE,
            )
            for chunk_size in (0, 2048)
        ]
        assert runs[0].lineage.timelines() == runs[1].lineage.timelines()
        # round-robin has no load estimate: believed is empty
        assert all(r[2] == () for r in runs[0].lineage.records())

    def test_exact_partition_every_span(self, reference):
        assert_exact_partition(reference.lineage)

    def test_coprime_stride_samples_every_shard(self, reference):
        for shard in reference.lineage.report()["per_shard"]:
            assert shard["samples"] > 0


class TestFaultedTimelineIdentity:
    @pytest.fixture(scope="class")
    def faulted_reference(self):
        return run_sequential(3, 0, lineage=LINEAGE, faults=chaos_plan())

    def test_chunked_matches_reference(self, faulted_reference):
        chunked = run_sequential(
            3, 2048, lineage=LINEAGE, faults=chaos_plan()
        )
        assert_run_identical(faulted_reference, chunked)
        assert (
            faulted_reference.lineage.timelines()
            == chunked.lineage.timelines()
        )

    def test_exact_partition_under_faults(self, faulted_reference):
        assert_exact_partition(faulted_reference.lineage)


class TestArgumentResolution:
    def test_rejects_wrong_lineage_type(self):
        stream = default_stream(seed=0, m=64)
        with pytest.raises(TypeError, match="lineage"):
            simulate_stream(
                stream,
                POSGGrouping(),
                k=K,
                rng=np.random.default_rng(1),
                lineage="span chain",
            )

    def test_prebuilt_tracer_passes_through(self):
        tracer = LineageTracer(LINEAGE)
        result = run_sequential(2, 2048, lineage=tracer)
        assert result.lineage is tracer
        assert tracer.sources == 2
