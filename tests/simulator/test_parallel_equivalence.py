"""Bit-identity of the multi-process parallel engine.

The acceptance contract of ``repro.simulator.parallel``: for fixed
seeds, :func:`simulate_stream_parallel` produces the *exact* run the
sequential per-tuple reference engine (``chunk_size=0``) produces —
completions, assignments, FSM transitions, control traffic, queue
samples, fault report and audit report — across every worker count,
shard count, and the fault/audit feature matrix.  Workers perform no
random draws, so the worker count can never change a result; these
tests sweep it anyway to catch layout/merge bugs that only appear when
shards split across processes.

Reference results are computed once per configuration (module-scoped
cache) — the sweep is workers x sources x faults x audit and the
sequential runs dominate the runtime.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.config import POSGConfig
from repro.core.grouping import POSGGrouping
from repro.core.multisource import MultiSourcePOSGGrouping
from repro.core.config import RecoveryConfig
from repro.faults import CrashFault, FaultPlan, MessageFaults, SlowdownFault
from repro.simulator.parallel import ShardArena, simulate_stream_parallel
from repro.simulator.run import simulate_stream
from repro.telemetry.audit import AuditConfig
from repro.telemetry.recorder import TelemetryRecorder
from repro.workloads.synthetic import default_stream

M = 8_000
K = 5
SAMPLE_EVERY = 97


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
                at_ms=float(stream.arrivals[2 * M // 3]),
                outage_ms=500.0,
            ),
        ),
        slowdowns=(
            SlowdownFault(
                instance=1,
                at_ms=float(stream.arrivals[M // 3]),
                duration_ms=2000.0,
                factor=3.0,
            ),
        ),
        seed=7,
    )


def run_reference(sources, faulted, audited):
    return simulate_stream(
        default_stream(seed=0, m=M),
        MultiSourcePOSGGrouping(sources, config()),
        k=K,
        rng=np.random.default_rng(1),
        chunk_size=0,
        sample_queues_every=SAMPLE_EVERY,
        faults=chaos_plan() if faulted else None,
        audit=AuditConfig(sample_every=64) if audited else None,
    )


def run_parallel(sources, workers, faulted, audited, **kwargs):
    return simulate_stream_parallel(
        default_stream(seed=0, m=M),
        MultiSourcePOSGGrouping(sources, config()),
        workers=workers,
        k=K,
        rng=np.random.default_rng(1),
        sample_queues_every=SAMPLE_EVERY,
        faults=chaos_plan() if faulted else None,
        audit=AuditConfig(sample_every=64) if audited else None,
        **kwargs,
    )


@pytest.fixture(scope="module")
def reference():
    cache = {}

    def get(sources, faulted=False, audited=False):
        key = (sources, faulted, audited)
        if key not in cache:
            cache[key] = run_reference(*key)
        return cache[key]

    return get


def assert_run_identical(a, b):
    np.testing.assert_array_equal(a.stats.completions, b.stats.completions)
    np.testing.assert_array_equal(a.stats.assignments, b.stats.assignments)
    assert a.state_transitions == b.state_transitions
    assert a.control_messages == b.control_messages
    assert a.control_bits == b.control_bits
    np.testing.assert_array_equal(a.queue_samples, b.queue_samples)
    np.testing.assert_array_equal(
        a.queue_sample_indices, b.queue_sample_indices
    )


class TestBitIdentity:
    @pytest.mark.parametrize("sources", [1, 2, 4, 8])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_matches_reference(self, reference, sources, workers):
        parallel = run_parallel(sources, workers, False, False)
        assert_run_identical(reference(sources), parallel)

    @pytest.mark.parametrize("sources", [1, 4])
    @pytest.mark.parametrize("workers", [1, 4])
    def test_matches_reference_under_faults(self, reference, sources, workers):
        parallel = run_parallel(sources, workers, True, False)
        ref = reference(sources, faulted=True)
        assert_run_identical(ref, parallel)
        assert ref.faults.report() == parallel.faults.report()

    @pytest.mark.parametrize("sources", [1, 4])
    @pytest.mark.parametrize("workers", [1, 4])
    def test_matches_reference_with_audit(self, reference, sources, workers):
        parallel = run_parallel(sources, workers, False, True)
        ref = reference(sources, audited=True)
        assert_run_identical(ref, parallel)
        assert ref.audit.report() == parallel.audit.report()

    def test_matches_reference_faults_and_audit(self, reference):
        parallel = run_parallel(4, 4, True, True)
        ref = reference(4, faulted=True, audited=True)
        assert_run_identical(ref, parallel)
        assert ref.faults.report() == parallel.faults.report()
        assert ref.audit.report() == parallel.audit.report()

    def test_chunk_size_sweep(self, reference):
        for chunk in (64, 1000, 4096):
            parallel = run_parallel(4, 2, False, False, chunk_size=chunk)
            assert_run_identical(reference(4), parallel)

    def test_matches_reference_at_per_instance_latencies(self):
        """Fixed per-instance data latencies and a control latency reach
        the parallel engine as the floats the reference adds per tuple."""
        latencies = {
            "data_latency": (0.0, 0.5, 3.0, 0.5, 1.0),
            "control_latency": 4.0,
        }
        ref = simulate_stream(
            default_stream(seed=0, m=M),
            MultiSourcePOSGGrouping(2, config()),
            k=K,
            rng=np.random.default_rng(1),
            chunk_size=0,
            sample_queues_every=SAMPLE_EVERY,
            **latencies,
        )
        assert_run_identical(ref, run_parallel(2, 2, False, False, **latencies))

    def test_spawn_start_method_matches(self, reference):
        parallel = run_parallel(2, 2, False, False, start_method="spawn")
        assert_run_identical(reference(2), parallel)
        assert parallel.parallel["start_method"] == "spawn"


class TestRunAccounting:
    def test_parallel_info_shape(self):
        result = run_parallel(4, 2, False, False)
        info = result.parallel
        assert info["workers"] == 2
        assert info["worker_shards"] == [[0, 2], [1, 3]]
        assert sum(info["worker_tuples"]) == M
        assert info["segments"] > 0
        # every shard spends exactly K tuples per SEND_ALL round
        assert info["fallback_tuples"] % K == 0
        assert info["discarded_speculative_tuples"] >= 0

    def test_workers_clamped_to_sources(self):
        result = run_parallel(2, 8, False, False)
        assert result.parallel["workers"] == 2

    def test_telemetry_records_run_and_parallel_counters(self):
        recorder = TelemetryRecorder()
        result = simulate_stream_parallel(
            default_stream(seed=0, m=M),
            MultiSourcePOSGGrouping(2, config(), telemetry=recorder),
            workers=2,
            k=K,
            rng=np.random.default_rng(1),
            telemetry=recorder,
        )
        snapshot = recorder.registry.snapshot()
        assert snapshot["sim_tuples_total"] == M
        assert (
            snapshot["sim_parallel_segments_total"]
            == result.parallel["segments"]
        )
        worker_totals = [
            value
            for key, value in snapshot.items()
            if key.startswith("sim_parallel_worker_tuples_total")
        ]
        assert sum(worker_totals) == M


class TestMemoryPerTuple:
    """Equal data latencies share one instance-arrival column: five
    instances at one non-zero latency cost one whole-stream float list
    (~32 B per tuple), not five."""

    M = 2**16
    LIMIT = 64  # bytes per tuple over the zero-latency run; 133 with a list each

    def peak(self, stream, data_latency) -> int:
        def run():
            return simulate_stream_parallel(
                stream,
                MultiSourcePOSGGrouping(2, POSGConfig.paper_defaults()),
                workers=1,
                k=K,
                rng=np.random.default_rng(1),
                data_latency=data_latency,
            )

        # the first call fills the process-wide caches
        run()
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_equal_latencies_share_one_column(self):
        stream = default_stream(seed=0, m=self.M)
        extra = self.peak(stream, 0.5) - self.peak(stream, 0.0)
        assert extra / self.M < self.LIMIT


class TestValidation:
    def test_rejects_non_multisource_policy(self):
        with pytest.raises(TypeError, match="MultiSourcePOSGGrouping"):
            simulate_stream_parallel(
                default_stream(seed=0, m=256), POSGGrouping(config()), k=K
            )

    def test_rejects_per_tuple_chunk_size(self):
        with pytest.raises(ValueError, match="chunk_size"):
            run_parallel(2, 2, False, False, chunk_size=0)

    def test_rejects_recovery_config(self):
        policy = MultiSourcePOSGGrouping(
            2, POSGConfig(window_size=128, recovery=RecoveryConfig())
        )
        with pytest.raises(ValueError, match="recovery"):
            simulate_stream_parallel(
                default_stream(seed=0, m=256), policy, k=K
            )

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError, match="workers"):
            run_parallel(2, 0, False, False)


class TestShardArenaLayout:
    def test_views_are_disjoint_and_attachable(self):
        arena = ShardArena(sources=3, k=5, rows=4, cols=54, m=100, cap=50)
        try:
            arena.items[:] = np.arange(100)
            arena.freq[2][4][:] = 7.0
            arena.work[0][0][:] = 3.0
            arena.c_hat[1][:] = np.arange(5)
            arena.out_est[2][:] = 1.5
            attached = ShardArena(
                3, 5, 4, 54, 100, 50, name=arena.name
            )
            try:
                np.testing.assert_array_equal(
                    attached.items, np.arange(100)
                )
                assert float(attached.freq[2][4][0, 0]) == 7.0
                # regions must not alias: freq write didn't leak anywhere
                assert float(attached.work[2][4][0, 0]) == 0.0
                assert float(attached.work[0][0][-1, -1]) == 3.0
                np.testing.assert_array_equal(
                    attached.c_hat[1], np.arange(5)
                )
                assert float(attached.out_est[2][-1]) == 1.5
            finally:
                attached.close()
        finally:
            arena.close()
            arena.unlink()
