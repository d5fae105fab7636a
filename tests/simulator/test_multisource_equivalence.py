"""Multi-source scheduling through the simulator engines.

The acceptance contracts of the sharded subsystem:

- ``sources=1`` is bit-identical to the single-scheduler
  :class:`POSGGrouping` path — assignments, completions, FSM
  transitions, control traffic, telemetry registry/trace, and the
  estimator-audit report all match exactly;
- for ``sources > 1`` the chunked engine is bit-identical to the
  per-tuple reference engine (``chunk_size=0``), with and without an
  active :class:`FaultPlan`;
- per-scheduler fault channels hit only the addressed shard.
"""

import numpy as np
import pytest

from repro.core.config import POSGConfig
from repro.core.grouping import POSGGrouping
from repro.core.multisource import MultiSourcePOSGGrouping
from repro.faults import CrashFault, FaultPlan, MessageFaults
from repro.simulator.run import simulate_stream
from repro.telemetry.audit import AuditConfig
from repro.telemetry.recorder import TelemetryRecorder
from repro.workloads.synthetic import default_stream

M = 12_000
K = 5


def config():
    return POSGConfig(window_size=256)


def run(policy, chunk_size, telemetry=None, faults=None, audit=None):
    stream = default_stream(seed=0, m=M)
    return simulate_stream(
        stream,
        policy,
        k=K,
        rng=np.random.default_rng(1),
        chunk_size=chunk_size,
        telemetry=telemetry,
        faults=faults,
        audit=audit,
    )


def chaos_plan(**overrides):
    stream = default_stream(seed=0, m=M)
    faults = dict(
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
        seed=7,
    )
    faults.update(overrides)
    return FaultPlan(**faults)


def assert_run_identical(a, b):
    np.testing.assert_array_equal(a.stats.completions, b.stats.completions)
    np.testing.assert_array_equal(a.stats.assignments, b.stats.assignments)
    assert a.state_transitions == b.state_transitions
    assert a.control_messages == b.control_messages
    assert a.control_bits == b.control_bits


class TestSingleSourceBitIdentity:
    @pytest.mark.parametrize("chunk_size", [0, 2048])
    def test_matches_single_scheduler_path(self, chunk_size):
        single = run(POSGGrouping(config()), chunk_size)
        sharded = run(MultiSourcePOSGGrouping(1, config()), chunk_size)
        assert_run_identical(single, sharded)
        assert (
            single.policy.scheduler.stats() == sharded.policy.scheduler.stats()
        )

    def test_telemetry_identical_to_single_scheduler(self):
        rec_single, rec_sharded = TelemetryRecorder(), TelemetryRecorder()
        run(
            POSGGrouping(config(), telemetry=rec_single),
            2048,
            telemetry=rec_single,
        )
        run(
            MultiSourcePOSGGrouping(1, config(), telemetry=rec_sharded),
            2048,
            telemetry=rec_sharded,
        )
        assert rec_single.registry.snapshot() == rec_sharded.registry.snapshot()
        assert (
            rec_single.registry.to_prometheus()
            == rec_sharded.registry.to_prometheus()
        )

        # the run_complete event carries the policy's *name* ("posg" vs
        # "posg_multisource") — the only allowed difference; every other
        # event field must match bit for bit
        def normalized(recorder):
            events = []
            for event in recorder.tracer.events():
                if event.get("kind") == "run_complete":
                    event = {
                        key: value
                        for key, value in event.items()
                        if key != "policy"
                    }
                events.append(event)
            return events

        assert normalized(rec_single) == normalized(rec_sharded)

    def test_audit_report_identical_to_single_scheduler(self):
        audit = AuditConfig(sample_every=64)
        single = run(POSGGrouping(config()), 2048, audit=audit)
        sharded = run(MultiSourcePOSGGrouping(1, config()), 2048, audit=audit)
        assert single.audit.report() == sharded.audit.report()

    def test_faulted_s1_matches_single_scheduler(self):
        plan = chaos_plan()
        single = run(POSGGrouping(config()), 0, faults=plan)
        sharded = run(MultiSourcePOSGGrouping(1, config()), 0, faults=plan)
        assert_run_identical(single, sharded)
        assert single.faults.report() == sharded.faults.report()


class TestCrossEngineIdentity:
    @pytest.mark.parametrize("sources", [2, 4, 8])
    def test_chunked_matches_reference(self, sources):
        reference = run(MultiSourcePOSGGrouping(sources, config()), 0)
        chunked = run(MultiSourcePOSGGrouping(sources, config()), 2048)
        assert_run_identical(reference, chunked)

    @pytest.mark.parametrize("sources", [2, 4])
    def test_chunked_matches_reference_under_faults(self, sources):
        plan = chaos_plan(
            source_sync_requests={0: MessageFaults(drop=0.5)},
            source_sync_replies={1: MessageFaults(drop=0.5)},
        )
        reference = run(MultiSourcePOSGGrouping(sources, config()), 0, faults=plan)
        chunked = run(MultiSourcePOSGGrouping(sources, config()), 2048, faults=plan)
        assert_run_identical(reference, chunked)
        assert reference.faults.report() == chunked.faults.report()

    def test_chunk_size_sweep(self):
        results = [
            run(MultiSourcePOSGGrouping(4, config()), chunk)
            for chunk in (0, 64, 1000, 4096)
        ]
        for other in results[1:]:
            assert_run_identical(results[0], other)

    def test_telemetry_identical_across_engines(self):
        def instrumented(chunk):
            recorder = TelemetryRecorder()
            run(
                MultiSourcePOSGGrouping(4, config(), telemetry=recorder),
                chunk,
                telemetry=recorder,
            )
            return recorder

        rec_ref = instrumented(0)
        rec_chunk = instrumented(2048)
        assert rec_ref.registry.snapshot() == rec_chunk.registry.snapshot()
        assert rec_ref.tracer.events() == rec_chunk.tracer.events()


class TestShardedProtocolLiveness:
    def test_every_shard_synchronizes(self):
        result = run(MultiSourcePOSGGrouping(4, config()), 2048)
        for scheduler in result.policy.schedulers:
            assert scheduler.sync_rounds_completed >= 1
        merged = result.policy.stats()
        assert merged["tuples_scheduled"] == M

    def test_audit_runs_against_merged_assignment(self):
        # the audit binds to shard 0, but matrices broadcast makes every
        # shard's estimates identical, so sampling the merged stream is
        # well defined; the report must be engine-independent too
        audit = AuditConfig(sample_every=64)
        reference = run(MultiSourcePOSGGrouping(4, config()), 0, audit=audit)
        chunked = run(MultiSourcePOSGGrouping(4, config()), 2048, audit=audit)
        assert reference.audit.samples == M // 64 + 1  # indices 0, 64, ...
        assert reference.audit.report() == chunked.audit.report()


class TestPerSchedulerFaultChannels:
    def test_reply_override_hits_only_addressed_shard(self):
        # drop ALL of shard 1's sync replies: shard 1 can never complete
        # a sync round while the other shards stay live
        plan = FaultPlan(
            source_sync_replies={1: MessageFaults(drop=1.0)}, seed=3
        )
        result = run(MultiSourcePOSGGrouping(3, config()), 2048, faults=plan)
        schedulers = result.policy.schedulers
        assert schedulers[0].sync_rounds_completed >= 1
        assert schedulers[2].sync_rounds_completed >= 1
        assert schedulers[1].sync_rounds_completed == 0
        dropped = result.faults.report()["injected"]["dropped"]
        assert dropped["sync_reply"] > 0

    def test_request_override_hits_only_addressed_shard(self):
        plan = FaultPlan(
            source_sync_requests={1: MessageFaults(drop=1.0)}, seed=3
        )
        result = run(MultiSourcePOSGGrouping(3, config()), 2048, faults=plan)
        schedulers = result.policy.schedulers
        assert schedulers[0].sync_rounds_completed >= 1
        assert schedulers[2].sync_rounds_completed >= 1
        assert schedulers[1].sync_rounds_completed == 0

    def test_override_plan_without_global_faults_is_active(self):
        plan = FaultPlan(source_sync_replies={0: MessageFaults(drop=0.5)})
        assert plan.active
        assert "source_sync_replies" in plan.summary()
