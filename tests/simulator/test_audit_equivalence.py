"""Audit sampling through the simulator engines: bit-identity contracts.

Three contracts, in increasing strength:

- enabling the audit never perturbs the run: routing, completions, FSM
  transitions, and control traffic are bit-identical with the audit on
  or off, in both engines;
- the audit *report itself* is bit-identical between the per-tuple
  reference engine (``chunk_size=0``) and the chunked engine — the
  chunked engine samples inside its segment loop, and matrices are
  frozen inside control-quiet segments, so the estimates it reads match
  per-tuple order exactly;
- the same holds under an active fault plan (crashes and emitted
  messages end segments; the per-tuple step samples inline).
"""

import numpy as np
import pytest

from repro.core.config import POSGConfig, RecoveryConfig
from repro.core.grouping import POSGGrouping, RoundRobinGrouping
from repro.faults import CrashFault, FaultPlan, MessageFaults
from repro.simulator.run import simulate_stream
from repro.telemetry.audit import AuditConfig, EstimatorAudit
from repro.workloads.synthetic import default_stream

M = 12_000
K = 5
AUDIT = AuditConfig(sample_every=64, segment_boundaries=(M // 3, 2 * M // 3))


def run(chunk_size, audit=None, faults=None, config=None, seed=0):
    stream = default_stream(seed=seed, m=M)
    return simulate_stream(
        stream,
        POSGGrouping(config or POSGConfig(window_size=256)),
        k=K,
        rng=np.random.default_rng(seed + 1),
        chunk_size=chunk_size,
        audit=audit,
        faults=faults,
    )


def recovery_config():
    return POSGConfig(
        window_size=256,
        recovery=RecoveryConfig(sync_timeout=256, staleness_limit=4096),
    )


def chaos_plan():
    stream = default_stream(seed=0, m=M)
    return FaultPlan(
        sync_requests=MessageFaults(drop=0.10),
        sync_replies=MessageFaults(drop=0.10),
        crashes=(
            CrashFault(
                instance=2,
                at_ms=float(stream.arrivals[2 * M // 3]),
                outage_ms=500.0,
            ),
        ),
        seed=7,
    )


def assert_run_identical(a, b):
    np.testing.assert_array_equal(a.stats.completions, b.stats.completions)
    np.testing.assert_array_equal(a.stats.assignments, b.stats.assignments)
    assert a.state_transitions == b.state_transitions
    assert a.control_messages == b.control_messages
    assert a.control_bits == b.control_bits


class TestAuditIsPureObserver:
    @pytest.mark.parametrize("chunk_size", [0, 2048])
    def test_routing_unchanged_by_audit(self, chunk_size):
        bare = run(chunk_size)
        audited = run(chunk_size, audit=AUDIT)
        assert_run_identical(bare, audited)
        assert bare.audit is None
        assert audited.audit is not None
        assert audited.audit.samples > 0

    def test_same_seed_same_report(self):
        first = run(2048, audit=AUDIT)
        second = run(2048, audit=AUDIT)
        assert first.audit.report() == second.audit.report()


class TestCrossEngineAuditIdentity:
    def test_default_config(self):
        reference = run(0, audit=AuditConfig(sample_every=64))
        chunked = run(2048, audit=AuditConfig(sample_every=64))
        assert_run_identical(reference, chunked)
        assert reference.audit.report() == chunked.audit.report()

    def test_segmented_config_across_chunk_sizes(self):
        reports = []
        for chunk in (0, 64, 1000, 4096):
            reports.append(run(chunk, audit=AUDIT).audit.report())
        for other in reports[1:]:
            assert reports[0] == other
        assert reports[0]["samples"] > 0
        assert len(reports[0]["segments"]) == 3

    def test_faulted_run_audit_identity(self):
        plan = chaos_plan()
        config = recovery_config()
        reference = run(0, audit=AUDIT, faults=plan, config=config)
        chunked = run(2048, audit=AUDIT, faults=plan, config=config)
        assert_run_identical(reference, chunked)
        assert reference.audit.report() == chunked.audit.report()

    def test_paper_defaults_audit_identity(self):
        audit = AuditConfig(sample_every=128)
        reference = run(0, audit=audit, config=POSGConfig.paper_defaults())
        chunked = run(2048, audit=audit, config=POSGConfig.paper_defaults())
        assert reference.audit.report() == chunked.audit.report()


class TestArgumentResolution:
    def test_audit_config_needs_scheduler_policy(self):
        stream = default_stream(seed=0, m=64)
        with pytest.raises(ValueError, match="scheduler"):
            simulate_stream(
                stream,
                RoundRobinGrouping(),
                k=K,
                rng=np.random.default_rng(1),
                audit=AuditConfig(),
            )

    def test_rejects_wrong_audit_type(self):
        stream = default_stream(seed=0, m=64)
        with pytest.raises(TypeError, match="audit"):
            simulate_stream(
                stream,
                POSGGrouping(),
                k=K,
                rng=np.random.default_rng(1),
                audit="yes please",
            )

    def test_prebuilt_audit_passes_through(self):
        # a pre-built auditor is used untouched — here bound to its own
        # estimator (the engine only ever calls ``observe`` on it)
        class ConstantEstimator:
            def estimate(self, item, instance):
                return 1.0

        stream = default_stream(seed=0, m=2048)
        audit = EstimatorAudit(ConstantEstimator(), AuditConfig(sample_every=32))
        result = simulate_stream(
            stream,
            POSGGrouping(POSGConfig(window_size=64, rows=2, cols=16)),
            k=3,
            rng=np.random.default_rng(1),
            audit=audit,
        )
        assert result.audit is audit
        assert audit.samples == 2048 // 32
