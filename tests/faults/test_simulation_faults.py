"""Fault injection wired through the simulator engines.

The contract under test:

- an *inactive* plan — empty, or scripting only process-level worker
  faults, which mean nothing to the sequential engines — leaves both
  engines bit-identical to a run with no plan at all, on the same loop;
- a *faulted* run is bit-identical across the per-tuple and chunked
  engines: the chunked engine routes it in segments that stop at every
  point where the injector or a recovery defence acts, so the injector
  draws in the same order (the generated cases live in
  ``tests/simulator/test_segment_router_equivalence.py``);
- the acceptance scenario — 10% control-plane loss plus one mid-run
  crash — never strands the recovery-enabled scheduler in WAIT_ALL: it
  re-enters RUN after the crash.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.config import POSGConfig, RecoveryConfig
from repro.core.grouping import POSGGrouping
from repro.core.scheduler import SchedulerState
from repro.faults import (
    CrashFault,
    FaultInjector,
    FaultPlan,
    MessageFaults,
)
from repro.simulator.run import simulate_stream
from repro.workloads.distributions import ZipfItems
from repro.workloads.synthetic import StreamSpec, generate_stream

M = 6_000
K = 5


def make_stream(seed=0, m=M):
    spec = StreamSpec(m=m, n=128, k=K)
    return generate_stream(ZipfItems(128, 1.0), spec, np.random.default_rng(seed))


def recovery_config(**overrides):
    recovery = RecoveryConfig(
        sync_timeout=overrides.pop("sync_timeout", 256),
        staleness_limit=overrides.pop("staleness_limit", 4096),
    )
    return POSGConfig(window_size=64, rows=2, cols=16, recovery=recovery,
                      **overrides)


def run(config, faults=None, chunk_size=2048, seed=0):
    stream = make_stream(seed=seed)
    policy = POSGGrouping(config)
    result = simulate_stream(
        stream,
        policy,
        k=K,
        rng=np.random.default_rng(seed + 1),
        chunk_size=chunk_size,
        faults=faults,
    )
    return result, policy


def chaos_plan(seed=7):
    stream = make_stream()
    return FaultPlan(
        matrices=MessageFaults(drop=0.10),
        sync_requests=MessageFaults(drop=0.10),
        sync_replies=MessageFaults(drop=0.10),
        crashes=(CrashFault(instance=2,
                            at_ms=float(stream.arrivals[2 * M // 3]),
                            outage_ms=500.0),),
        seed=seed,
    )


def assert_identical(a, b):
    np.testing.assert_array_equal(a.stats.completions, b.stats.completions)
    np.testing.assert_array_equal(a.stats.assignments, b.stats.assignments)
    assert a.state_transitions == b.state_transitions
    assert a.control_messages == b.control_messages
    assert a.control_bits == b.control_bits


class TestDisabledPlanIdentity:
    @pytest.mark.parametrize("chunk_size", [0, 2048])
    def test_inactive_plan_equals_no_plan(self, chunk_size):
        config = POSGConfig(window_size=64, rows=2, cols=16)
        bare, _ = run(config, faults=None, chunk_size=chunk_size)
        planned, _ = run(config, faults=FaultPlan(), chunk_size=chunk_size)
        assert_identical(bare, planned)
        assert planned.faults is None

    def test_recovery_without_faults_is_cross_engine_identical(self):
        config = recovery_config()
        reference, _ = run(config, chunk_size=0)
        chunked, _ = run(config, chunk_size=2048)
        assert_identical(reference, chunked)


class TestFaultedEquivalence:
    def test_faulted_run_is_cross_engine_identical(self):
        config = recovery_config()
        plan = chaos_plan()
        reference, _ = run(config, faults=plan, chunk_size=0)
        chunked, _ = run(config, faults=plan, chunk_size=2048)
        assert_identical(reference, chunked)
        assert reference.faults.report() == chunked.faults.report()

    def test_same_plan_same_seed_reproduces(self):
        config = recovery_config()
        plan = chaos_plan()
        first, _ = run(config, faults=plan)
        second, _ = run(config, faults=plan)
        assert_identical(first, second)

    def test_injector_instance_accepted(self):
        config = recovery_config()
        injector = FaultInjector(chaos_plan(), k=K)
        result, _ = run(config, faults=injector)
        assert result.faults is injector

    def test_wrong_faults_type_rejected(self):
        config = recovery_config()
        stream = make_stream()
        with pytest.raises(TypeError, match="faults"):
            simulate_stream(stream, POSGGrouping(config), k=K,
                            rng=np.random.default_rng(1), faults="oops")


class TestCrashSemantics:
    def test_crash_wipes_tracker_and_bumps_generation(self):
        config = recovery_config()
        plan = FaultPlan(crashes=(CrashFault(instance=1, at_ms=1.0,
                                             outage_ms=0.0),))
        _, policy = run(config, faults=plan)
        tracker = policy.tracker(1)
        assert tracker.restarts == 1
        assert tracker.generation == 1

    def test_outage_pauses_the_instance(self):
        config = POSGConfig(window_size=64, rows=2, cols=16)
        quiet, _ = run(config)
        crashed, _ = run(
            config,
            faults=FaultPlan(crashes=(CrashFault(instance=0, at_ms=0.0,
                                                 outage_ms=10_000.0),)),
        )
        mask = crashed.stats.assignments == 0
        assert (crashed.stats.completions[mask].mean()
                > quiet.stats.completions[quiet.stats.assignments == 0].mean())


class TestAcceptanceScenario:
    def test_recovers_to_run_under_loss_and_crash(self):
        config = recovery_config()
        result, policy = run(config, faults=chaos_plan())
        scheduler = policy.scheduler
        # The scheduler must re-enter RUN after the crash point; the very
        # last sync round may legitimately still be in flight when the
        # stream ends, so the *final* state is not the criterion.
        run_entries = [index for index, state in result.state_transitions
                       if state is SchedulerState.RUN]
        assert run_entries and run_entries[-1] > 2 * M // 3
        assert scheduler.restarts_detected >= 1
        injected = result.faults.report()["injected"]
        assert sum(injected["dropped"].values()) > 0
        assert injected["crashes"] == 1
        assert injected["restarts"] == 1
        # the whole scenario rode the segment router: the crash and every
        # defence that acted each ended exactly one segment
        engine = result.engine
        assert engine["path"] == "segment"
        assert engine["cuts"]["crash"] == 1
        acted = (
            scheduler.sync_retransmits
            + scheduler.sync_rounds_abandoned
            + scheduler.watchdog_fallbacks
        )
        assert acted > 0 and engine["cuts"]["defence"] == acted
        assert engine["fallback_tuples"] < M // 10

    def test_degradation_is_reported_against_fault_free(self):
        config = recovery_config()
        clean, _ = run(config)
        chaotic, _ = run(config, faults=chaos_plan())
        ratio = (chaotic.stats.average_completion_time
                 / clean.stats.average_completion_time)
        assert np.isfinite(ratio) and ratio > 0
