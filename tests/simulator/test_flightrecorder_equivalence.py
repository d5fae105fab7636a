"""Flight-recorder determinism across engines: bit-identity contracts.

Three contracts, following ``test_audit_equivalence.py``:

- enabling the flight recorder never perturbs the run: routing,
  completions, FSM transitions, and control traffic are bit-identical
  with the recorder on or off, in every engine;
- the recorded **timelines themselves** are bit-identical between the
  per-tuple reference engine (``chunk_size=0``) and the chunked engine;
- the same holds under an active fault plan.
"""

import numpy as np
import pytest

from repro.core.config import POSGConfig, RecoveryConfig
from repro.core.grouping import POSGGrouping
from repro.core.multisource import MultiSourcePOSGGrouping
from repro.faults import CrashFault, FaultPlan, MessageFaults
from repro.simulator.run import simulate_stream
from repro.telemetry.flightrecorder import FlightRecorder, FlightRecorderConfig
from repro.workloads.synthetic import default_stream

M = 8_000
K = 5
FLIGHT = FlightRecorderConfig(sample_every=97)


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


def sync_fault_plan():
    """Faults on the sync plane only — matrices always get through.

    Dropped matrices (or a crash delaying an instance's first window)
    would starve the FSM in ROUND_ROBIN forever — no retransmit exists
    for matrices and recovery timers only arm in WAIT_ALL — so the
    recovery-config test keeps the bootstrap reliable and stresses the
    request/reply path instead.
    """
    return FaultPlan(
        sync_requests=MessageFaults(drop=0.10),
        sync_replies=MessageFaults(drop=0.10, reorder=0.3),
        seed=7,
    )


def run_sequential(sources, chunk_size, flight=None, faults=None, cfg=None):
    stream = default_stream(seed=0, m=M)
    cfg = cfg or config()
    policy = (
        POSGGrouping(cfg)
        if sources is None
        else MultiSourcePOSGGrouping(sources, cfg)
    )
    return simulate_stream(
        stream,
        policy,
        k=K,
        rng=np.random.default_rng(1),
        chunk_size=chunk_size,
        flight=flight,
        faults=faults,
    )


def assert_run_identical(a, b):
    np.testing.assert_array_equal(a.stats.completions, b.stats.completions)
    np.testing.assert_array_equal(a.stats.assignments, b.stats.assignments)
    assert a.state_transitions == b.state_transitions
    assert a.control_messages == b.control_messages
    assert a.control_bits == b.control_bits


@pytest.fixture(scope="module")
def reference():
    """Per-tuple reference run with the recorder (s = 3)."""
    return run_sequential(3, 0, flight=FLIGHT)


class TestFlightIsPureObserver:
    @pytest.mark.parametrize("chunk_size", [0, 2048])
    def test_sharded_routing_unchanged(self, chunk_size):
        bare = run_sequential(3, chunk_size)
        flown = run_sequential(3, chunk_size, flight=FLIGHT)
        assert_run_identical(bare, flown)
        assert bare.flight is None
        assert flown.flight is not None
        assert flown.flight.report()["events_total"] > 0

    @pytest.mark.parametrize("chunk_size", [0, 2048])
    def test_single_scheduler_routing_unchanged(self, chunk_size):
        bare = run_sequential(None, chunk_size)
        flown = run_sequential(None, chunk_size, flight=FLIGHT)
        assert_run_identical(bare, flown)
        # a single-scheduler policy records as one shard
        assert flown.flight.sources == 1
        assert flown.flight.report()["per_shard"][0]["route_samples"] > 0


class TestCrossEngineTimelineIdentity:
    @pytest.mark.parametrize("chunk_size", [64, 1000, 2048, 4096])
    def test_chunked_matches_reference(self, reference, chunk_size):
        chunked = run_sequential(3, chunk_size, flight=FLIGHT)
        assert_run_identical(reference, chunked)
        assert reference.flight.timelines() == chunked.flight.timelines()
        assert reference.flight.report() == chunked.flight.report()

    def test_single_scheduler_cross_engine(self):
        reference = run_sequential(None, 0, flight=FLIGHT)
        chunked = run_sequential(None, 2048, flight=FLIGHT)
        assert reference.flight.timelines() == chunked.flight.timelines()

    def test_coprime_stride_samples_every_shard(self, reference):
        # sample_every=97 is coprime with s=3 already; with s=4 the
        # recorder keeps it (gcd(97, 4) = 1) and all shards get routes
        for shard in range(3):
            assert (
                reference.flight.report()["per_shard"][shard]["route_samples"]
                > 0
            )


class TestFaultedTimelineIdentity:
    @pytest.fixture(scope="class")
    def faulted_reference(self):
        return run_sequential(3, 0, flight=FLIGHT, faults=chaos_plan())

    def test_chunked_matches_reference(self, faulted_reference):
        chunked = run_sequential(3, 2048, flight=FLIGHT, faults=chaos_plan())
        assert_run_identical(faulted_reference, chunked)
        assert (
            faulted_reference.flight.timelines()
            == chunked.flight.timelines()
        )

    def test_control_starvation_is_visible(self, faulted_reference):
        # this plan drops matrices and no recovery is configured, so no
        # shard ever assembles all k matrices and no sync round starts;
        # the recorder makes that starvation legible per shard (partial
        # matrices, zero folds) while route sampling keeps going
        report = faulted_reference.flight.report()
        for shard in report["per_shard"]:
            assert 0 < shard["matrices"] < K
            assert shard["folds"] == 0
            assert shard["route_samples"] > 0

    def test_recovery_config_faulted_sync_identity(self):
        # with the self-healing scheduler and a sync-plane-only fault
        # plan the control plane survives: sync rounds complete and the
        # timelines stay bit-identical across the sequential engines
        cfg = POSGConfig(
            window_size=128,
            recovery=RecoveryConfig(sync_timeout=256, staleness_limit=4096),
        )
        reference = run_sequential(
            3, 0, flight=FLIGHT, faults=sync_fault_plan(), cfg=cfg
        )
        chunked = run_sequential(
            3, 2048, flight=FLIGHT, faults=sync_fault_plan(), cfg=cfg
        )
        assert_run_identical(reference, chunked)
        assert reference.flight.timelines() == chunked.flight.timelines()
        report = reference.flight.report()
        assert sum(s["sync_replies"] for s in report["per_shard"]) > 0
        assert sum(s["folds"] for s in report["per_shard"]) > 0


class TestArgumentResolution:
    def test_rejects_wrong_flight_type(self):
        stream = default_stream(seed=0, m=64)
        with pytest.raises(TypeError, match="flight"):
            simulate_stream(
                stream,
                POSGGrouping(),
                k=K,
                rng=np.random.default_rng(1),
                flight="black box",
            )

    def test_flight_needs_posg_family_policy(self):
        from repro.core.grouping import RoundRobinGrouping

        stream = default_stream(seed=0, m=64)
        with pytest.raises(ValueError, match="POSG-family"):
            simulate_stream(
                stream,
                RoundRobinGrouping(),
                k=K,
                rng=np.random.default_rng(1),
                flight=FlightRecorderConfig(),
            )

    def test_prebuilt_recorder_passes_through(self):
        flight = FlightRecorder(FLIGHT)
        result = run_sequential(2, 2048, flight=flight)
        assert result.flight is flight
        assert flight.sources == 2
