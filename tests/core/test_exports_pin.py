"""sha256 pins of everything the scheduler and the trackers export.

One telemetry-instrumented faulted run at s = 1 (``POSGGrouping``) and
one at s = 2 (``MultiSourcePOSGGrouping``, so the ``scheduler`` and
``shard`` labels appear), each with a :class:`RecoveryConfig` armed and a
:class:`FaultPlan` that drops, reorders and crashes.  Pinned:

- every scheduler's and every tracker's ``stats()``, key order included;
- ``registry.snapshot()`` as a dict (order-free);
- the sorted lines of ``registry.to_prometheus()`` (family order free);
- the tracer's event stream, field order included.

A change to a counter's key, value, metric name, kind, help text or
label set moves one of these digests.
"""

import hashlib

import numpy as np
import pytest

from repro.core.config import POSGConfig, RecoveryConfig
from repro.core.grouping import POSGGrouping
from repro.core.multisource import MultiSourcePOSGGrouping
from repro.faults import CrashFault, FaultPlan, MessageFaults
from repro.simulator.run import simulate_stream
from repro.telemetry.recorder import TelemetryRecorder
from repro.workloads.synthetic import default_stream

M = 12_000
K = 4

PINS = {
    1: {
        "stats": "9bab18e57bda45ac7348f89c812da2a49ae5c9d5e89e9dbdf728cbe2ea857678",
        "snapshot": "df348de50882c83acd4290d606781e1d3cc83549cf009834bb077b53ec15cfde",
        "prometheus": "2dfad1c7b886aebb66aada3f619d1765f4de2a7203e856bd3ad9d1f4950bee9f",
        "events": "ed5c0ef8ab8aa60e0624372d7a2d7889c6182f22f24ecb3eb603a01f6bba1ab2",
    },
    2: {
        "stats": "6ad819086682d06f0ab037f3884acd2ce880c3f390aae8f08a5b9e859a8fbf66",
        "snapshot": "99273aa63336565fe06b7424460faefe561bf164d9fec3097c48876962d1f9ae",
        "prometheus": "16a257894079eb51b44954484e7ccfd5476c9dc47ef03ab488664221566de6fb",
        "events": "55611b383fbf1a741893fc7780283b38d959033e25103ad0b2625774003da893",
    },
}


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def faulted_run(sources: int):
    stream = default_stream(seed=3, m=M)
    config = POSGConfig(
        window_size=128,
        mu=0.3,
        recovery=RecoveryConfig(
            sync_timeout=200,
            sync_timeout_max=400,
            sync_max_retries=2,
            staleness_limit=3_000,
            rebroadcast_windows=4,
        ),
    )
    plan = FaultPlan(
        matrices=MessageFaults(drop=0.05),
        sync_requests=MessageFaults(drop=0.05),
        sync_replies=MessageFaults(drop=0.1, reorder=0.3),
        crashes=(
            CrashFault(
                instance=1, at_ms=float(stream.arrivals[M // 2]), outage_ms=200.0
            ),
        ),
        seed=11,
    )
    recorder = TelemetryRecorder()
    if sources == 1:
        policy = POSGGrouping(config, telemetry=recorder)
    else:
        policy = MultiSourcePOSGGrouping(sources, config, telemetry=recorder)
    simulate_stream(
        stream, policy, k=K, rng=np.random.default_rng(2), faults=plan,
        telemetry=recorder,
    )
    return policy, recorder


def exports(sources: int) -> dict[str, str]:
    policy, recorder = faulted_run(sources)
    stats = [scheduler.stats() for scheduler in policy.schedulers]
    stats += [policy.tracker(instance).stats() for instance in range(K)]
    registry = recorder.registry
    return {
        "stats": digest([list(entry.items()) for entry in stats]),
        "snapshot": digest(sorted(registry.snapshot().items())),
        "prometheus": digest(sorted(registry.to_prometheus().splitlines())),
        "events": digest([list(event.items()) for event in recorder.tracer.events()]),
    }


@pytest.mark.parametrize("sources", sorted(PINS))
def test_exports_match_the_pins(sources):
    assert exports(sources) == PINS[sources]

