"""POSG as a Storm ``CustomStreamGrouping`` (the paper's prototype).

Figure 1's deployment: the grouping runs inside the upstream component's
output path (our scheduler-side FSM); every downstream bolt task hosts an
:class:`~repro.core.instance.InstanceTracker` (the instance-side FSM)
whose control messages travel back to the grouping over the cluster's
control plane with latency.

The piggy-backing of sync requests (Figure 1.D) uses the tuple's
``sync_request`` slot: :meth:`choose_tasks` stores the request on the
prototype tuple and the cluster attaches it to the chosen task's copy.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import POSGConfig
from repro.core.grouping import POSGGrouping
from repro.core.scheduler import POSGScheduler, SchedulerState
from repro.storm.multisource import MultiSourcePOSGCoordinator, _ShardGrouping
from repro.telemetry.audit import AuditConfig, EstimatorAudit
from repro.telemetry.flightrecorder import FlightRecorder, FlightRecorderConfig
from repro.telemetry.lineage import LineageConfig, LineageTracer


class POSGShuffleGrouping(_ShardGrouping):
    """Drop-in replacement for Storm's shuffle grouping.

    The paper's single scheduler is the ``s = 1`` case of
    :class:`~repro.storm.multisource.MultiSourcePOSGCoordinator`: this
    grouping is that coordinator's shard 0, bit-identical to claiming
    ``MultiSourcePOSGCoordinator(1, ...).shard(0)`` by hand.

    Parameters
    ----------
    item_field:
        Name of the tuple field carrying the attribute value that drives
        the execution time (the paper's single "fixed and known attribute").
    config:
        POSG parameters; paper defaults when omitted.
    rng:
        Seeds the shared hash functions.
    telemetry:
        Optional :class:`~repro.telemetry.recorder.TelemetryRecorder`;
        forwarded to the scheduler- and instance-side FSMs so their
        transitions land in the same registry/tracer as the cluster's.
    audit:
        Optional :class:`~repro.telemetry.audit.AuditConfig` (or a
        pre-built :class:`~repro.telemetry.audit.EstimatorAudit`)
        sampling executed tuples as the cluster reports them: every
        N-th execution report compares the scheduler's current W/F
        estimate against the measured duration.  Unlike the simulator's
        hook (which samples in *routing* order), reports arrive in
        completion order, so the sample index counts executions.
    flight:
        Optional :class:`~repro.telemetry.flightrecorder.FlightRecorderConfig`
        (or pre-built recorder): captures the scheduler's causal event
        timeline and samples every N-th routed tuple's decision with its
        believed loads; the route-sample index counts tuples routed by
        this grouping.
    lineage:
        Optional :class:`~repro.telemetry.lineage.LineageConfig` (or
        pre-built :class:`~repro.telemetry.lineage.LineageTracer`):
        every N-th routed tuple opens a span (route clock, believed
        loads) that the matching execution report closes (service time,
        pre-fold window counter).  Tuples execute FIFO per task, so the
        open span and the report are matched by per-task sequence
        numbers; a crash clears that task's open spans (its queue may
        be dropped or replayed).  The sample index counts routed tuples.
        All three observers bind in :meth:`prepare` and are then exposed
        as :attr:`audit`, :attr:`flight` and :attr:`lineage`.
    clock:
        Zero-argument callable returning the current virtual time
        (pass ``cluster.sim.clock``).  Stamps span arrival and
        finish clocks; without it spans carry a zero arrival and the
        reported duration as the finish, so only ``service_time`` is
        meaningful.  The Storm control plane reports executions without
        per-tuple enqueue clocks, so ``scheduling_delay`` is always 0
        here (the simulator engines decompose all three components).
    """

    def __init__(
        self,
        item_field: str = "value",
        config: POSGConfig | None = None,
        rng: np.random.Generator | None = None,
        telemetry=None,
        audit: "AuditConfig | EstimatorAudit | None" = None,
        flight: "FlightRecorderConfig | FlightRecorder | None" = None,
        lineage: "LineageConfig | LineageTracer | None" = None,
        clock=None,
    ) -> None:
        super().__init__(
            MultiSourcePOSGCoordinator(
                1, item_field, config, rng, telemetry, audit, flight, lineage,
                clock,
            ),
            0,
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def scheduler(self) -> POSGScheduler:
        """The scheduler-side FSM."""
        return self._coordinator.scheduler

    @property
    def state(self) -> SchedulerState:
        """Scheduler FSM state."""
        return self._coordinator.scheduler.state

    @property
    def policy(self) -> POSGGrouping:
        """The underlying engine-agnostic policy."""
        return self._coordinator.policy

    @property
    def audit(self) -> EstimatorAudit | None:
        """The estimator audit, once :meth:`prepare` has bound it."""
        return self._coordinator.audit

    @property
    def flight(self) -> FlightRecorder | None:
        """The flight recorder, once :meth:`prepare` has bound it."""
        return self._coordinator.flight

    @property
    def lineage(self) -> LineageTracer | None:
        """The lineage tracer, once :meth:`prepare` has bound it."""
        return self._coordinator.lineage
