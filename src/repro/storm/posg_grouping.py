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
from repro.storm.grouping import CustomStreamGrouping
from repro.storm.tuples import StormTuple
from repro.telemetry.audit import AuditConfig, EstimatorAudit
from repro.telemetry.flightrecorder import FlightRecorder, FlightRecorderConfig
from repro.telemetry.lineage import LineageConfig, LineageTracer
from repro.telemetry.recorder import NULL_RECORDER


class POSGShuffleGrouping(CustomStreamGrouping):
    """Drop-in replacement for Storm's shuffle grouping.

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
        completion order, so the sample index counts executions.  The
        auditor binds to the scheduler in :meth:`prepare` and is
        exposed as :attr:`audit`.
    flight:
        Optional :class:`~repro.telemetry.flightrecorder.FlightRecorderConfig`
        (or pre-built recorder): captures the scheduler's causal event
        timeline and samples every N-th routed tuple's decision with its
        believed loads.  Binds in :meth:`prepare`, exposed as
        :attr:`flight`; the route-sample index counts tuples routed by
        this grouping.
    lineage:
        Optional :class:`~repro.telemetry.lineage.LineageConfig` (or
        pre-built :class:`~repro.telemetry.lineage.LineageTracer`):
        every N-th routed tuple opens a span (route clock, believed
        loads) that the matching execution report closes (service time,
        pre-fold window counter).  Tuples execute FIFO per task, so the
        open span and the report are matched by per-task sequence
        numbers; a crash clears that task's open spans (its queue may
        be dropped or replayed).  Binds in :meth:`prepare`, exposed as
        :attr:`lineage`; the sample index counts routed tuples.
    clock:
        Zero-argument callable returning the current virtual time
        (pass ``lambda: cluster.sim.now``).  Stamps span arrival and
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
        self._item_field = item_field
        self._policy = POSGGrouping(config, telemetry=telemetry)
        self._rng = rng
        self._agents: dict[int, object] = {}
        self._telemetry = telemetry if telemetry is not None else NULL_RECORDER
        if audit is not None and not isinstance(
            audit, (AuditConfig, EstimatorAudit)
        ):
            raise TypeError(
                f"audit must be an AuditConfig or EstimatorAudit, got {audit!r}"
            )
        self._audit_spec = audit
        self._auditor: EstimatorAudit | None = None
        self._executed = 0
        if flight is not None and not isinstance(
            flight, (FlightRecorderConfig, FlightRecorder)
        ):
            raise TypeError(
                "flight must be a FlightRecorderConfig or FlightRecorder, "
                f"got {flight!r}"
            )
        self._flight_spec = flight
        self._flight: FlightRecorder | None = None
        self._flight_every = 0
        self._routed = 0
        if lineage is not None and not isinstance(
            lineage, (LineageConfig, LineageTracer)
        ):
            raise TypeError(
                "lineage must be a LineageConfig or LineageTracer, "
                f"got {lineage!r}"
            )
        self._lineage_spec = lineage
        self._lineage: LineageTracer | None = None
        self._lineage_every = 0
        self._clock = clock
        self._lin_routed = 0
        #: per task: tuples routed there / execution reports seen there
        self._lin_route_seq: dict[int, int] = {}
        self._lin_exec_seq: dict[int, int] = {}
        #: per task: open spans awaiting their execution report, FIFO of
        #: ``(task_seq, sample_index, believed, arrival)``
        self._lin_pending: dict[int, list] = {}

    def prepare(self, source: str, target_tasks: list[int]) -> None:
        super().prepare(source, target_tasks)
        self._policy.setup(len(target_tasks), self._rng)
        self._agents = {
            position: self._policy.create_instance_agent(position)
            for position in range(len(target_tasks))
        }
        if isinstance(self._audit_spec, EstimatorAudit):
            self._auditor = self._audit_spec
        elif self._audit_spec is not None:
            self._auditor = EstimatorAudit(
                self._policy.scheduler,
                self._audit_spec,
                telemetry=self._telemetry,
            )
        if isinstance(self._flight_spec, FlightRecorder):
            self._flight = self._flight_spec
        elif self._flight_spec is not None:
            self._flight = FlightRecorder(
                self._flight_spec, telemetry=self._telemetry
            )
        if self._flight is not None:
            self._policy.attach_flight(self._flight)
            self._flight_every = self._flight.sample_every
        if isinstance(self._lineage_spec, LineageTracer):
            self._lineage = self._lineage_spec
        elif self._lineage_spec is not None:
            self._lineage = LineageTracer(
                self._lineage_spec, telemetry=self._telemetry
            )
        if self._lineage is not None:
            self._policy.attach_lineage(self._lineage)
            self._lineage_every = self._lineage.sample_every

    def choose_tasks(self, tup: StormTuple) -> list[int]:
        item = int(tup.value(self._item_field))
        decision = self._policy.scheduler.submit(item)
        tup.sync_request = decision.sync_request
        if self._flight is not None:
            index = self._routed
            if index % self._flight_every == 0:
                self._policy.record_flight_route(
                    self._flight, index, decision.instance
                )
            self._routed = index + 1
        if self._lineage is not None:
            index = self._lin_routed
            position = decision.instance
            seq = self._lin_route_seq.get(position, 0)
            if index % self._lineage_every == 0:
                self._lin_pending.setdefault(position, []).append((
                    seq,
                    index,
                    self._policy.scheduler._c_hat.tolist(),
                    self._clock() if self._clock is not None else 0.0,
                ))
            self._lin_route_seq[position] = seq + 1
            self._lin_routed = index + 1
        return [self._target_tasks[decision.instance]]

    # ------------------------------------------------------------------
    # control plane
    # ------------------------------------------------------------------
    def wants_execution_reports(self) -> bool:
        return True

    def on_execution(self, task: int, tup: StormTuple, duration: float) -> list:
        item = int(tup.value(self._item_field))
        auditor = self._auditor
        if auditor is not None:
            index = self._executed
            if index % auditor.sample_every == 0:
                # Before the agent folds the report: the scheduler-side
                # matrices only change on control delivery, so this reads
                # the estimate the grouping is currently routing with.
                auditor.observe(index, item, task, duration)
            self._executed = index + 1
        agent = self._agents[task]
        if self._lineage is not None:
            seq = self._lin_exec_seq.get(task, 0)
            self._lin_exec_seq[task] = seq + 1
            queue = self._lin_pending.get(task)
            # Drop spans whose tuple was lost before executing (crash
            # or replay desync), then close the one matching this
            # report.  The window counter is read before the fold below.
            while queue and queue[0][0] < seq:
                queue.pop(0)
            if queue and queue[0][0] == seq:
                _, index, believed, arrival = queue.pop(0)
                finish = (
                    self._clock()
                    if self._clock is not None
                    else arrival + duration
                )
                self._lineage.record_sample(
                    0, index, task, believed, arrival, arrival,
                    finish - duration, finish,
                    agent.tracker.window_remaining,
                )
        return agent.on_executed(item, duration, tup.sync_request)

    def on_control(self, message) -> None:
        self._policy.on_control(message)

    def on_instance_crash(self, task: int) -> None:
        """Wipe the crashed task's instance-side state (new generation)."""
        agent = self._agents.get(task)
        if agent is not None:
            agent.tracker.restart()
        # Open spans routed to the crashed task may never execute (its
        # queue restarts); drop them rather than mis-close later spans.
        self._lin_pending.pop(task, None)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def scheduler(self) -> POSGScheduler:
        """The scheduler-side FSM."""
        return self._policy.scheduler

    @property
    def state(self) -> SchedulerState:
        """Scheduler FSM state."""
        return self._policy.state

    @property
    def policy(self) -> POSGGrouping:
        """The underlying engine-agnostic policy."""
        return self._policy

    @property
    def audit(self) -> EstimatorAudit | None:
        """The estimator audit, once :meth:`prepare` has bound it."""
        return self._auditor

    @property
    def flight(self) -> FlightRecorder | None:
        """The flight recorder, once :meth:`prepare` has bound it."""
        return self._flight

    @property
    def lineage(self) -> LineageTracer | None:
        """The lineage tracer, once :meth:`prepare` has bound it."""
        return self._lineage
