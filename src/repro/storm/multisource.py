"""Multi-source POSG on the Storm layer: ``s`` upstream executors.

The simulator's :class:`~repro.core.multisource.MultiSourcePOSGGrouping`
interleaves the sub-streams itself; on the Storm layer the sharding is
*physical* — the topology has ``s`` spouts (or ``s`` tasks of one
upstream component), and each spout's subscription to the worker bolt
carries its own grouping object running its own scheduler FSM.  The
:class:`MultiSourcePOSGCoordinator` builds those per-shard groupings
around one shared core so the deployment matches the model:

- one scheduler per shard (``coordinator.shard(i)`` for spout ``i``);
- **one** instance agent per bolt task, shared by all shards — the
  tracker measures the task's total execution time across every source,
  which is what makes ``Delta_op`` a global re-baselining signal;
- matrices broadcast to every shard, sync replies route back to the
  shard whose ``source`` tag the request carried (both via the shared
  core's dispatch).

The cluster reports each executed tuple to *every* grouping that wants
execution reports, and a crash notifies every subscription's grouping.
Both must fold exactly once per event, so only the shard-0 grouping
subscribes to reports and handles crash notifications; the control
messages an instance returns therefore re-enter through shard 0 and are
fanned out by the coordinator.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import POSGConfig
from repro.core.multisource import MultiSourcePOSGGrouping
from repro.core.scheduler import POSGScheduler
from repro.storm.grouping import CustomStreamGrouping
from repro.storm.tuples import StormTuple
from repro.telemetry.audit import AuditConfig, EstimatorAudit
from repro.telemetry.flightrecorder import FlightRecorder, FlightRecorderConfig
from repro.telemetry.lineage import LineageConfig, LineageTracer
from repro.telemetry.observers import Observers

_INF = float("inf")


class MultiSourcePOSGCoordinator:
    """Shared state behind the ``s`` per-spout grouping shards.

    Parameters
    ----------
    sources:
        Number of upstream scheduler shards ``s`` (>= 1); the topology
        must attach each of ``coordinator.shard(0..s-1)`` to exactly one
        subscription of the same worker bolt.
    item_field:
        Tuple field carrying the attribute value (as for
        :class:`~repro.storm.posg_grouping.POSGShuffleGrouping`).
    config, rng, telemetry:
        As for the single-source grouping; shared by every shard.
    audit:
        Optional :class:`~repro.telemetry.audit.AuditConfig` (or
        pre-built auditor).  Binds to shard 0's scheduler — the
        matrices broadcast keeps every shard's stored estimates
        numerically identical, so shard 0 speaks for all of them.
    flight:
        Optional :class:`~repro.telemetry.flightrecorder.FlightRecorderConfig`
        (or pre-built recorder): captures every shard scheduler's
        causal event timeline and samples routing decisions across the
        coordinator's combined routed-tuple count.  Unlike the
        simulator (where tuple ``i`` belongs to shard ``i mod s``), the
        physical shards route whatever their spouts emit, so samples
        are recorded under the *actual* routing shard and the sample
        index counts tuples in coordinator routing order.
    lineage:
        Optional :class:`~repro.telemetry.lineage.LineageConfig` (or
        pre-built :class:`~repro.telemetry.lineage.LineageTracer`):
        every N-th routed tuple (coordinator routing order) opens a
        span closed by the matching execution report — see
        :class:`~repro.storm.posg_grouping.POSGShuffleGrouping` for the
        span clock semantics.  Samples record under the shard that
        routed them.
    clock:
        Zero-argument virtual-time callable for span clocks (pass
        ``cluster.sim.clock``); optional.
    """

    def __init__(
        self,
        sources: int = 2,
        item_field: str = "value",
        config: POSGConfig | None = None,
        rng: np.random.Generator | None = None,
        telemetry=None,
        audit: "AuditConfig | EstimatorAudit | None" = None,
        flight: "FlightRecorderConfig | FlightRecorder | None" = None,
        lineage: "LineageConfig | LineageTracer | None" = None,
        clock=None,
    ) -> None:
        self._core = MultiSourcePOSGGrouping(
            sources, config, telemetry=telemetry
        )
        self._item_field = item_field
        self._rng = rng
        self._observers = Observers(audit, flight, lineage, telemetry)
        self._clock = clock
        #: tuples routed (by every shard) / execution reports seen
        self._routed = 0
        self._executed = 0
        #: per task: tuples routed there / execution reports seen there
        self._route_seq: dict[int, int] = {}
        self._exec_seq: dict[int, int] = {}
        #: per task: open spans awaiting their execution report, FIFO of
        #: ``(task_seq, shard, sample_index, believed, arrival)``
        self._open_spans: dict[int, list] = {}
        self._agents: dict[int, object] = {}
        #: per task: executed ``(items, times)`` not yet folded into its
        #: tracker, and the tracker; see :meth:`_ShardGrouping.on_execution`
        self._deferred: dict[int, tuple[list, list, object]] = {}
        self._shards: dict[int, _ShardGrouping] = {}
        self._bound_tasks: list[int] | None = None

    # ------------------------------------------------------------------
    # topology wiring
    # ------------------------------------------------------------------
    def shard(self, source: int) -> "CustomStreamGrouping":
        """The grouping for upstream shard ``source`` (claim each once)."""
        if not 0 <= source < self._core.sources:
            raise ValueError(
                f"shard must be in [0, {self._core.sources}), got {source}"
            )
        if source in self._shards:
            raise ValueError(f"shard {source} already claimed")
        grouping = _ShardGrouping(self, source)
        self._shards[source] = grouping
        return grouping

    def _bind(self, source: int, target_tasks: list[int]) -> None:
        """First shard to prepare sets up the shared core; rest verify."""
        if self._bound_tasks is None:
            self._bound_tasks = list(target_tasks)
            self._core.setup(len(target_tasks), self._rng)
            self._agents = {
                position: self._core.create_instance_agent(position)
                for position in range(len(target_tasks))
            }
            self._deferred = {
                position: ([], [], agent.tracker)
                for position, agent in self._agents.items()
            }
            self._observers.bind(self._core)
        elif list(target_tasks) != self._bound_tasks:
            raise ValueError(
                f"shard {source} prepared against tasks {target_tasks}, "
                f"but the coordinator is bound to {self._bound_tasks}; "
                "every shard must subscribe the same worker bolt"
            )

    # ------------------------------------------------------------------
    # shared hooks (called by the shard groupings)
    # ------------------------------------------------------------------
    def _sample_route(self, source: int, instance: int) -> None:
        """Flight sample and lineage span-open for one routed tuple.

        The sample index counts tuples in coordinator routing order; the
        believed loads are the routing shard's post-decision ``C_hat``.
        Only called while a flight recorder or lineage tracer is attached.
        """
        index = self._routed
        self._routed = index + 1
        flight, lineage = self._observers.flight, self._observers.lineage
        if flight is not None and index % flight.sample_every == 0:
            flight.record_route(
                source, index, instance,
                self._core.schedulers[source]._c_hat.tolist(),
            )
        if lineage is not None:
            seq = self._route_seq.get(instance, 0)
            self._route_seq[instance] = seq + 1
            if index % lineage.sample_every == 0:
                self._open_spans.setdefault(instance, []).append((
                    seq,
                    source,
                    index,
                    self._core.schedulers[source]._c_hat.tolist(),
                    self._clock() if self._clock is not None else 0.0,
                ))

    def _sample_execution(self, task: int, item: int, duration: float) -> None:
        """Audit sample and lineage span-close for one execution report.

        Called before the task's agent folds the report: the
        scheduler-side matrices only change on control delivery, so the
        audit reads the estimate the grouping is currently routing with,
        and the span records the pre-fold window counter.  The audit's
        sample index counts execution reports (completion order).
        """
        auditor = self._observers.audit
        if auditor is not None:
            index = self._executed
            self._executed = index + 1
            if index % auditor.sample_every == 0:
                auditor.observe(index, item, task, duration)
        lineage = self._observers.lineage
        if lineage is not None:
            seq = self._exec_seq.get(task, 0)
            self._exec_seq[task] = seq + 1
            queue = self._open_spans.get(task)
            # Drop spans whose tuple was lost before executing (crash
            # or replay desync), then close the one matching this report.
            while queue and queue[0][0] < seq:
                queue.pop(0)
            if queue and queue[0][0] == seq:
                _, shard, index, believed, arrival = queue.pop(0)
                finish = (
                    self._clock()
                    if self._clock is not None
                    else arrival + duration
                )
                lineage.record_sample(
                    shard, index, task, believed, arrival, arrival,
                    finish - duration, finish,
                    self._agents[task].tracker.window_remaining,
                )

    def on_control(self, message) -> None:
        """Dispatch through the core: broadcast matrices, route replies."""
        self._core.on_control(message)

    def _fold_deferred(self, task: int) -> None:
        """Fold ``task``'s deferred execution reports into its tracker."""
        items, times, tracker = self._deferred[task]
        if items:
            tracker.execute_batch(items, times)
            items.clear()
            times.clear()

    def _fold_all_deferred(self) -> None:
        """Fold every task's deferred reports (the cluster shuts down)."""
        for task in self._deferred:
            self._fold_deferred(task)

    def _on_instance_crash(self, task: int) -> None:
        """Wipe the crashed task's instance-side state (new generation)."""
        agent = self._agents.get(task)
        if agent is not None:
            # What ran before the crash counts in the lifetime counters,
            # which survive the restart.
            self._fold_deferred(task)
            agent.tracker.restart()
        # Open spans routed to the crashed task may never execute (its
        # queue restarts); drop them rather than mis-close later spans.
        self._open_spans.pop(task, None)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def item_field(self) -> str:
        """The tuple field carrying the attribute value."""
        return self._item_field

    @property
    def sources(self) -> int:
        """Number of upstream scheduler shards ``s``."""
        return self._core.sources

    @property
    def policy(self) -> MultiSourcePOSGGrouping:
        """The shared sharded policy core."""
        return self._core

    @property
    def schedulers(self) -> tuple[POSGScheduler, ...]:
        """Every shard's scheduler, indexed by source id."""
        return self._core.schedulers

    @property
    def scheduler(self) -> POSGScheduler:
        """Shard 0's scheduler (the audit anchor)."""
        return self._core.scheduler

    @property
    def audit(self) -> EstimatorAudit | None:
        """The estimator audit, once the first shard has prepared."""
        return self._observers.audit

    @property
    def flight(self) -> FlightRecorder | None:
        """The flight recorder, once the first shard has prepared."""
        return self._observers.flight

    @property
    def lineage(self) -> LineageTracer | None:
        """The lineage tracer, once the first shard has prepared."""
        return self._observers.lineage

    def stats(self) -> dict:
        """Merged per-shard control-plane accounting (see the core)."""
        return self._core.stats()


class _ShardGrouping(CustomStreamGrouping):
    """One upstream shard's grouping: routes via its own scheduler.

    Execution reports and crash notifications fan out to every grouping
    of the bolt, so only shard 0 accepts them (and folds through the
    coordinator exactly once); the other shards are pure routers.
    """

    def __init__(self, coordinator: MultiSourcePOSGCoordinator, source: int) -> None:
        self._coordinator = coordinator
        self._source = source
        self._item_field = coordinator.item_field
        #: the last ``fields`` tuple seen and the item field's index in it
        self._fields: tuple[str, ...] | None = None
        self._item_index = 0

    def prepare(self, source: str, target_tasks: list[int]) -> None:
        super().prepare(source, target_tasks)
        coordinator = self._coordinator
        coordinator._bind(self._source, self._target_tasks)
        self._submit = coordinator.schedulers[self._source].submit
        self._agents = coordinator._agents
        self._deferred = coordinator._deferred
        # With nothing attached, routing is the bare ``submit`` and an
        # execution report a deferred fold.
        lineage = coordinator.lineage
        self._samples_routes = not (coordinator.flight is None and lineage is None)
        self._samples_executions = not (coordinator.audit is None and lineage is None)

    def _item(self, tup: StormTuple) -> int:
        """The tuple's item, through the index cached for its ``fields``."""
        fields = tup.fields
        if fields is not self._fields:
            tup.value(self._item_field)  # KeyError on a tuple without it
            self._item_index = fields.index(self._item_field)
            self._fields = fields
        return int(tup.values[self._item_index])

    def choose_tasks(self, tup: StormTuple) -> list[int]:
        decision = self._submit(self._item(tup))
        tup.sync_request = decision.sync_request
        if self._samples_routes:
            self._coordinator._sample_route(self._source, decision.instance)
        return [self._target_tasks[decision.instance]]

    def wants_execution_reports(self) -> bool:
        return self._source == 0

    def on_execution(self, task: int, tup: StormTuple, duration: float) -> list:
        """Fold one execution report into ``task``'s tracker.

        A report that carries no sync request, holds a valid time and
        leaves the tracker short of its window boundary changes nothing
        the scheduler can see, so it waits in the task's deferred buffer.
        Any other report first folds the buffer in one
        :meth:`~repro.core.instance.InstanceTracker.execute_batch`
        (bit-identical to per-tuple folds), then goes through
        ``on_executed``.  Crashes and shutdown fold the buffer too.  With
        an audit or lineage tracer attached every report goes through
        ``on_executed``: both read the tracker per report.
        """
        item = self._item(tup)
        if self._samples_executions:
            self._coordinator._sample_execution(task, item, duration)
        else:
            items, times, tracker = self._deferred[task]
            if (
                tup.sync_request is None
                and 0.0 <= duration < _INF
                and len(items) + 1 < tracker.window_remaining
            ):
                items.append(item)
                times.append(duration)
                return []
            self._coordinator._fold_deferred(task)
        return self._agents[task].on_executed(item, duration, tup.sync_request)

    def on_control(self, message) -> None:
        self._coordinator.on_control(message)

    def on_instance_crash(self, task: int) -> None:
        if self._source == 0:
            self._coordinator._on_instance_crash(task)

    def on_shutdown(self) -> None:
        self._coordinator._fold_all_deferred()
