"""The local cluster: wiring, routing, reliability, lifecycle.

:class:`LocalCluster` plays the role of Storm's LocalCluster plus the
pieces of nimbus/worker plumbing the experiments need: it instantiates
one executor per task, binds groupings, routes emissions with a transfer
latency, runs the acker (timeouts, ``max.spout.pending``), dispatches
POSG execution reports and control messages with a control-plane
latency, and collects :class:`~repro.storm.metrics.TopologyMetrics`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.bounds import check_bounds, integer, real
from repro.faults.injector import FaultInjector
from repro.faults.plan import CrashFault, FaultPlan
from repro.simulator.engine import Simulation
from repro.storm.acker import AckTracker
from repro.storm.executor import BoltExecutor, SpoutExecutor
from repro.storm.grouping import CustomStreamGrouping, StreamGrouping
from repro.storm.metrics import TopologyMetrics
from repro.storm.topology import BoltSpec, SpoutSpec, Topology
from repro.storm.tuples import StormTuple, Values
from repro.telemetry.recorder import NULL_RECORDER


@dataclass(frozen=True)
class ClusterConfig:
    """Runtime knobs (defaults mirror Storm's where they exist).

    Times are virtual milliseconds.
    """

    #: topology.message.timeout.secs — Storm defaults to 30 s
    message_timeout: float = real(30_000.0, low=0, open_low=True)
    #: topology.max.spout.pending — None disables backpressure
    max_spout_pending: int | None = integer(None, low=1, optional=True)
    #: network hop for data tuples between tasks
    transfer_latency: float = real(0.0, low=0)
    #: network hop for control messages (POSG matrices / sync / acks)
    control_latency: float = real(1.0, low=0)
    #: delay before re-polling an idle or backpressured spout
    idle_backoff: float = real(1.0, low=0, open_low=True)
    #: auto-ack inputs that the bolt did not ack/fail itself
    auto_ack: bool = True
    #: how often the acker sweeps for timed-out trees
    timeout_sweep_interval: float = real(1_000.0, low=0, open_low=True)
    #: seed for ack-id generation
    seed: int | None = None

    def __post_init__(self) -> None:
        check_bounds(self)


class LocalCluster:
    """Runs one topology to completion on virtual time.

    Parameters
    ----------
    config:
        Runtime knobs; defaults when omitted.
    telemetry:
        Optional :class:`~repro.telemetry.recorder.TelemetryRecorder`.
    rng:
        Generator for the cluster's randomness (ack-id draws).  Falls
        back to ``default_rng(config.seed)``, so either a generator or a
        config seed makes runs reproducible end to end.  The acker draws
        ids ahead of use and so owns the generator from here on: do not
        share it with another consumer.
    faults:
        Optional :class:`~repro.faults.plan.FaultPlan` (or pre-built
        injector).  Scripted crashes/slowdowns target ``fault_bolt``;
        message faults apply to the POSG control messages the cluster
        dispatches.  An inactive plan changes nothing.
    fault_bolt:
        Name of the bolt whose tasks scripted faults target; may be
        omitted when the topology has exactly one bolt.
    """

    def __init__(
        self,
        config: ClusterConfig | None = None,
        telemetry=None,
        rng: np.random.Generator | None = None,
        faults: "FaultPlan | FaultInjector | None" = None,
        fault_bolt: str | None = None,
    ) -> None:
        self.config = config if config is not None else ClusterConfig()
        self.sim = Simulation()
        self.metrics = TopologyMetrics()
        self.telemetry = telemetry if telemetry is not None else NULL_RECORDER
        if self.telemetry.enabled:
            self.telemetry.registry.register_collector(self.metrics.samples)
        self.acker = AckTracker(
            self.config.message_timeout,
            rng=rng if rng is not None else np.random.default_rng(self.config.seed),
        )
        if isinstance(faults, FaultInjector):
            self._injector = faults if faults.active else None
        elif isinstance(faults, FaultPlan):
            self._injector = (
                FaultInjector(faults, telemetry=self.telemetry)
                if faults.active
                else None
            )
        elif faults is None:
            self._injector = None
        else:
            raise TypeError(
                f"faults must be a FaultPlan or FaultInjector, got {faults!r}"
            )
        self._fault_bolt = fault_bolt
        self._topology: Topology | None = None
        self._spout_executors: list[SpoutExecutor] = []
        #: spout name -> its executors, by task index
        self._spout_tasks: dict[str, list[SpoutExecutor]] = {}
        self._bolt_executors: dict[str, list[BoltExecutor]] = {}
        #: source component -> its subscribers, each
        #: ``(bolt_spec, grouping, executors)``
        self._routes: dict[str, list[tuple]] = {}
        #: the grouping wanting execution reports, per ``(bolt, source)``
        #: edge: it routed every tuple from that source into that bolt
        self._reporting_groupings: dict[tuple[str, str], CustomStreamGrouping] = {}
        self._msg_roots: dict[Any, SpoutExecutor] = {}
        self._sweep_scheduled = False
        self._submitted = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def submit(self, topology: Topology) -> None:
        """Instantiate tasks, bind groupings, open components."""
        if self._submitted:
            raise RuntimeError("cluster already has a topology")
        self._submitted = True
        self._topology = topology

        for bolt_spec in topology.bolts.values():
            executors = [
                BoltExecutor(self, bolt_spec, index, bolt_spec.factory())
                for index in range(bolt_spec.parallelism)
            ]
            self._bolt_executors[bolt_spec.name] = executors
            for executor in executors:
                executor.prepare()
        self.metrics.bind_executors(self._bolt_executors)

        for bolt_spec in topology.bolts.values():
            for subscription in bolt_spec.subscriptions:
                grouping = subscription.grouping
                grouping.prepare(
                    subscription.source, list(range(bolt_spec.parallelism))
                )
                if (
                    isinstance(grouping, CustomStreamGrouping)
                    and grouping.wants_execution_reports()
                ):
                    edge = (bolt_spec.name, subscription.source)
                    if edge in self._reporting_groupings:
                        raise ValueError(
                            f"bolt {bolt_spec.name!r} subscribes to "
                            f"{subscription.source!r} through two groupings "
                            "that want execution reports; an execution could "
                            "not be told apart between them"
                        )
                    self._reporting_groupings[edge] = grouping

        for spec in (*topology.spouts.values(), *topology.bolts.values()):
            self._routes[spec.name] = [
                (bolt_spec, grouping, self._bolt_executors[bolt_spec.name])
                for bolt_spec, grouping in topology.downstream_of(spec.name)
            ]

        for spout_spec in topology.spouts.values():
            for index in range(spout_spec.parallelism):
                executor = SpoutExecutor(
                    self, spout_spec, index, spout_spec.factory()
                )
                self._spout_executors.append(executor)
                self._spout_tasks.setdefault(spout_spec.name, []).append(executor)
                executor.open()

        if self._injector is not None:
            self._arm_faults()

    def _arm_faults(self) -> None:
        """Schedule scripted faults against the target bolt's tasks."""
        injector = self._injector
        name = self._fault_bolt
        if name is None:
            if len(self._bolt_executors) != 1:
                raise ValueError(
                    "fault_bolt must name the target bolt when the topology "
                    f"has {len(self._bolt_executors)} bolts"
                )
            name = next(iter(self._bolt_executors))
        elif name not in self._bolt_executors:
            raise ValueError(f"fault_bolt {name!r} is not a bolt in the topology")
        self._fault_bolt = name
        executors = self._bolt_executors[name]
        for event in (*injector.crashes, *injector.plan.slowdowns):
            if event.instance >= len(executors):
                raise ValueError(
                    f"scripted fault targets task {event.instance} but bolt "
                    f"{name!r} has parallelism {len(executors)}"
                )
        if injector.plan.slowdowns:
            for executor in executors:
                executor.fault_injector = injector
        for crash in injector.crashes:
            self.sim.after(crash.at_ms, self._fire_crash, crash)

    def _fire_crash(self, crash: CrashFault) -> None:
        """Crash one bolt task: fail its tuples, notify groupings."""
        executors = self._bolt_executors[self._fault_bolt]
        executor = executors[crash.instance]
        lost = executor.crash()
        self._injector.note_crash(crash.instance, self.sim.now)
        for tup in lost:
            self.fail_tuple(tup)
        bolt_spec = self._topology.bolts[self._fault_bolt]
        for subscription in bolt_spec.subscriptions:
            grouping = subscription.grouping
            if isinstance(grouping, CustomStreamGrouping):
                grouping.on_instance_crash(crash.instance)
        self.sim.after(
            crash.outage_ms, self._finish_restart, executor, crash.instance
        )

    def _finish_restart(self, executor: BoltExecutor, instance: int) -> None:
        executor.restart()
        self._injector.note_restart(instance, self.sim.now)

    def run(self, until: float | None = None) -> float:
        """Drain the event loop; returns the final virtual time."""
        if not self._submitted:
            raise RuntimeError("submit a topology before running")
        final = self.sim.run(until=until)
        self.shutdown()
        return final

    def shutdown(self) -> None:
        """Close every component (idempotent)."""
        topology = self._topology
        if topology is None:
            return
        for executor in self._spout_executors:
            executor.spout.close()
        for executors in self._bolt_executors.values():
            for executor in executors:
                executor.bolt.cleanup()
        for grouping in self._reporting_groupings.values():
            grouping.on_shutdown()

    def on_spout_exhausted(self) -> None:
        """A spout signalled it will never emit again (no-op hook)."""

    # ------------------------------------------------------------------
    # emission and routing
    # ------------------------------------------------------------------
    def spout_emit(
        self, spec: SpoutSpec, task_index: int, values: Values, msg_id: Any
    ) -> None:
        """Route one spout emission to every subscriber."""
        if msg_id is None:
            self._route(spec, task_index, values, None)
            return
        root_ack = self.acker.fresh_ack_id()
        self.acker.register_root(msg_id, root_ack, self.sim.now)
        self._msg_roots[msg_id] = self._spout_tasks[spec.name][task_index]
        self.metrics.record_emit()
        self._ensure_sweep()
        # the root edge is acked once the first hop's edges exist; we
        # model the spout's own edge as immediately acked after fan-out
        self._route(spec, task_index, values, msg_id)
        # complete the root edge (the fan-out registered child edges)
        result = self.acker.ack(msg_id, root_ack)
        if result is not None:
            # degenerate: no subscriber -> the tree completes instantly
            _, emitted_at = result
            self.metrics.record_completion(msg_id, self.sim.now - emitted_at)
            self._notify_spout(msg_id, failed=False)

    def bolt_emit(
        self,
        spec: BoltSpec,
        task_index: int,
        values: Values,
        anchors: list[StormTuple],
    ) -> None:
        """Route one bolt emission, inheriting anchors."""
        root_id = None
        for anchor in anchors:
            if anchor.root_id is not None:
                root_id = anchor.root_id  # single-root model (see DESIGN.md)
                break
        self._route(spec, task_index, values, root_id)

    def _route(
        self,
        spec: SpoutSpec | BoltSpec,
        task_index: int,
        values: Values,
        root_id: Any,
    ) -> None:
        """Hand one emission to every subscriber's grouping.

        The groupings read the values through a prototype tuple; every
        edge of the tuple tree gets its own copy of them.  The sole edge
        of a route with one subscriber and one chosen task is the
        prototype itself.
        """
        name = spec.name
        fields = spec.output_fields
        proto = StormTuple(list(values), fields, name, task_index, root_id)
        routes = self._routes[name]
        sole = len(routes) == 1
        acker = self.acker
        injector = self._injector
        after = self.sim.after
        latency = self.config.transfer_latency
        for bolt_spec, grouping, executors in routes:
            proto.sync_request = None
            tasks = grouping.choose_tasks(proto)
            sync_request = proto.sync_request  # set by POSG-style groupings
            if (
                sync_request is not None
                and injector is not None
                and injector.drop_request(sync_request)
            ):
                # The piggy-backed request is lost on the wire; the data
                # tuple itself still arrives.  Its bits were spent, so the
                # control-overhead accounting still counts the send.
                self.metrics.record_control_message(sync_request.size_bits())
                sync_request = proto.sync_request = None
            reuse = sole and len(tasks) == 1
            for task in tasks:
                if not 0 <= task < bolt_spec.parallelism:
                    raise ValueError(
                        f"grouping chose invalid task {task} for bolt "
                        f"{bolt_spec.name!r}"
                    )
                if reuse:
                    edge = proto
                else:
                    edge = StormTuple(
                        list(values), fields, name, task_index, root_id
                    )
                if root_id is not None:
                    edge.ack_id = acker.fresh_ack_id()
                    acker.register_edge(root_id, edge.ack_id)
                if sync_request is not None:
                    # the request rides on the first chosen task's copy
                    edge.sync_request = sync_request
                    self.metrics.record_control_message(sync_request.size_bits())
                    sync_request = None
                after(latency, executors[task].enqueue, edge)

    # ------------------------------------------------------------------
    # reliability
    # ------------------------------------------------------------------
    def ack_tuple(self, tup: StormTuple) -> None:
        """A bolt acked one of its inputs."""
        root_id = tup.root_id
        if root_id is None:
            return
        result = self.acker.ack(root_id, tup.ack_id)
        if result is not None:
            sim = self.sim
            self.metrics.record_completion(root_id, sim.now - result[1])
            # ``_notify_spout(root_id, failed=False)``, inline
            executor = self._msg_roots.pop(root_id, None)
            if executor is not None:
                sim.after(self.config.control_latency, executor.spout.ack, root_id)

    def fail_tuple(self, tup: StormTuple) -> None:
        """A bolt failed one of its inputs: fail the whole tree."""
        if tup.root_id is None:
            return
        if self.acker.fail(tup.root_id):
            self.metrics.record_failure(tup.root_id)
            self._notify_spout(tup.root_id, failed=True)

    def _notify_spout(self, msg_id: Any, failed: bool) -> None:
        executor = self._msg_roots.pop(msg_id, None)
        if executor is None:
            return
        callback = executor.spout.fail if failed else executor.spout.ack
        self.sim.after(self.config.control_latency, callback, msg_id)

    # ------------------------------------------------------------------
    # timeouts
    # ------------------------------------------------------------------
    def _ensure_sweep(self) -> None:
        if not self._sweep_scheduled:
            self._sweep_scheduled = True
            self.sim.after(self.config.timeout_sweep_interval, self._sweep)

    def _sweep(self) -> None:
        self._sweep_scheduled = False
        for msg_id in self.acker.expire(self.sim.now):
            self.metrics.record_timeout(msg_id)
            self._notify_spout(msg_id, failed=True)
        if self.acker.pending_count > 0 or not self._all_spouts_exhausted():
            self._ensure_sweep()

    def _all_spouts_exhausted(self) -> bool:
        return all(executor.exhausted for executor in self._spout_executors)

    # ------------------------------------------------------------------
    # POSG execution reports
    # ------------------------------------------------------------------
    def report_execution(
        self, spec: BoltSpec, task_index: int, tup: StormTuple, duration: float
    ) -> None:
        """A bolt task executed a tuple; notify the grouping that routed it."""
        grouping = self._reporting_groupings.get((spec.name, tup.source_component))
        if grouping is not None:
            for message in grouping.on_execution(task_index, tup, duration):
                size_bits = getattr(message, "size_bits", None)
                self.metrics.record_control_message(
                    size_bits() if size_bits is not None else 0
                )
                if self._injector is not None:
                    delays = self._injector.deliver_times(
                        message, self.config.control_latency
                    )
                else:
                    delays = (self.config.control_latency,)
                for delay in delays:
                    self.sim.after(delay, grouping.on_control, message)
