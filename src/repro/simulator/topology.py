"""Event-driven reference implementation of the scheduling stage.

:class:`StageTopology` builds the paper's topology — source, scheduler
operator ``S``, ``k`` instances of operator ``O`` — as explicit processes
on the generic :class:`~repro.simulator.engine.Simulation` event loop.

It produces results identical (tuple-for-tuple) to the optimized
:func:`~repro.simulator.run.simulate_stream` fast path; the test suite
enforces the equivalence.  Use this implementation when extending the
topology (multiple stages, backpressure experiments); use the fast path
for the parameter sweeps.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.bounds import COUNT
from repro.core.grouping import GroupingPolicy, InstanceAgent, POSGGrouping
from repro.core.messages import SyncRequest
from repro.core.scheduler import SchedulerState
from repro.simulator.engine import Simulation
from repro.simulator.metrics import CompletionStats
from repro.simulator.network import ConstantLatency, LatencyModel
from repro.simulator.run import (
    PolicyFactory,
    SimulationResult,
    _as_latency_list,
)
from repro.workloads.nonstationary import LoadShiftScenario
from repro.workloads.synthetic import Stream

#: event priorities — control deliveries beat data arrivals at equal time,
#: matching the fast path's "deliver every message due by now" semantics
PRIORITY_CONTROL = -1
PRIORITY_DATA = 0


@dataclass
class _InFlightTuple:
    """A data tuple travelling through the stage."""

    index: int
    item: int
    emitted_at: float
    sync_request: SyncRequest | None = None


class _InstanceProcess:
    """One operator instance: a FIFO queue and a busy/idle loop."""

    def __init__(
        self,
        instance_id: int,
        topology: "StageTopology",
        agent: InstanceAgent | None,
    ) -> None:
        self.instance_id = instance_id
        self.topology = topology
        self.agent = agent
        self.queue: deque[_InFlightTuple] = deque()
        self.busy = False

    def on_tuple(self, tup: _InFlightTuple) -> None:
        """A data tuple reached this instance's input queue."""
        self.queue.append(tup)
        if not self.busy:
            self._start_next()

    def _start_next(self) -> None:
        tup = self.queue.popleft()
        self.busy = True
        sim = self.topology.sim
        execution_time = self.topology.execution_time(tup.index, tup.item, self.instance_id)
        sim.after(execution_time, self._finish, tup, execution_time)

    def _finish(self, tup: _InFlightTuple, execution_time: float) -> None:
        sim = self.topology.sim
        self.topology.record_completion(tup, sim.now)
        if self.agent is not None:
            messages = self.agent.on_executed(tup.item, execution_time, tup.sync_request)
            for message in messages:
                self.topology.send_control(message)
        if self.queue:
            self._start_next()
        else:
            self.busy = False


class StageTopology:
    """Source -> scheduler -> ``k`` instances, on the event engine."""

    def __init__(
        self,
        k: int,
        policy: GroupingPolicy | PolicyFactory,
        scenario: LoadShiftScenario | None = None,
        data_latency: "LatencyModel | float | list" = 0.0,
        control_latency: LatencyModel | float = 1.0,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.k = k = COUNT.check("k", k)
        self.scenario = scenario if scenario is not None else LoadShiftScenario.constant(k)
        if self.scenario.k < k:
            raise ValueError(
                f"scenario covers {self.scenario.k} instances but k={k} requested"
            )
        self._data_latency = _as_latency_list(data_latency, k)
        self._control_latency = (
            control_latency if isinstance(control_latency, LatencyModel)
            else ConstantLatency(float(control_latency))
        )
        self._policy_or_factory = policy
        self._rng = rng
        # bound at run() time
        self.sim = Simulation()
        self.policy: GroupingPolicy | None = None
        self._stream: Stream | None = None
        self._position = 0
        self._completions: np.ndarray | None = None
        self._assignments: np.ndarray | None = None
        self._completed = 0
        self._control_messages = 0
        self._control_bits = 0
        self._state_transitions: list[tuple[int, SchedulerState]] = []
        self._instances: list[_InstanceProcess] = []

    # ------------------------------------------------------------------
    # wiring helpers used by the processes
    # ------------------------------------------------------------------
    def execution_time(self, index: int, item: int, instance: int) -> float:
        """True execution time of a tuple on an instance (with multipliers)."""
        assert self._stream is not None
        return self._stream.time_of(item) * self.scenario.multiplier(instance, index)

    def record_completion(self, tup: _InFlightTuple, finish: float) -> None:
        assert self._completions is not None and self._assignments is not None
        self._completions[tup.index] = finish - tup.emitted_at
        self._completed += 1

    def send_control(self, message) -> None:
        """Route an instance's control message to the scheduler."""
        self._control_messages += 1
        self._control_bits += message.size_bits()
        delay = self._control_latency.sample()
        self.sim.after(
            delay, self.policy.on_control, message, priority=PRIORITY_CONTROL
        )

    # ------------------------------------------------------------------
    # the scheduler process
    # ------------------------------------------------------------------
    def _on_source_tuple(self, index: int) -> None:
        assert self.policy is not None and self._stream is not None
        self._position = index
        item = int(self._stream.items[index])
        track = isinstance(self.policy, POSGGrouping)
        before = self.policy.state if track else None
        decision = self.policy.route(item)
        if track and self.policy.state is not before:
            self._state_transitions.append((index, self.policy.state))
        if decision.sync_request is not None:
            self._control_messages += 1
            self._control_bits += decision.sync_request.size_bits()
        assert self._assignments is not None
        self._assignments[index] = decision.instance
        tup = _InFlightTuple(
            index=index,
            item=item,
            emitted_at=self.sim.now,
            sync_request=decision.sync_request,
        )
        self.sim.after(
            self._data_latency[decision.instance].sample(),
            self._instances[decision.instance].on_tuple,
            tup,
            priority=PRIORITY_DATA,
        )

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def run(self, stream: Stream) -> SimulationResult:
        """Simulate the whole stream; returns the same result type as the
        fast path."""
        if self._stream is not None:
            raise RuntimeError("a StageTopology can only run one stream")
        self._stream = stream
        position = self  # oracle closes over the topology's position

        def oracle(item: int, instance: int) -> float:
            return stream.time_of(item) * self.scenario.multiplier(
                instance, position._position
            )

        policy = self._policy_or_factory
        if not isinstance(policy, GroupingPolicy):
            policy = policy(oracle)
        policy.setup(self.k, self._rng)
        self.policy = policy
        self._instances = [
            _InstanceProcess(i, self, policy.create_instance_agent(i))
            for i in range(self.k)
        ]
        m = stream.m
        self._completions = np.zeros(m, dtype=np.float64)
        self._assignments = np.zeros(m, dtype=np.int64)
        self._completed = 0
        # POSG state tracking starts from the initial state.
        self._state_transitions = []

        for index in range(m):
            arrival = float(stream.arrivals[index])
            self.sim.at(
                arrival, self._on_source_tuple, index, priority=PRIORITY_DATA
            )
        self.sim.run()
        if self._completed != m:  # pragma: no cover - invariant guard
            raise RuntimeError(
                f"simulation ended with {self._completed}/{m} tuples completed"
            )
        return SimulationResult(
            stats=CompletionStats(self._completions, self._assignments),
            policy=policy,
            state_transitions=self._state_transitions,
            control_messages=self._control_messages,
            control_bits=self._control_bits,
        )
