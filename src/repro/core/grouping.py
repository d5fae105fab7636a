"""Engine-facing grouping policies.

A *grouping policy* decides, for each tuple of a stream, which of the
``k`` parallel instances of the downstream operator receives it.  Both
execution substrates (:mod:`repro.simulator` and :mod:`repro.storm`) drive
policies through this interface, so every experiment can swap POSG,
Round-Robin and the Full Knowledge oracle freely.

Policies with instance-side logic (only POSG) additionally expose
:meth:`GroupingPolicy.create_instance_agent`; the engine calls the agent
after each tuple execution and routes the returned control messages back
to the policy with the latency it models.
"""

from __future__ import annotations

import abc
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.bounds import COUNT
from repro.core.config import POSGConfig
from repro.core.instance import InstanceTracker
from repro.core.matrices import make_shared_hashes
from repro.core.messages import ControlMessage, SyncRequest
from repro.core.scheduler import POSGScheduler, SchedulerState
from repro.sketches.hashing import random_hash_family
from repro.telemetry.recorder import NULL_RECORDER


@dataclass(frozen=True)
class RouteDecision:
    """Where a tuple goes, plus any control payload to piggy-back."""

    instance: int
    sync_request: SyncRequest | None = None


class InstanceAgent(abc.ABC):
    """Per-instance hook a policy installs on each operator instance."""

    @abc.abstractmethod
    def on_executed(
        self,
        item: int,
        execution_time: float,
        sync_request: SyncRequest | None = None,
    ) -> list[ControlMessage]:
        """Observe one executed tuple; return messages for the policy."""


class GroupingPolicy(abc.ABC):
    """Base class for all shuffle-grouping policies."""

    #: human-readable policy name used in experiment reports
    name: str = "abstract"

    def __init__(self) -> None:
        self._k: int | None = None

    def setup(self, k: int, rng: np.random.Generator | None = None) -> None:
        """Bind the policy to ``k`` downstream instances.

        Engines call this exactly once before routing the first tuple.
        """
        self._k = COUNT.check("k", k)

    @property
    def k(self) -> int:
        """Number of downstream instances (after :meth:`setup`)."""
        if self._k is None:
            raise RuntimeError("policy not set up; call setup(k) first")
        return self._k

    @abc.abstractmethod
    def route(self, item: int) -> RouteDecision:
        """Pick the destination instance for one tuple."""

    def on_control(self, message: ControlMessage) -> None:
        """Deliver a control message from an instance agent (default: none)."""

    def on_control_batch(self, messages: "list[ControlMessage]") -> None:
        """Deliver a batch of due control messages, in delivery order.

        The engines drain every message due at one arrival through this
        entry point so a policy can validate the *whole* batch before
        applying any of it (atomic delivery: a malformed message must
        not leave earlier messages of the same batch already folded).
        The default applies them one by one.
        """
        for message in messages:
            self.on_control(message)

    def create_instance_agent(self, instance_id: int) -> InstanceAgent | None:
        """Instance-side hook, or ``None`` for purely scheduler-side policies."""
        return None


class RoundRobinGrouping(GroupingPolicy):
    """The baseline the paper compares against: ``i mod k`` assignment.

    This is also what Apache Storm's stock shuffle grouping (ASSG) does.
    """

    name = "round_robin"

    def __init__(self) -> None:
        super().__init__()
        self._counter = 0

    def setup(self, k: int, rng: np.random.Generator | None = None) -> None:
        super().setup(k, rng)
        self._counter = 0

    def route(self, item: int) -> RouteDecision:
        instance = self._counter % self.k
        self._counter += 1
        return RouteDecision(instance)


class KeyGrouping(GroupingPolicy):
    """Hash-based key grouping (included for contrast, Section VI).

    Key grouping pins every occurrence of an item to one instance; the
    paper notes solutions built for it underperform under shuffle
    grouping, which
    ``tests/core/test_baselines.py::TestKeyGrouping::test_loses_to_shuffle_grouping_on_content_skew``
    measures.
    """

    name = "key"

    def __init__(self) -> None:
        super().__init__()
        self._hash = None

    def setup(self, k: int, rng: np.random.Generator | None = None) -> None:
        super().setup(k, rng)
        self._hash = random_hash_family(1, k, rng=rng)

    def route(self, item: int) -> RouteDecision:
        self.k  # raises before setup
        return RouteDecision(self._hash.hash(0, item))


class FullKnowledgeGrouping(GroupingPolicy):
    """The ideal baseline: GOS fed with *exact* execution times.

    The oracle callable returns the true execution time of an item on an
    instance at routing time; the policy keeps the exact cumulated load
    vector and assigns greedily (Section V-B, "Full Knowledge").
    """

    name = "full_knowledge"

    def __init__(self, oracle: Callable[[int, int], float]) -> None:
        super().__init__()
        self._oracle = oracle
        self._loads: np.ndarray | None = None

    def setup(self, k: int, rng: np.random.Generator | None = None) -> None:
        super().setup(k, rng)
        self._loads = np.zeros(k, dtype=np.float64)

    def route(self, item: int) -> RouteDecision:
        self.k  # raises before setup
        instance = int(np.argmin(self._loads))
        self._loads[instance] += self._oracle(item, instance)
        return RouteDecision(instance)

    @property
    def loads(self) -> np.ndarray:
        """Exact cumulated loads (read-only view)."""
        self.k  # raises before setup
        view = self._loads.view()
        view.flags.writeable = False
        return view


class _POSGInstanceAgent(InstanceAgent):
    """Adapter exposing an :class:`InstanceTracker` as an instance agent."""

    def __init__(self, tracker: InstanceTracker) -> None:
        self.tracker = tracker

    def on_executed(
        self,
        item: int,
        execution_time: float,
        sync_request: SyncRequest | None = None,
    ) -> list[ControlMessage]:
        return self.tracker.execute(item, execution_time, sync_request)


class POSGGrouping(GroupingPolicy):
    """POSG deployed as a grouping policy (the paper's contribution).

    Owns the scheduler-side FSM and hands out one
    :class:`~repro.core.instance.InstanceTracker` per downstream instance;
    the hosting engine wires the control channel between them with
    whatever latency it models.
    """

    name = "posg"

    def __init__(
        self,
        config: POSGConfig | None = None,
        telemetry=NULL_RECORDER,
    ) -> None:
        super().__init__()
        self._config = config if config is not None else POSGConfig()
        self._telemetry = telemetry if telemetry is not None else NULL_RECORDER
        self._scheduler: POSGScheduler | None = None
        self._hashes = None
        self._agents: dict[int, _POSGInstanceAgent] = {}

    def setup(self, k: int, rng: np.random.Generator | None = None) -> None:
        super().setup(k, rng)
        self._hashes = make_shared_hashes(self._config, rng=rng)
        self._scheduler = POSGScheduler(
            k, self._config, telemetry=self._telemetry
        )
        self._agents = {}

    def route(self, item: int) -> RouteDecision:
        decision = self.scheduler.submit(item)
        return RouteDecision(decision.instance, decision.sync_request)

    def on_control(self, message: ControlMessage) -> None:
        self.scheduler.on_message(message)

    def create_instance_agent(self, instance_id: int) -> InstanceAgent:
        if self._hashes is None:
            raise RuntimeError("policy not set up; call setup(k) first")
        if instance_id in self._agents:
            raise ValueError(f"agent for instance {instance_id} already created")
        tracker = InstanceTracker(
            instance_id, self._config, self._hashes, telemetry=self._telemetry
        )
        agent = _POSGInstanceAgent(tracker)
        self._agents[instance_id] = agent
        return agent

    @property
    def scheduler(self) -> POSGScheduler:
        """The scheduler-side FSM (after :meth:`setup`)."""
        if self._scheduler is None:
            raise RuntimeError("policy not set up; call setup(k) first")
        return self._scheduler

    @property
    def schedulers(self) -> tuple[POSGScheduler, ...]:
        """Every scheduler routing this policy's stream, in shard order.

        Tuple ``i`` is routed by ``schedulers[i mod s]``; the paper's
        deployment is the ``s = 1`` case.  The simulator's segment
        router drives any POSG-family policy through this view.
        """
        return (self.scheduler,)

    @property
    def config(self) -> POSGConfig:
        """The POSG configuration in force."""
        return self._config

    @property
    def telemetry(self):
        """The telemetry recorder in force (:data:`NULL_RECORDER` default)."""
        return self._telemetry

    @property
    def state(self) -> SchedulerState:
        """Scheduler FSM state (convenience for experiments)."""
        return self.scheduler.state

    def tracker(self, instance_id: int) -> InstanceTracker:
        """The instance-side tracker created for ``instance_id``."""
        return self._agents[instance_id].tracker
