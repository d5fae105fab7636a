"""Task executors: how spout and bolt instances run on virtual time.

Each component task gets its own executor.  Spout executors periodically
call ``next_tuple``; bolt executors serve their FIFO input queue one
tuple at a time, advancing the virtual clock by the bolt's declared
``work_time`` — the stand-in for the wall-clock execution the paper's
prototype measures.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.storm.tuples import StormTuple, Values

_INF = float("inf")

if TYPE_CHECKING:  # pragma: no cover
    from repro.storm.cluster import LocalCluster
    from repro.storm.topology import Bolt, BoltSpec, Spout, SpoutSpec


@dataclass(frozen=True)
class TaskContext:
    """What a component instance knows about its placement."""

    component: str
    task_index: int
    parallelism: int
    #: read the current virtual time (Storm components read wall clock)
    clock: "Callable[[], float]" = lambda: 0.0


class SpoutCollector:
    """Output collector handed to a spout's ``open``."""

    def __init__(self, cluster: "LocalCluster", spec: "SpoutSpec", task_index: int) -> None:
        self._cluster = cluster
        self._spec = spec
        self._task_index = task_index

    def emit(self, values: Values, msg_id: Any = None) -> None:
        """Emit a tuple; a non-``None`` ``msg_id`` makes it tracked."""
        self._cluster.spout_emit(self._spec, self._task_index, values, msg_id)


class BoltCollector:
    """Output collector handed to a bolt's ``prepare``."""

    def __init__(self, cluster: "LocalCluster", spec: "BoltSpec", task_index: int) -> None:
        self._cluster = cluster
        self._spec = spec
        self._task_index = task_index

    def emit(self, values: Values, anchors: list[StormTuple] | None = None) -> None:
        """Emit a tuple, optionally anchored to input tuples."""
        self._cluster.bolt_emit(self._spec, self._task_index, values, anchors or [])

    def ack(self, tup: StormTuple) -> None:
        """Acknowledge an input tuple (once: a handled tuple is left alone)."""
        if tup.handled:
            return
        tup.handled = True
        self._cluster.ack_tuple(tup)

    def fail(self, tup: StormTuple) -> None:
        """Fail an input tuple's whole tree."""
        tup.handled = True
        self._cluster.fail_tuple(tup)

    def was_handled(self, tup: StormTuple) -> bool:
        """Whether the bolt already acked/failed this input."""
        return tup.handled


class SpoutExecutor:
    """Drives one spout task."""

    def __init__(
        self,
        cluster: "LocalCluster",
        spec: "SpoutSpec",
        task_index: int,
        spout: "Spout",
    ) -> None:
        self.cluster = cluster
        self.spec = spec
        self.task_index = task_index
        self.spout = spout
        self.collector = SpoutCollector(cluster, spec, task_index)
        self.exhausted = False

    def open(self) -> None:
        sim = self.cluster.sim
        self._after = sim.after
        context = TaskContext(
            self.spec.name, self.task_index, self.spec.parallelism, clock=sim.clock
        )
        self.spout.open(context, self.collector)
        self._next_tuple = self.spout.next_tuple
        self._after(0.0, self._tick)

    def _tick(self) -> None:
        cluster = self.cluster
        config = cluster.config
        if (
            config.max_spout_pending is not None
            and cluster.acker.pending_count >= config.max_spout_pending
        ):
            # Backpressure: try again after the idle backoff.
            self._after(config.idle_backoff, self._tick)
            return
        delay = self._next_tuple()
        if delay is None:
            if getattr(self.spout, "finished", False):
                self.exhausted = True
                return
            delay = config.idle_backoff
        self._after(delay if delay > 0.0 else 0.0, self._tick)


class BoltExecutor:
    """Drives one bolt task: FIFO queue, one tuple at a time."""

    def __init__(
        self,
        cluster: "LocalCluster",
        spec: "BoltSpec",
        task_index: int,
        bolt: "Bolt",
    ) -> None:
        self.cluster = cluster
        self.spec = spec
        self.task_index = task_index
        self.bolt = bolt
        self.collector = BoltCollector(cluster, spec, task_index)
        self.queue: deque[StormTuple] = deque()
        self.busy = False
        self.executed = 0

    def prepare(self) -> None:
        cluster = self.cluster
        sim = cluster.sim
        self._after = sim.after
        self._auto_ack = cluster.config.auto_ack
        self._ack_tuple = cluster.ack_tuple
        context = TaskContext(
            self.spec.name, self.task_index, self.spec.parallelism, clock=sim.clock
        )
        self.bolt.prepare(context, self.collector)

    @property
    def queue_depth(self) -> int:
        """Tuples waiting (not counting the one in service)."""
        return len(self.queue)

    def enqueue(self, tup: StormTuple) -> None:
        """A tuple arrived on this task's input."""
        self.queue.append(tup)
        if not self.busy:
            self._start_next()

    def _start_next(self) -> None:
        tup = self.queue[0]
        duration = self.bolt.work_time(tup)
        if not 0.0 <= duration < _INF:  # negative, NaN or infinite
            raise ValueError(
                f"bolt {self.spec.name!r} task {self.task_index} returned "
                f"work_time {duration}; it must be finite and >= 0"
            )
        self.queue.popleft()
        self.busy = True
        self._after(duration, self._finish, tup, duration)

    def _finish(self, tup: StormTuple, duration: float) -> None:
        self.executed += 1
        self.bolt.execute(tup)
        # Basic-bolt convenience: auto-ack inputs the bolt didn't handle
        # (what ``BoltCollector.ack`` does, without the call).
        if self._auto_ack and not tup.handled:
            tup.handled = True
            self._ack_tuple(tup)
        self.cluster.report_execution(self.spec, self.task_index, tup, duration)
        if self.queue:
            self._start_next()
        else:
            self.busy = False
