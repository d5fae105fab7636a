"""Reusable spouts and bolts for the paper's experiments.

- :class:`StreamSpout` replays a materialized
  :class:`~repro.workloads.synthetic.Stream` at its recorded arrival
  times, using the stream index as the message id;
- :class:`WorkBolt` executes tuples for their content-driven duration,
  optionally scaled by a per-task
  :class:`~repro.workloads.nonstationary.LoadShiftScenario` multiplier —
  the stand-in for the busy-waiting bolts of the paper's prototype
  (Section V-C).
"""

from __future__ import annotations

import numpy as np

from repro.storm.executor import BoltCollector, SpoutCollector, TaskContext
from repro.storm.topology import Bolt, Spout
from repro.storm.tuples import StormTuple
from repro.workloads.nonstationary import LoadShiftScenario
from repro.workloads.synthetic import Stream


class StreamSpout(Spout):
    """Replays a stream; message id = stream index."""

    def __init__(self, stream: Stream, anchored: bool = True) -> None:
        self._stream = stream
        self._m = stream.m
        self._anchored = anchored
        self._next = 0
        self._collector: SpoutCollector | None = None
        self._context: TaskContext | None = None
        self.acked: int = 0
        self.failed: int = 0

    def open(self, context: TaskContext, collector: SpoutCollector) -> None:
        if context.parallelism != 1:
            raise ValueError("StreamSpout must run with parallelism 1")
        self._context = context
        self._collector = collector
        self._clock = context.clock

    @property
    def finished(self) -> bool:
        """Whether every tuple has been emitted."""
        return self._next >= self._m

    def next_tuple(self) -> float | None:
        """Emit the next tuple if its arrival time has come."""
        assert self._collector is not None
        if self._next >= self._m:
            return None
        now = self._clock()
        arrivals = self._stream.arrivals
        due = arrivals.item(self._next)
        if now < due:
            # called early (e.g. right after backpressure cleared)
            return due - now
        index = self._next
        self._next += 1
        self._collector.emit(
            [self._stream.items.item(index), index],
            msg_id=index if self._anchored else None,
        )
        if self._next >= self._m:
            return None
        # delay until the next arrival; 0 when already overdue
        return max(0.0, arrivals.item(self._next) - now)

    def ack(self, msg_id) -> None:
        self.acked += 1

    def fail(self, msg_id) -> None:
        self.failed += 1


#: output fields of :class:`StreamSpout`
STREAM_SPOUT_FIELDS = ("value", "index")


class WorkBolt(Bolt):
    """Busy-works for the tuple's content-driven duration.

    Parameters
    ----------
    time_table:
        ``item -> nominal execution time`` lookup (milliseconds).
    scenario:
        Optional per-task multiplier schedule; the multiplier is indexed
        by the tuple's stream position (field ``index``), exactly like
        Figure 10/11's setup.
    """

    def __init__(
        self,
        time_table: np.ndarray,
        scenario: LoadShiftScenario | None = None,
    ) -> None:
        self._time_table = np.asarray(time_table, dtype=np.float64)
        self._scenario = scenario
        self._context: TaskContext | None = None
        self._collector: BoltCollector | None = None
        #: the last ``fields`` tuple seen and the ``value`` / ``index``
        #: fields' positions in it
        self._fields: tuple[str, ...] | None = None
        self._value_at = self._index_at = 0

    def prepare(self, context: TaskContext, collector: BoltCollector) -> None:
        self._context = context
        self._collector = collector

    def work_time(self, tup: StormTuple) -> float:
        fields = tup.fields
        if fields is not self._fields:
            assert self._context is not None
            tup.value("value")  # KeyError on a tuple without it
            self._value_at = fields.index("value")
            if self._scenario is not None:
                tup.value("index")
                self._index_at = fields.index("index")
            self._fields = fields
        values = tup.values
        base = self._time_table.item(int(values[self._value_at]))
        if self._scenario is None:
            return base
        position = int(values[self._index_at])
        return base * self._scenario.multiplier(self._context.task_index, position)

    def execute(self, tup: StormTuple) -> None:
        # Terminal operator: nothing to emit; auto-ack completes the tree.
        pass


class ForwardingBolt(Bolt):
    """Forwards its input downstream, anchored (for multi-stage tests)."""

    def prepare(self, context: TaskContext, collector: BoltCollector) -> None:
        self._collector = collector

    def execute(self, tup: StormTuple) -> None:
        self._collector.emit(tup.values, anchors=[tup])
