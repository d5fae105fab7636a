"""Stream groupings: how a component's output is partitioned over the
subscribed bolt's tasks.

``ShuffleGrouping`` matches Apache Storm's stock implementation — a
round-robin rotation over the target tasks — which is exactly the
baseline the paper calls **ASSG** (Section V-C).  POSG arrives through
the :class:`CustomStreamGrouping` extension point, mirroring how the
paper's prototype integrates with Storm.
"""

from __future__ import annotations

import abc

from repro.storm.tuples import StormTuple


class StreamGrouping(abc.ABC):
    """Chooses target task indices for each outbound tuple."""

    def prepare(self, source: str, target_tasks: list[int]) -> None:
        """Bind to the target bolt's task ids (ascending order)."""
        if not target_tasks:
            raise ValueError("grouping needs at least one target task")
        self._target_tasks = list(target_tasks)

    @property
    def target_tasks(self) -> list[int]:
        """The subscribed bolt's task ids."""
        return self._target_tasks

    @abc.abstractmethod
    def choose_tasks(self, tup: StormTuple) -> list[int]:
        """Target task ids (usually one) for this tuple."""


class ShuffleGrouping(StreamGrouping):
    """Storm's stock shuffle grouping: round-robin over target tasks (ASSG)."""

    def prepare(self, source: str, target_tasks: list[int]) -> None:
        super().prepare(source, target_tasks)
        self._index = 0

    def choose_tasks(self, tup: StormTuple) -> list[int]:
        task = self._target_tasks[self._index]
        self._index = (self._index + 1) % len(self._target_tasks)
        return [task]


class AllGrouping(StreamGrouping):
    """Replicate every tuple to every target task."""

    def choose_tasks(self, tup: StormTuple) -> list[int]:
        return list(self._target_tasks)


class CustomStreamGrouping(StreamGrouping):
    """Extension point for user-defined groupings (Storm's
    ``CustomStreamGrouping`` interface).

    Subclasses may additionally implement the engine-facing hooks used by
    POSG:

    - :meth:`on_control` — receive a control message from a bolt task;
    - :meth:`wants_execution_reports` — ask the cluster to report each
      executed tuple back (task id, item, measured duration, piggy-backed
      sync request).
    """

    def on_control(self, message) -> None:
        """Control message from a downstream task (default: ignored)."""

    def wants_execution_reports(self) -> bool:
        """Whether bolt tasks must report executions to this grouping."""
        return False

    def on_execution(
        self, task: int, tup: StormTuple, duration: float
    ) -> list:
        """An execution report; returns control messages for the grouping.

        Only called when :meth:`wants_execution_reports` is true.  The
        returned messages are delivered back to :meth:`on_control` after
        the cluster's control-plane latency.
        """
        return []
