"""Event primitives for the discrete-event engine.

Events are ordered by ``(time, priority, sequence)``: ties at the same
timestamp resolve by explicit priority, then insertion order, which makes
every simulation fully deterministic.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable

_INF = float("inf")


class Event(list):
    """One scheduled callback: ``[time, priority, sequence, fn, args]``.

    A list, so the heap compares entries element by element in C; the
    unique ``sequence`` settles every comparison before it could reach
    ``fn``.  Cancelling clears ``fn`` in place.
    """

    __slots__ = ()

    @property
    def time(self) -> float:
        return self[0]

    @property
    def cancelled(self) -> bool:
        return self[3] is None

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when popped."""
        self[3] = None

    def action(self) -> None:
        """Call ``fn(*args)``."""
        self[3](*self[4])


class EventQueue:
    """A deterministic min-heap of events."""

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._counter = itertools.count()

    def push(
        self, time: float, fn: Callable[..., None], args: tuple = (), priority: int = 0
    ) -> Event:
        """Schedule ``fn(*args)`` at ``time``; returns the (cancellable) event."""
        if not time < _INF:  # NaN or infinite
            raise ValueError(f"event time must be finite, got {time}")
        event = Event((time, priority, next(self._counter), fn, args))
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Event | None:
        """Remove and return the earliest live event, or ``None`` if empty."""
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)
            if event[3] is not None:
                return event
        return None

    def peek_time(self) -> float | None:
        """Timestamp of the earliest live event without removing it."""
        heap = self._heap
        while heap and heap[0][3] is None:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def __len__(self) -> int:
        return sum(1 for event in self._heap if event[3] is not None)

    def __bool__(self) -> bool:
        return self.peek_time() is not None
