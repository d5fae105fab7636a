"""The discrete-event simulation core.

A :class:`Simulation` owns a virtual clock and a heap of events.
Processes (plain Python objects) schedule callbacks with
:meth:`Simulation.at` / :meth:`Simulation.after`; :meth:`Simulation.run`
drains events in timestamp order, advancing the clock.  Time never flows
backwards and the engine is single-threaded, so simulations are exactly
reproducible.

Events are ordered by ``(time, priority, sequence)``: ties at the same
timestamp resolve by explicit priority, then insertion order.  A heap
entry is a plain list ``[time, priority, sequence, fn, args]``, so the
heap compares entries element by element in C and the unique
``sequence`` settles every comparison before it could reach ``fn``.
The entry is also the handle :meth:`Simulation.cancel` takes.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from heapq import heappop, heappush

_INF = float("inf")


class Simulation:
    """A virtual-time event loop."""

    def __init__(self) -> None:
        self._heap: list[list] = []
        self._sequence = itertools.count()
        self._now = 0.0
        self._events_processed = 0
        self._running = False

    def clock(self) -> float:
        """Current virtual time (a bound method, for components' clocks)."""
        return self._now

    now = property(clock, doc="Current virtual time.")

    @property
    def events_processed(self) -> int:
        """Number of events executed so far.

        A :meth:`run` without limits credits its events when it returns
        (or raises), so a callback reading this mid-run sees the count
        at the start of that run.
        """
        return self._events_processed

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def at(
        self, time: float, fn: Callable[..., None], *args, priority: int = 0
    ) -> list:
        """Schedule ``fn(*args)`` at absolute virtual time ``time``.

        Returns the heap entry, the handle :meth:`cancel` takes.
        """
        if time < self._now:
            raise ValueError(
                f"cannot schedule in the past: {time} < now {self._now}"
            )
        if not time < _INF:  # NaN or infinite
            raise ValueError(f"event time must be finite, got {time}")
        entry = [time, priority, next(self._sequence), fn, args]
        heappush(self._heap, entry)
        return entry

    def after(
        self, delay: float, fn: Callable[..., None], *args, priority: int = 0
    ) -> list:
        """Schedule ``fn(*args)`` ``delay`` time units from now."""
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        time = self._now + delay
        if not time < _INF:  # NaN or infinite
            raise ValueError(f"event time must be finite, got {time}")
        entry = [time, priority, next(self._sequence), fn, args]
        heappush(self._heap, entry)
        return entry

    @staticmethod
    def cancel(handle: list) -> None:
        """Cancel a scheduled event; it is skipped when popped.

        Cancelling twice, or after the event fired, does nothing.
        """
        handle[3] = None

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Process events until the heap drains (or a limit is reached).

        Parameters
        ----------
        until:
            Stop before executing any event later than this time; the
            clock is left at ``until``.
        max_events:
            Safety valve against runaway simulations.

        Returns the final virtual time.
        """
        if self._running:
            raise RuntimeError("simulation is already running (re-entrant run)")
        self._running = True
        try:
            if until is None and max_events is None:
                return self._drain()
            heap = self._heap
            processed = 0
            while heap:
                entry = heap[0]
                fn = entry[3]
                if fn is None:  # cancelled
                    heappop(heap)
                    continue
                if until is not None and entry[0] > until:
                    self._now = until
                    break
                if max_events is not None and processed >= max_events:
                    break
                heappop(heap)
                self._now = entry[0]
                fn(*entry[4])
                self._events_processed += 1
                processed += 1
            return self._now
        finally:
            self._running = False

    def _drain(self) -> float:
        """:meth:`run` with no limit: pop and fire until the heap is empty.

        Counts fired events locally and credits them once, also when a
        callback raises (the raising event is not counted, as in the
        limited loop).
        """
        heap = self._heap
        processed = 0
        try:
            while heap:
                entry = heappop(heap)
                fn = entry[3]
                if fn is None:  # cancelled
                    continue
                self._now = entry[0]
                fn(*entry[4])
                processed += 1
        finally:
            self._events_processed += processed
        return self._now

    def step(self) -> bool:
        """Execute exactly one event; returns ``False`` when none remain."""
        heap = self._heap
        while heap:
            entry = heappop(heap)
            fn = entry[3]
            if fn is not None:
                self._now = entry[0]
                fn(*entry[4])
                self._events_processed += 1
                return True
        return False

    @property
    def pending(self) -> int:
        """Number of live events still queued."""
        return sum(1 for entry in self._heap if entry[3] is not None)
