"""The discrete-event simulation core.

A :class:`Simulation` owns a virtual clock and an event queue.  Processes
(plain Python objects) schedule callbacks with :meth:`Simulation.at` /
:meth:`Simulation.after`; :meth:`Simulation.run` drains events in
timestamp order, advancing the clock.  Time never flows backwards and the
engine is single-threaded, so simulations are exactly reproducible.
"""

from __future__ import annotations

from collections.abc import Callable
from heapq import heappop, heappush

from repro.simulator.events import Event, EventQueue

_INF = float("inf")


class Simulation:
    """A virtual-time event loop."""

    def __init__(self) -> None:
        self._queue = EventQueue()
        # ``after`` pushes onto the queue's heap itself (it runs ~4 times
        # per Storm tuple); same keys, same counter as ``EventQueue.push``.
        self._heap = self._queue._heap
        self._sequence = self._queue._counter
        self._now = 0.0
        self._events_processed = 0
        self._running = False

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

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
    ) -> Event:
        """Schedule ``fn(*args)`` at absolute virtual time ``time``."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule in the past: {time} < now {self._now}"
            )
        return self._queue.push(time, fn, args, priority)

    def after(
        self, delay: float, fn: Callable[..., None], *args, priority: int = 0
    ) -> Event:
        """Schedule ``fn(*args)`` ``delay`` time units from now."""
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        time = self._now + delay
        if not time < _INF:  # NaN or infinite
            raise ValueError(f"event time must be finite, got {time}")
        event = Event((time, priority, next(self._sequence), fn, args))
        heappush(self._heap, event)
        return event

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Process events until the queue drains (or a limit is reached).

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
                event = heap[0]
                fn = event[3]
                if fn is None:  # cancelled
                    heappop(heap)
                    continue
                if until is not None and event[0] > until:
                    self._now = until
                    break
                if max_events is not None and processed >= max_events:
                    break
                heappop(heap)
                self._now = event[0]
                fn(*event[4])
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
                event = heappop(heap)
                fn = event[3]
                if fn is None:  # cancelled
                    continue
                self._now = event[0]
                fn(*event[4])
                processed += 1
        finally:
            self._events_processed += processed
        return self._now

    def step(self) -> bool:
        """Execute exactly one event; returns ``False`` when none remain."""
        event = self._queue.pop()
        if event is None:
            return False
        self._now = event.time
        event.action()
        self._events_processed += 1
        return True

    @property
    def pending(self) -> int:
        """Number of live events still queued."""
        return len(self._queue)
