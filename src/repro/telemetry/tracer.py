"""Structured event tracing: ring buffer and/or streaming JSONL sink.

The tracer is the ordered half of the telemetry layer.  Components emit
flat, JSON-serializable events at *cold* observation points (FSM
transitions, control-plane messages, run completion); the tracer stamps
each with a monotonically increasing ``seq`` and keeps it in a bounded
ring buffer, optionally streaming it to a JSONL file as it happens.

Event schema (one JSON object per line in JSONL mode)::

    {"seq": 17, "kind": "scheduler_state", "from": "wait_all",
     "to": "run", "epoch": 2, "at": 5120}

``seq`` orders events globally within one recorder; ``kind`` selects the
schema of the remaining fields (see EXPERIMENTS.md, "Telemetry & run
reports", for the catalogue of kinds emitted by the POSG stack).
Non-finite floats are serialized as the strings ``"inf"`` / ``"-inf"`` /
``"nan"`` so every line is strict JSON.
"""

from __future__ import annotations

import json
import math
from collections import deque
from io import IOBase
from pathlib import Path

from repro.bounds import OPTIONAL_COUNT


def _sanitize(value):
    """Make one field value strict-JSON safe."""
    if isinstance(value, float) and not math.isfinite(value):
        return "inf" if value > 0 else ("-inf" if value < 0 else "nan")
    return value


class Tracer:
    """Bounded in-memory event ring with an optional JSONL sink.

    Parameters
    ----------
    capacity:
        Ring-buffer size.  ``None`` keeps every event in memory — fine
        for tests and short runs.
    sink:
        A path or open text file to stream events to as JSON lines.  The
        tracer owns (and closes) the file only when given a path.

    Overflow semantics
    ------------------
    Once the ring is full, every further :meth:`emit` evicts the
    *oldest* buffered event (the ring keeps the *suffix* of the
    stream) and increments :attr:`dropped`.  Evicted events
    are gone from memory but remain in the JSONL sink when one is
    attached, and ``seq`` numbering is never affected — so
    ``emitted == len(events()) + dropped`` always holds, and a reader
    can detect a truncated trace by checking ``dropped > 0`` (surfaced
    as ``tracer.dropped`` in RunReport v4).  This sliding-window policy
    intentionally differs from the flight recorder's prefix-keep
    policy: an FSM trace is most useful near the end of a run, while
    flight timelines must stay bit-comparable across engines.

    One process, one ring: ``Tracer`` is not safe to share across
    processes.
    """

    def __init__(
        self,
        capacity: int | None = 65_536,
        sink: "str | Path | IOBase | None" = None,
    ) -> None:
        capacity = OPTIONAL_COUNT.check("capacity", capacity)
        self._ring: deque = deque(maxlen=capacity)
        self._seq = 0
        self._dropped = 0
        self._owns_sink = isinstance(sink, (str, Path))
        self._sink = open(sink, "w") if self._owns_sink else sink

    @classmethod
    def jsonl(cls, path: "str | Path", capacity: int | None = 65_536) -> "Tracer":
        """Tracer streaming to a JSONL file at ``path``."""
        return cls(capacity=capacity, sink=path)

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------
    def emit(self, kind: str, **fields) -> None:
        """Record one event; fields must be JSON-serializable scalars."""
        event = {"seq": self._seq, "kind": kind}
        for key, value in fields.items():
            event[key] = _sanitize(value)
        self._seq += 1
        if self._ring.maxlen is not None and len(self._ring) == self._ring.maxlen:
            self._dropped += 1
        self._ring.append(event)
        if self._sink is not None:
            self._sink.write(json.dumps(event, sort_keys=False) + "\n")

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def events(self, kind: str | None = None) -> list[dict]:
        """Buffered events (oldest first), optionally filtered by kind."""
        if kind is None:
            return list(self._ring)
        return [event for event in self._ring if event["kind"] == kind]

    @property
    def emitted(self) -> int:
        """Total events emitted (including any dropped from the ring)."""
        return self._seq

    @property
    def dropped(self) -> int:
        """Events evicted from the ring buffer (still in the sink, if any)."""
        return self._dropped

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def flush(self) -> None:
        if self._sink is not None:
            self._sink.flush()

    def close(self) -> None:
        """Flush and, when the tracer opened the sink itself, close it."""
        if self._sink is not None:
            self._sink.flush()
            if self._owns_sink:
                self._sink.close()
                self._sink = None

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
