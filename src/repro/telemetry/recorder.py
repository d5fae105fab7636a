"""The telemetry recorder facade and its no-op twin.

A :class:`TelemetryRecorder` bundles the two halves of the telemetry
layer — a :class:`~repro.telemetry.registry.MetricsRegistry` and a
:class:`~repro.telemetry.tracer.Tracer` — behind one object that every
instrumented component accepts as an optional parameter.

The default everywhere is :data:`NULL_RECORDER`, a singleton
:class:`NullRecorder` whose registry and tracer are inert no-ops and
whose ``enabled`` flag is ``False``.  Hot paths guard instrumentation
with a single attribute check::

    if self._telemetry.enabled:
        self._telemetry.tracer.emit("scheduler_state", ...)

so the instrumented code costs one attribute load and a predictable
branch when telemetry is off (the pinned benchmark's
``telemetry.recorder.overhead_ratio`` holds this to account).
Cold paths may call the registry/tracer unguarded — the null objects
swallow everything.
"""

from __future__ import annotations

from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.tracer import Tracer


class _NullInstrument:
    """Accepts every Counter/Gauge/Histogram mutation and does nothing."""

    __slots__ = ()

    def inc(self, amount: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, values) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class _NullRegistry:
    """Registry stand-in: hands out the shared null instrument."""

    __slots__ = ()

    def counter(self, name, help="", labels=None):
        return _NULL_INSTRUMENT

    def gauge(self, name, help="", labels=None):
        return _NULL_INSTRUMENT

    def histogram(self, name, buckets=(), help="", labels=None):
        return _NULL_INSTRUMENT

    def register_collector(self, collector) -> None:
        pass

    def samples(self):
        return []

    def snapshot(self):
        return {}

    def to_prometheus(self) -> str:
        return ""


class _NullTracer:
    """Tracer stand-in: drops every event."""

    __slots__ = ()

    def emit(self, kind, **fields) -> None:
        pass

    def events(self, kind=None):
        return []

    emitted = 0
    dropped = 0

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


class TelemetryRecorder:
    """Live recorder: a metrics registry plus an event tracer.

    Parameters
    ----------
    registry:
        Metrics registry to record into (fresh one when omitted).
    tracer:
        Event tracer (fresh in-memory ring when omitted).  Pass
        ``Tracer.jsonl(path)`` to stream events to disk.
    """

    enabled = True

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()

    def close(self) -> None:
        """Flush and close the tracer's sink (registry needs no cleanup)."""
        self.tracer.close()

    def __enter__(self) -> "TelemetryRecorder":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __bool__(self) -> bool:
        return True


class NullRecorder:
    """Telemetry turned off: every observation is a no-op.

    Instrumented components default to :data:`NULL_RECORDER`, so a system
    built without explicit telemetry behaves (and benchmarks) exactly as
    an uninstrumented one.
    """

    enabled = False

    def __init__(self) -> None:
        self.registry = _NullRegistry()
        self.tracer = _NullTracer()

    def close(self) -> None:
        pass

    def __enter__(self) -> "NullRecorder":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def __bool__(self) -> bool:
        return False


#: process-wide default recorder (stateless, safe to share)
NULL_RECORDER = NullRecorder()
