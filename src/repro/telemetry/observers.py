"""The one attach point for a run's three read-only observers.

``audit=``, ``flight=`` and ``lineage=`` each accept a config or a
pre-built instance; both entry points that take them
(``simulate_stream`` and ``simulate_stream_parallel``) hand all three
to :class:`Observers`, which owns the three decisions neither
re-implements:

- **resolve** — the constructor type-checks the arguments and touches
  nothing else, so a bad argument is rejected before ``policy.setup``
  draws from the caller's generator;
- **bind** — :meth:`Observers.bind`, once the policy is set up, builds
  the observers from their configs (audit, flight, lineage: the order
  their export collectors register in) and ties them to the policy's
  ``s`` schedulers;
- **sample** — :meth:`Observers.sample` feeds whichever observers are
  due at a stream index and returns the next due index, so an engine
  loop keeps one sentinel compare whatever is attached.
"""

from __future__ import annotations

import sys

from repro.telemetry.audit import AuditConfig, EstimatorAudit
from repro.telemetry.flightrecorder import FlightRecorder, FlightRecorderConfig
from repro.telemetry.lineage import LineageConfig, LineageTracer
from repro.telemetry.recorder import NULL_RECORDER

#: ``next_due`` with nothing attached: an index no stream reaches
NEVER = sys.maxsize

_ACCEPTED = {
    "audit": (AuditConfig, EstimatorAudit),
    "flight": (FlightRecorderConfig, FlightRecorder),
    "lineage": (LineageConfig, LineageTracer),
}


class Observers:
    """The estimator audit, flight recorder and lineage tracer of one run.

    ``audit``, ``flight`` and ``lineage`` are ``None`` until
    :meth:`bind` and for whatever was not asked for.
    """

    __slots__ = (
        "audit", "flight", "lineage", "next_due",
        "_specs", "_telemetry", "_schedulers",
        "_audit_every", "_flight_every", "_lineage_every",
    )

    def __init__(self, audit=None, flight=None, lineage=None, telemetry=None) -> None:
        self._specs = (audit, flight, lineage)
        for spec, (name, (config, built)) in zip(self._specs, _ACCEPTED.items()):
            if spec is not None and not isinstance(spec, (config, built)):
                raise TypeError(
                    f"{name} must be {config.__name__} or {built.__name__}, "
                    f"got {spec!r}"
                )
        self._telemetry = telemetry if telemetry is not None else NULL_RECORDER
        self._schedulers: tuple = ()
        self.audit: EstimatorAudit | None = None
        self.flight: FlightRecorder | None = None
        self.lineage: LineageTracer | None = None
        self._audit_every = self._flight_every = self._lineage_every = 0
        self.next_due = NEVER

    def bind(self, policy) -> None:
        """Tie the observers to ``policy``, which must be set up.

        A POSG-family policy exposes its ``s >= 1`` schedulers: the audit
        reads shard 0's estimator (the matrices broadcast keeps every
        shard's stored pair numerically identical), the flight recorder
        hears every scheduler's control events, and flight and lineage
        bump their strides to be coprime with ``s``.  Any other policy
        can only be lineage-traced (with empty believed loads) or
        audited by a pre-built :class:`EstimatorAudit`, which brings its
        own estimator.
        """
        schedulers = tuple(getattr(policy, "schedulers", ()))
        name = getattr(policy, "name", policy)
        audit, flight, lineage = self._specs
        if isinstance(audit, AuditConfig):
            if not schedulers:
                raise ValueError(
                    "audit=AuditConfig(...) needs a policy exposing a scheduler "
                    f"(POSG); policy {name!r} has none"
                )
            audit = EstimatorAudit(schedulers[0], audit, telemetry=self._telemetry)
        if flight is not None:
            if not schedulers:
                raise ValueError(
                    "flight recording needs a POSG-family policy (one exposing "
                    f"its schedulers); policy {name!r} has none"
                )
            if isinstance(flight, FlightRecorderConfig):
                flight = FlightRecorder(flight, telemetry=self._telemetry)
            flight.bind(len(schedulers))
            for scheduler in schedulers:
                scheduler.attach_flight(flight)
        if lineage is not None:
            if isinstance(lineage, LineageConfig):
                lineage = LineageTracer(lineage, telemetry=self._telemetry)
            lineage.bind(len(schedulers) or 1)
        self._schedulers = schedulers
        self.audit, self.flight, self.lineage = audit, flight, lineage
        self._audit_every = audit.sample_every if audit is not None else 0
        self._flight_every = flight.sample_every if flight is not None else 0
        self._lineage_every = lineage.sample_every if lineage is not None else 0
        # every stride divides 0, so anything attached is due at once
        attached = self._audit_every or self._flight_every or self._lineage_every
        self.next_due = 0 if attached else NEVER

    def sample(
        self,
        shard: int,
        index: int,
        item: int,
        instance: int,
        believed,
        arrival: float,
        at_instance: float,
        start: float,
        finish: float,
        execution_time: float,
        window_remaining: int,
    ) -> int:
        """Feed the observers due at stream ``index``; return the next due index.

        ``believed`` is the owning shard's load vector *after* this
        tuple's estimate was added — what ``submit`` leaves in ``C_hat``
        and what a segment commits — so per-tuple and segment engines
        record the same floats.  ``window_remaining`` is the chosen
        instance's count *before* it executes this tuple.  An observer
        is due when its stride divides ``index``; they are fed audit,
        flight, lineage, the order the per-tuple reference loop always
        used (none reads what another writes).  The clocks
        (``at_instance``, ``start``, ``finish``) may be ``None`` where
        :meth:`reads_clocks` says no observer reads them.
        """
        next_due = NEVER
        every = self._audit_every
        if every:
            if index % every == 0:
                self.audit.observe(index, item, instance, execution_time)
            next_due = index - index % every + every
        every = self._flight_every
        if every:
            if index % every == 0:
                self.flight.record_route(shard, index, instance, believed)
            due = index - index % every + every
            if due < next_due:
                next_due = due
        every = self._lineage_every
        if every:
            if index % every == 0:
                self.lineage.record_sample(
                    shard, index, instance, believed, arrival, at_instance,
                    start, finish, window_remaining,
                )
            due = index - index % every + every
            if due < next_due:
                next_due = due
        self.next_due = next_due
        return next_due

    def reads_clocks(self, index: int) -> bool:
        """Whether a sample at stream ``index`` feeds an observer that
        reads the tuple's clocks — only the lineage tracer does — so an
        engine that serves tuples after routing them serves this one first.
        """
        every = self._lineage_every
        return every != 0 and index % every == 0

    def sample_routed(self, index: int, item: int, instance: int, *clocks) -> int:
        """:meth:`sample` right after ``policy.route`` routed ``index``.

        Tuple ``index`` belongs to shard ``index mod s`` and that
        scheduler's ``C_hat`` already holds the post-decision loads; a
        policy without schedulers records as shard 0 believing nothing.
        ``clocks`` are :meth:`sample`'s arguments from ``arrival`` on.
        """
        schedulers = self._schedulers
        if schedulers:
            shard = index % len(schedulers)
            believed = schedulers[shard]._c_hat.tolist()
        else:
            shard, believed = 0, ()
        return self.sample(shard, index, item, instance, believed, *clocks)
