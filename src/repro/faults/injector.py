"""Seeded runtime realization of a :class:`~repro.faults.plan.FaultPlan`.

The injector is the single stateful object of the fault subsystem: it
owns the private random generator that turns the plan's probabilities
into concrete fault decisions, counts everything it injects, and emits
tracer events so a chaos run's timeline can be reconstructed from the
trace alone.  Engines interpose it at exactly two points:

- control-message dispatch — :meth:`deliver_times` maps one outgoing
  message and its nominal delivery time to zero (dropped), one, or two
  (duplicated) delivery times, possibly shifted by delay/reorder faults;
- sync-request piggy-backing — :meth:`drop_request` decides whether the
  request riding on a data tuple is lost (the only fault kind that makes
  sense for piggy-backed messages).

Scripted crashes are driven *by the engine* (each engine owns its notion
of time and of what "the instance is down" means); the injector supplies
the sorted schedule via :attr:`crashes` and books the events through
:meth:`note_crash` / :meth:`note_restart`.

Determinism: all randomness comes from ``default_rng(plan.seed)`` and is
drawn only in :meth:`deliver_times` and :meth:`drop_request`, i.e. when
a message is emitted; crashes are functions of virtual time.  Every
engine emits messages in arrival order, so a
(plan, seed, workload) triple reproduces the same faults — including
across the per-tuple and chunked simulator engines: the chunked engine
routes whole segments between emissions, but the emissions themselves
(window closes, SEND_ALL tuples) happen in the same order.
"""

from __future__ import annotations

import numpy as np

from repro.core.messages import (
    ControlMessage,
    MatricesMessage,
    SyncReply,
    SyncRequest,
)
from repro.faults.plan import FaultPlan, MessageFaults
from repro.telemetry.recorder import NULL_RECORDER
from repro.telemetry.registry import Sample

#: message-kind keys used in counters, traces and reports
KINDS = ("matrices", "sync_request", "sync_reply")


class FaultInjector:
    """Stateful, seeded executor of one :class:`FaultPlan`.

    Parameters
    ----------
    plan:
        The faults to inject.
    k:
        Number of operator instances, when known; scripted faults
        naming an instance ``>= k`` are rejected early instead of
        misfiring silently mid-run.
    telemetry:
        Optional recorder; fault counters export as ``posg_fault_*``
        metrics and every injected fault emits a tracer event.
    """

    def __init__(self, plan: FaultPlan, k: int | None = None, telemetry=NULL_RECORDER) -> None:
        if k is not None:
            for crash in plan.crashes:
                if crash.instance >= k:
                    raise ValueError(
                        f"scripted fault targets instance {crash.instance} "
                        f"but only {k} instances exist"
                    )
        self._plan = plan
        self._telemetry = telemetry if telemetry is not None else NULL_RECORDER
        self._rng = np.random.default_rng(plan.seed)
        # per-scheduler channel overrides (multi-source deployments);
        # empty dicts for ordinary plans, so the lookups below fall
        # straight through to the global channels
        self._request_overrides = dict(plan.source_sync_requests)
        self._reply_overrides = dict(plan.source_sync_replies)
        self._crashes = tuple(sorted(plan.crashes, key=lambda c: c.at_ms))
        self._dropped = dict.fromkeys(KINDS, 0)
        self._duplicated = dict.fromkeys(KINDS, 0)
        self._delayed = dict.fromkeys(KINDS, 0)
        self._reordered = dict.fromkeys(KINDS, 0)
        self._crashes_fired = 0
        self._restarts_fired = 0
        self._telemetry.registry.register_collector(self._collect_samples)

    # ------------------------------------------------------------------
    # control-plane interposition
    # ------------------------------------------------------------------
    def deliver_times(self, message: ControlMessage, base_delivery: float) -> list[float]:
        """Fault one outgoing message; return its delivery time(s).

        ``[]`` means dropped; two entries mean duplicated.  Each copy's
        delay/reorder faults are drawn independently, so a duplicate can
        overtake the original — which is exactly the reordering the
        scheduler's epoch/stale-reply machinery must survive.
        """
        kind, faults = self._classify(message)
        if faults is None or not faults.active:
            return [base_delivery]
        rng = self._rng
        if faults.drop > 0.0 and rng.random() < faults.drop:
            self._dropped[kind] += 1
            self._emit("fault_drop", kind, message)
            return []
        copies = 1
        if faults.duplicate > 0.0 and rng.random() < faults.duplicate:
            copies = 2
            self._duplicated[kind] += 1
            self._emit("fault_duplicate", kind, message)
        times = []
        for _ in range(copies):
            when = base_delivery
            if faults.delay > 0.0 and rng.random() < faults.delay:
                when += faults.delay_ms
                self._delayed[kind] += 1
                self._emit("fault_delay", kind, message, extra_ms=faults.delay_ms)
            if faults.reorder > 0.0 and rng.random() < faults.reorder:
                jitter = float(rng.uniform(0.0, faults.reorder_ms))
                when += jitter
                self._reordered[kind] += 1
                self._emit("fault_reorder", kind, message, extra_ms=jitter)
            times.append(when)
        return times

    def drop_request(self, request: SyncRequest | None = None) -> bool:
        """Whether the piggy-backed :class:`SyncRequest` being sent is lost.

        Piggy-backed requests ride on data tuples, so drop is the only
        supported fault for them: the tuple itself is always delivered
        (shuffle grouping must not lose data), only its control payload
        vanishes.  Passing the ``request`` lets multi-source plans apply
        a per-scheduler override (keyed by ``request.source``); without
        one the global ``sync_requests`` channel applies.
        """
        faults = self._plan.sync_requests
        if request is not None and self._request_overrides:
            faults = self._request_overrides.get(request.source, faults)
        if faults.drop > 0.0 and self._rng.random() < faults.drop:
            self._dropped["sync_request"] += 1
            if self._telemetry.enabled:
                self._telemetry.tracer.emit("fault_drop", channel="sync_request")
            return True
        return False

    def _classify(self, message: ControlMessage) -> tuple[str, MessageFaults | None]:
        """Resolve the fault channel for one message.

        Source-tagged messages (sync requests and replies) consult the
        plan's per-scheduler overrides first; matrices are a broadcast
        channel (the per-shard fan-out happens inside the policy, past
        the network the injector models) and always use the global
        probabilities.
        """
        if isinstance(message, MatricesMessage):
            return "matrices", self._plan.matrices
        if isinstance(message, SyncReply):
            if self._reply_overrides:
                override = self._reply_overrides.get(message.source)
                if override is not None:
                    return "sync_reply", override
            return "sync_reply", self._plan.sync_replies
        if isinstance(message, SyncRequest):
            if self._request_overrides:
                override = self._request_overrides.get(message.source)
                if override is not None:
                    return "sync_request", override
            return "sync_request", self._plan.sync_requests
        return "unknown", None

    def _emit(self, event: str, kind: str, message: ControlMessage, **extra) -> None:
        if not self._telemetry.enabled:
            return
        instance = getattr(message, "instance", None)
        self._telemetry.tracer.emit(event, channel=kind, instance=instance, **extra)

    # ------------------------------------------------------------------
    # instance faults
    # ------------------------------------------------------------------
    @property
    def crashes(self) -> tuple:
        """Scripted crash events, sorted by ``at_ms`` (engine-driven)."""
        return self._crashes

    def note_crash(self, instance: int, at_ms: float) -> None:
        """Book a crash the engine just fired."""
        self._crashes_fired += 1
        if self._telemetry.enabled:
            self._telemetry.tracer.emit("fault_crash", instance=instance, at_ms=at_ms)

    def note_restart(self, instance: int, at_ms: float) -> None:
        """Book the matching restart."""
        self._restarts_fired += 1
        if self._telemetry.enabled:
            self._telemetry.tracer.emit("fault_restart", instance=instance, at_ms=at_ms)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        """Whether the plan can inject anything (engines may skip us)."""
        return self._plan.active

    def report(self) -> dict:
        """Plan summary plus injected-fault counters, for ``report.json``."""
        return {
            "plan": self._plan.summary(),
            "injected": {
                "dropped": dict(self._dropped),
                "duplicated": dict(self._duplicated),
                "delayed": dict(self._delayed),
                "reordered": dict(self._reordered),
                "crashes": self._crashes_fired,
                "restarts": self._restarts_fired,
            },
        }

    def _collect_samples(self) -> list[Sample]:
        """Export-time metric samples (registered as a collector)."""
        samples = []
        for name, counts in (
            ("posg_fault_dropped_total", self._dropped),
            ("posg_fault_duplicated_total", self._duplicated),
            ("posg_fault_delayed_total", self._delayed),
            ("posg_fault_reordered_total", self._reordered),
        ):
            samples.extend(
                Sample(
                    name,
                    counts[kind],
                    "counter",
                    (("kind", kind),),
                    help="Control messages faulted by the injector",
                )
                for kind in KINDS
            )
        samples.append(
            Sample(
                "posg_fault_crashes_total",
                self._crashes_fired,
                "counter",
                help="Scripted instance crashes fired",
            )
        )
        samples.append(
            Sample(
                "posg_fault_restarts_total",
                self._restarts_fired,
                "counter",
                help="Scripted instance restarts fired",
            )
        )
        return samples

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultInjector(active={self.active}, seed={self._plan.seed}, "
            f"crashes={len(self._crashes)})"
        )
