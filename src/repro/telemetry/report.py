"""JSON run reports: one document summarizing a simulated run.

A :class:`RunReport` condenses what the paper's evaluation reads off a
run — the completion-time metric ``L``, speedup over a baseline,
per-instance load imbalance, control-plane overhead (messages *and*
bits, Figure 12), and the FSM timelines of the scheduler and instances —
into a single JSON-serializable object.

The builder is duck-typed over
:class:`~repro.simulator.run.SimulationResult` (it only reads public
attributes) so this module stays dependency-free and import-cycle-free:
``repro.telemetry`` never imports ``repro.core`` or ``repro.simulator``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

#: tracer event kinds that make up the FSM timeline section
FSM_EVENT_KINDS = ("scheduler_state", "instance_window")

SCHEMA = "posg-run-report/v6"


@dataclass
class RunReport:
    """Everything worth keeping from one run, JSON-ready."""

    schema: str
    policy: str
    m: int
    k: int
    #: the paper's ``L`` metric, milliseconds
    average_completion_ms: float
    max_completion_ms: float
    p99_completion_ms: float
    #: ``S_L`` against the supplied baseline run, or None
    speedup_vs_baseline: float | None
    #: tuples routed to each instance
    instance_tuple_counts: list[int]
    #: ``max/mean - 1`` over the per-instance tuple counts (0 = perfectly even)
    imbalance: float
    control_messages: int
    control_bits: int
    #: stream index where the scheduler first reached RUN, or None
    run_entry_index: int | None
    #: ``[index, state]`` pairs for every scheduler FSM change
    state_transitions: list = field(default_factory=list)
    #: ``POSGScheduler.stats()`` when the policy exposes a scheduler
    scheduler: dict | None = None
    #: per-instance tracker stats when the policy exposes trackers
    instances: list | None = None
    #: tracer events of the FSM kinds (bounded by the ring capacity)
    fsm_timeline: list = field(default_factory=list)
    #: flat metrics snapshot from the recorder's registry
    metrics: dict = field(default_factory=dict)
    #: ``FaultInjector.report()`` when the run was fault-injected (v2)
    faults: dict | None = None
    #: ``EstimatorAudit.report()`` when the run was audited (v3)
    audit: dict | None = None
    #: ``compute_quality(...)`` decision-quality metrics (v3)
    quality: dict | None = None
    #: ``FlightRecorder.report()`` when a flight recorder flew (v4)
    flightrecorder: dict | None = None
    #: tracer ring-buffer accounting (emitted vs dropped, v4) — nonzero
    #: ``dropped`` means the embedded ``fsm_timeline`` is truncated
    tracer: dict | None = None
    #: ``LineageTracer.report()`` when per-tuple lineage was traced (v6)
    #: — latency decomposition quantiles and evaluated SLOs
    lineage: dict | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_simulation(
        cls,
        result,
        k: int,
        baseline=None,
        telemetry=None,
        policy_name: str | None = None,
        quality: dict | None = None,
    ) -> "RunReport":
        """Build a report from a ``SimulationResult``-shaped object.

        Parameters
        ----------
        result:
            The run to report on (``stats``, ``control_messages``,
            ``control_bits``, ``state_transitions`` are read).
        k:
            Number of downstream instances.
        baseline:
            Optional second result; when given, ``speedup_vs_baseline``
            is ``sum(L_baseline) / sum(L_result)`` (Section V-A).
        telemetry:
            Optional recorder whose registry snapshot and FSM trace
            events are embedded.
        policy_name:
            Overrides ``result.policy.name``.
        quality:
            Optional decision-quality dict from
            :func:`repro.telemetry.quality.compute_quality` (it needs
            the stream/scenario, which ``result`` does not carry, so the
            caller computes it).  The run's estimator-audit block is
            picked up automatically from ``result.audit``.
        """
        stats = result.stats
        policy = getattr(result, "policy", None)
        name = policy_name or getattr(policy, "name", "unknown")
        counts = stats.instance_tuple_counts(k)
        mean_count = float(counts.mean())
        imbalance = float(counts.max() / mean_count - 1.0) if mean_count > 0 else 0.0

        speedup = None
        if baseline is not None:
            speedup = float(stats.speedup_over(baseline.stats))

        transitions = [
            [int(index), getattr(state, "value", str(state))]
            for index, state in getattr(result, "state_transitions", [])
        ]
        run_entry = None
        entry_fn = getattr(result, "run_entry_index", None)
        if callable(entry_fn):
            run_entry = entry_fn()

        scheduler_stats = None
        instance_stats = None
        scheduler = getattr(policy, "scheduler", None)
        if scheduler is not None and hasattr(scheduler, "stats"):
            scheduler_stats = scheduler.stats()
            tracker_fn = getattr(policy, "tracker", None)
            if callable(tracker_fn):
                collected = []
                for instance in range(k):
                    try:
                        tracker = tracker_fn(instance)
                    except KeyError:
                        continue
                    collected.append(tracker.stats())
                instance_stats = collected or None

        timeline: list = []
        metrics: dict = {}
        tracer_stats = None
        if telemetry is not None and telemetry.enabled:
            events = telemetry.tracer.events()
            timeline = [e for e in events if e["kind"] in FSM_EVENT_KINDS]
            metrics = telemetry.registry.snapshot()
            tracer_stats = {
                "emitted": int(telemetry.tracer.emitted),
                "dropped": int(telemetry.tracer.dropped),
            }

        faults = None
        injector = getattr(result, "faults", None)
        if injector is not None and hasattr(injector, "report"):
            faults = injector.report()

        audit = None
        auditor = getattr(result, "audit", None)
        if auditor is not None and hasattr(auditor, "report"):
            audit = auditor.report()

        flightrecorder = None
        flight = getattr(result, "flight", None)
        if flight is not None and hasattr(flight, "report"):
            flightrecorder = flight.report()

        lineage = None
        tracer = getattr(result, "lineage", None)
        if tracer is not None and hasattr(tracer, "report"):
            lineage = tracer.report()

        return cls(
            schema=SCHEMA,
            policy=name,
            m=stats.m,
            k=k,
            average_completion_ms=stats.average_completion_time,
            max_completion_ms=stats.max_completion_time,
            p99_completion_ms=stats.percentile(99.0),
            speedup_vs_baseline=speedup,
            instance_tuple_counts=[int(c) for c in counts],
            imbalance=imbalance,
            control_messages=int(getattr(result, "control_messages", 0)),
            control_bits=int(getattr(result, "control_bits", 0)),
            run_entry_index=run_entry,
            state_transitions=transitions,
            scheduler=scheduler_stats,
            instances=instance_stats,
            fsm_timeline=timeline,
            metrics=metrics,
            faults=faults,
            audit=audit,
            quality=quality,
            flightrecorder=flightrecorder,
            tracer=tracer_stats,
            lineage=lineage,
        )

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, default=_json_default)

    def save(self, path: "str | Path") -> Path:
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path

    # ------------------------------------------------------------------
    # human summary
    # ------------------------------------------------------------------
    def summary(self) -> str:
        """A few human-readable lines for CLI output."""
        lines = [
            f"policy={self.policy}  m={self.m}  k={self.k}",
            f"L (avg completion) = {self.average_completion_ms:.3f} ms   "
            f"p99 = {self.p99_completion_ms:.3f} ms   "
            f"max = {self.max_completion_ms:.3f} ms",
            f"imbalance = {self.imbalance:.4f}   "
            f"tuples/instance = {self.instance_tuple_counts}",
            f"control plane: {self.control_messages} messages, "
            f"{self.control_bits} bits",
        ]
        if self.speedup_vs_baseline is not None:
            lines.insert(2, f"speedup vs baseline = {self.speedup_vs_baseline:.3f}")
        if self.run_entry_index is not None:
            lines.append(f"scheduler entered RUN at tuple {self.run_entry_index}")
        if self.audit is not None:
            rel = self.audit.get("rel_error_quantiles", {})
            quantiles = "  ".join(
                f"{key}={value:.3f}"
                for key, value in rel.items()
                if value is not None
            )
            lines.append(
                f"estimator audit: {self.audit.get('samples', 0)} samples, "
                f"mean |err| = {self.audit.get('mean_abs_error_ms', 0.0):.3f} ms"
                + (f", rel err {quantiles}" if quantiles else "")
            )
        if self.quality is not None:
            makespan = self.quality["makespan"]
            lines.append(
                "quality: achieved/oracle makespan = "
                f"{makespan['achieved_vs_oracle']:.4f}, oracle/LB = "
                f"{makespan['oracle_gos_ratio']:.4f} "
                f"(bound {makespan['graham_bound']:.2f}), misrouted = "
                f"{self.quality['regret']['misroute_fraction']:.4f}"
            )
        if self.lineage is not None:
            components = self.lineage.get("components", {})
            shares = "  ".join(
                f"{name}={components[name]['share']:.2%}"
                for name in ("scheduling_delay", "queue_wait", "service_time")
                if name in components
            )
            lines.append(
                f"lineage: {self.lineage.get('samples_total', 0)} sampled "
                f"spans (every {self.lineage.get('sample_every', 0)}th tuple"
                f", {self.lineage.get('dropped_samples', 0)} dropped)"
                + (f", completion share {shares}" if shares else "")
            )
            for slo in self.lineage.get("slos", []):
                lines.append(
                    f"slo {slo['name']}: p{slo['percentile']:g} < "
                    f"{slo['latency_ms']:g} ms -> "
                    f"{'MET' if slo['met'] else 'MISSED'} "
                    f"(burn rate {slo['burn_rate']:.2f}, "
                    f"{slo['violations']}/{slo['samples']} over)"
                )
        if self.tracer is not None and self.tracer.get("dropped", 0):
            lines.append(
                f"tracer: {self.tracer['dropped']} of "
                f"{self.tracer['emitted']} events dropped by the ring "
                "buffer — fsm_timeline is truncated"
            )
        return "\n".join(lines)


def _json_default(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON serializable: {type(value)!r}")
