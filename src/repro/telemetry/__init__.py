"""repro.telemetry — unified observability for the POSG stack.

Three pieces, all dependency-free (stdlib + numpy):

- :class:`MetricsRegistry` — counters, gauges, fixed-bucket histograms,
  plus export-time *collectors* that mirror component-internal statistics
  with zero hot-path cost (:mod:`repro.telemetry.registry`);
- :class:`Tracer` — structured events (FSM transitions, sketch ships,
  sync rounds) in a bounded ring buffer and/or a streaming JSONL sink
  (:mod:`repro.telemetry.tracer`);
- :class:`TelemetryRecorder` — the facade components accept; its default,
  the :data:`NULL_RECORDER` singleton, makes every observation a no-op so
  uninstrumented runs pay ~nothing (:mod:`repro.telemetry.recorder`).

:class:`RunReport` condenses a finished run into one JSON document
(:mod:`repro.telemetry.report`); :func:`provenance` stamps benchmark
artifacts (:mod:`repro.telemetry.provenance`).

The quality-observability layer builds on those hooks:

- :class:`EstimatorAudit` — deterministic sampling of routed tuples,
  streaming W/F estimation-error quantiles and Theorem 4.3 tail checks
  (:mod:`repro.telemetry.audit`);
- :func:`compute_quality` — post-run decision-quality metrics: oracle
  GOS makespan, windowed imbalance and misroute regret
  (:mod:`repro.telemetry.quality`);
- :class:`PhaseProfiler` — nanosecond span profiler for the engine hot
  paths, flamegraph-ready (:mod:`repro.telemetry.profiler`);
- :class:`P2Quantile` — the O(1)-memory streaming quantile estimator
  shared by the audit and :class:`~repro.simulator.metrics.CompletionStats`
  (:mod:`repro.telemetry.quantiles`);
- :func:`render_frame` / :class:`LiveDashboard` /
  :func:`write_html_report` — the live ANSI view and the static HTML
  quality report (:mod:`repro.telemetry.dashboard`), driven by
  ``python -m repro.experiments observe``;
- :class:`FlightRecorder` — the cross-shard flight recorder: causal
  per-shard event timelines (sync rounds, folds, matrices, sampled
  routing decisions with believed loads), bit-identical across engines
  (:mod:`repro.telemetry.flightrecorder`); :func:`render_shard_lanes`
  draws them, and :func:`write_html_report` draws any report's flight
  block with it.

Usage::

    from repro.telemetry import TelemetryRecorder, Tracer

    recorder = TelemetryRecorder(tracer=Tracer.jsonl("trace.jsonl"))
    policy = POSGGrouping(POSGConfig.paper_defaults(), telemetry=recorder)
    result = simulate_stream(stream, policy, k=5, telemetry=recorder)
    print(recorder.registry.to_prometheus())
    report = RunReport.from_simulation(result, k=5, telemetry=recorder)
    recorder.close()

The ``telemetry`` CLI subcommand (``python -m repro.experiments
telemetry``) wires all of this together for the Figure 4 configuration.
"""

from repro.telemetry.audit import AuditConfig, EstimatorAudit
from repro.telemetry.dashboard import (
    LiveDashboard,
    render_frame,
    render_shard_lanes,
    write_html_report,
)
from repro.telemetry.flightrecorder import FlightRecorder, FlightRecorderConfig
from repro.telemetry.profiler import PhaseProfiler
from repro.telemetry.provenance import git_sha, provenance
from repro.telemetry.quality import (
    compute_quality,
    execution_time_matrix,
    record_quality,
)
from repro.telemetry.quantiles import P2Quantile
from repro.telemetry.recorder import NULL_RECORDER, NullRecorder, TelemetryRecorder
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Sample,
)
from repro.telemetry.report import RunReport
from repro.telemetry.tracer import Tracer

__all__ = [
    "AuditConfig",
    "Counter",
    "EstimatorAudit",
    "FlightRecorder",
    "FlightRecorderConfig",
    "Gauge",
    "Histogram",
    "LiveDashboard",
    "MetricsRegistry",
    "NULL_RECORDER",
    "NullRecorder",
    "P2Quantile",
    "PhaseProfiler",
    "RunReport",
    "Sample",
    "TelemetryRecorder",
    "Tracer",
    "compute_quality",
    "execution_time_matrix",
    "git_sha",
    "provenance",
    "record_quality",
    "render_frame",
    "render_shard_lanes",
    "write_html_report",
]
