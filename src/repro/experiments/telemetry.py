"""The ``telemetry`` CLI subcommand: one fully instrumented run.

Usage::

    python -m repro.experiments telemetry
    python -m repro.experiments telemetry --scale 0.1 --output out/

Runs the Figure 4 configuration (m = 32,768 scaled, k = 5) once with
POSG under a live :class:`~repro.telemetry.recorder.TelemetryRecorder`
and once with Round-Robin as the speedup baseline, then emits every
export the telemetry layer offers:

- a human summary of the :class:`~repro.telemetry.report.RunReport`;
- with ``--output DIR``: ``report.json`` (the full run report),
  ``metrics.prom`` (Prometheus text exposition) and ``trace.jsonl``
  (the streamed event trace);
- without ``--output``: the Prometheus text on stdout.

It lives here rather than under :mod:`repro.telemetry` so that package
keeps importing nothing from the core/simulator stack.
"""

from __future__ import annotations

from repro.experiments.runner import env_scale
from repro.experiments.scaffold import Setup, output_directory, simulate, wrote


def run(
    scale: float | None = None,
    output: str | None = None,
    chunk_size: int = 2048,
    seed: int = 0,
) -> int:
    """Execute the instrumented demo run; returns a process exit code."""
    from repro.core.config import POSGConfig
    from repro.core.grouping import POSGGrouping, RoundRobinGrouping
    from repro.telemetry.recorder import TelemetryRecorder
    from repro.telemetry.report import RunReport
    from repro.telemetry.tracer import Tracer
    from repro.workloads.synthetic import default_stream

    # the figures' sizing and the paper's sketch, not the compact setup
    scale = scale if scale is not None else env_scale()
    setup = Setup(
        stream=default_stream(seed=seed, m=max(1024, int(32_768 * scale))),
        config=POSGConfig.paper_defaults(),
        seed=seed,
        chunk_size=chunk_size,
    )
    directory = output_directory(output)
    trace_path = directory / "trace.jsonl" if directory is not None else None

    tracer = Tracer(sink=str(trace_path)) if trace_path is not None else Tracer()
    with TelemetryRecorder(tracer=tracer) as recorder:
        policy = POSGGrouping(setup.config, telemetry=recorder)
        posg = simulate(setup, policy, telemetry=recorder)
        # the baseline run stays un-instrumented so the registry holds
        # exactly one run's worth of counters
        baseline = simulate(setup, RoundRobinGrouping())
        report = RunReport.from_simulation(
            posg, setup.k, baseline=baseline, telemetry=recorder
        )

        print(report.summary())
        print(
            f"trace: {recorder.tracer.emitted} events emitted "
            f"({recorder.tracer.dropped} beyond the ring capacity)"
        )
        if directory is not None:
            wrote(report.save(directory / "report.json"))
            wrote(directory / "metrics.prom", recorder.registry.to_prometheus())
            wrote(trace_path)
        else:
            print()
            print(recorder.registry.to_prometheus(), end="")
    return 0
