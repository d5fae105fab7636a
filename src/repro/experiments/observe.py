"""The ``observe`` CLI subcommand: the scheduling-quality observatory.

Usage::

    python -m repro.experiments observe
    python -m repro.experiments observe --scale 0.1 --output out/

Runs a Figure 4-sized stream (m = 32,768 scaled, k = 5) with POSG under
the full quality-observability stack:

- the **estimator audit** samples every N-th routed tuple, comparing the
  scheduler's W/F estimate against the true execution time (streaming
  error quantiles, per-row collision diagnostics, Theorem 4.3 tail
  checks);
- the **decision-quality** metrics replay the run's assignments against
  the true execution-time matrix: achieved makespan vs the oracle GOS
  fed true times, the Theorem 4.2 Graham bound ``2 - 1/k``, windowed
  load imbalance and misroute regret;
- the **phase profiler** wraps the engine's hash / estimate / route /
  fold / window-close phases in nanosecond spans;
- the **live dashboard** repaints an ANSI terminal view of the registry
  while the run executes when stdout is a TTY — otherwise one static
  frame is printed after the run.

With ``--output DIR`` it writes ``quality_report.json`` (a v3
:class:`~repro.telemetry.report.RunReport` with the audit and quality
blocks), ``quality_report.html`` (the dependency-free static report),
``metrics.prom``, ``profile.json`` and ``flamegraph.txt`` (collapsed
stacks for ``flamegraph.pl``-style tools).

The exit code asserts the observatory's own guarantees: 1 when the
oracle-GOS makespan violates the Theorem 4.2 bound on the identical-
machine scenario, when any Theorem 4.3 Markov check fails (impossible
on the empirical measure — a failure means the audit itself is broken),
or when the estimator-error quantiles are not finite.
"""

from __future__ import annotations

import sys

from repro.experiments.scaffold import (
    compact_setup,
    output_directory,
    simulate,
    wrote,
)


def run(
    scale: float | None = None,
    output: str | None = None,
    chunk_size: int = 2048,
    seed: int = 0,
    live: bool | None = None,
) -> int:
    """Execute the observatory run; returns a process exit code."""
    import numpy as np

    from repro.core.grouping import POSGGrouping
    from repro.telemetry.audit import AuditConfig
    from repro.telemetry.dashboard import (
        LiveDashboard,
        render_frame,
        write_html_report,
    )
    from repro.telemetry.profiler import PhaseProfiler
    from repro.telemetry.quality import (
        compute_quality,
        execution_time_matrix,
        record_quality,
    )
    from repro.telemetry.recorder import TelemetryRecorder
    from repro.telemetry.report import RunReport
    from repro.workloads.nonstationary import LoadShiftScenario

    if live is None:
        live = sys.stdout.isatty()
    directory = output_directory(output)

    # The compact setup's matrices stabilize early at every scale, so
    # the audit mostly samples the estimator in its steady (RUN) regime
    # rather than during warm-up.
    setup = compact_setup(scale, seed, chunk_size)
    k = setup.k
    scenario = LoadShiftScenario.constant(k)
    audit_config = AuditConfig(sample_every=max(8, setup.m // 2048))
    profiler = PhaseProfiler()

    with TelemetryRecorder() as recorder:
        policy = POSGGrouping(setup.config, telemetry=recorder)

        def observed():
            return simulate(
                setup, policy, scenario=scenario, telemetry=recorder,
                audit=audit_config, profiler=profiler,
            )

        if live:
            dashboard = LiveDashboard(recorder, title="posg observe")
            result = dashboard.run(observed)
        else:
            result = observed()

        times = execution_time_matrix(setup.stream, scenario, k)
        quality = compute_quality(
            np.asarray(result.stats.assignments), times, k
        )
        record_quality(recorder, quality)
        report = RunReport.from_simulation(
            result, k, telemetry=recorder, quality=quality
        )

        if not live:
            print(render_frame(recorder.registry.snapshot(), title="posg observe"))
            print()
        print(report.summary())

        if directory is not None:
            wrote(report.save(directory / "quality_report.json"))
            wrote(
                write_html_report(
                    directory / "quality_report.html", report.to_dict()
                )
            )
            wrote(directory / "metrics.prom", recorder.registry.to_prometheus())
            wrote(profiler.save_json(directory / "profile.json"))
            wrote(directory / "flamegraph.txt", profiler.to_flamegraph())

    # ------------------------------------------------------------------
    # gates: the observatory must stand behind its own numbers
    # ------------------------------------------------------------------
    failures = []
    makespan = quality["makespan"]
    if makespan["theorem42_holds"] is False:
        failures.append(
            f"oracle GOS makespan ratio {makespan['oracle_gos_ratio']:.4f} "
            f"exceeds the Theorem 4.2 bound {makespan['graham_bound']:.4f}"
        )
    audit_report = report.audit
    if not audit_report or audit_report["samples"] == 0:
        failures.append("estimator audit collected no samples")
    else:
        if not audit_report["theorem43"]["all_markov_hold"]:
            failures.append("a Theorem 4.3 empirical Markov check failed")
        for key, value in audit_report["abs_error_quantiles_ms"].items():
            if value is None or not np.isfinite(value):
                failures.append(f"abs error quantile {key} is not finite")
    for failure in failures:
        print(f"ERROR: {failure}", file=sys.stderr)
    return 1 if failures else 0
