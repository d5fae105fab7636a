"""The ``latency`` CLI subcommand: where each tuple's time goes.

Usage::

    python -m repro.experiments latency
    python -m repro.experiments latency --scale 0.25 --output latency-out/

The paper's headline claim is that POSG cuts per-tuple completion time
versus plain shuffle grouping, but the aggregate metrics (L, makespan)
cannot say *where* the saved time comes from.  This experiment runs
round-robin and POSG (one scheduler, s = 1) under the lineage tracer
and prints each run's exact latency decomposition::

    completion = scheduling_delay + queue_wait + service_time

The expectation (and what the table makes legible) is that the POSG
vs round-robin delta lives almost entirely in **queue wait** — both
strategies pay the same service times for the same tuples, POSG just
stops slow tuples from queueing behind each other — which is the
paper-faithful explanation of Figure 4.

Each strategy runs through both engines — per-tuple reference
(``chunk_size=0``) and chunked — with the same
:class:`~repro.telemetry.lineage.LineageConfig`, and the run self-gates
on the sampled timelines being bit-identical across them (the lineage
determinism contract).  Any mismatch, a zero-sample tracer, or a
sampled span whose components do not sum exactly to its completion
time exits non-zero.

With ``--output DIR`` it writes ``latency_report.json`` (both
decomposed rows), ``latency_report.html`` (the POSG run's full run
report with the latency-lineage section) and ``metrics.prom`` (the
``posg_lineage_*``/``posg_slo_*`` series), all uploaded by the CI
``latency-smoke`` job.
"""

from __future__ import annotations

import sys

from repro.experiments.scaffold import (
    compact_setup,
    engines_agree,
    output_directory,
    simulate,
    wrote,
)

#: the strategies decomposed, the baseline first
STRATEGIES = ("round_robin", "posg")


def run(
    scale: float | None = None,
    output: str | None = None,
    chunk_size: int = 2048,
    seed: int = 0,
    sample_every: int = 31,
) -> int:
    """Execute the latency decomposition; returns an exit code."""
    from repro.core.grouping import POSGGrouping, RoundRobinGrouping
    from repro.telemetry.dashboard import write_html_report
    from repro.telemetry.lineage import LineageConfig, SLOConfig, decompose
    from repro.telemetry.recorder import TelemetryRecorder
    from repro.telemetry.report import RunReport

    setup = compact_setup(scale, seed, chunk_size)
    m, k, window = setup.m, setup.k, setup.window

    def lineage_config():
        # SLO targets are illustrative fixed thresholds; the point of the
        # experiment is the decomposition, the SLOs exercise the burn-rate
        # path end to end (fresh tracer per run: tracers bind once)
        return LineageConfig(
            sample_every=sample_every,
            slos=(
                SLOConfig("p50-under-2s", latency_ms=2_000.0, percentile=50.0),
                SLOConfig("p99-under-8s", latency_ms=8_000.0, percentile=99.0),
            ),
        )

    def traced(strategy: str, engine: str, **options):
        if strategy == "round_robin":
            policy = RoundRobinGrouping()
        else:
            policy = POSGGrouping(setup.config)
        return simulate(
            setup, policy, engine, lineage=lineage_config(), **options
        )

    print(
        f"== latency: per-tuple decomposition "
        f"(m={m}, k={k}, window={window}, sample_every={sample_every}) =="
    )

    rows = []
    mismatches = []
    empty = []
    broken_partitions = []
    for strategy in STRATEGIES:
        reference = traced(strategy, "reference")
        identical = engines_agree(reference, traced(strategy, "chunked"))
        if not identical:
            mismatches.append(strategy)
        report = reference.lineage.report()
        if report["samples_total"] == 0:
            empty.append(strategy)
        for record in reference.lineage.records():
            span = decompose(record)
            parts = (
                span["scheduling_delay"]
                + span["queue_wait"]
                + span["service_time"]
            )
            if parts != span["completion_ms"]:
                broken_partitions.append((strategy, record[0]))
        rows.append(
            {
                "strategy": strategy,
                "sources": 1,
                "avg_completion_ms": float(
                    reference.stats.average_completion_time
                ),
                "timelines_identical": identical,
                "lineage": report,
            }
        )

    print()
    print(
        f"{'strategy':<12} {'s':>3}  {'L ms':>10}  {'sched ms':>9}  "
        f"{'queue ms':>10}  {'svc ms':>8}  {'queue%':>7}  {'p99 ms':>10}"
    )
    for row in rows:
        components = row["lineage"]["components"]
        p99 = components["completion"]["p99"]
        print(
            f"{row['strategy']:<12} {row['sources']:>3}  "
            f"{row['avg_completion_ms']:>10.3f}  "
            f"{components['scheduling_delay']['mean_ms']:>9.3f}  "
            f"{components['queue_wait']['mean_ms']:>10.3f}  "
            f"{components['service_time']['mean_ms']:>8.3f}  "
            f"{100 * components['queue_wait']['share']:>6.1f}%  "
            f"{p99 if p99 is not None else 0.0:>10.3f}"
        )

    # the headline delta: how much of POSG's win over round-robin is
    # queueing vs service time (the paper-faithful explanation)
    baseline = rows[0]["lineage"]["components"]
    best = rows[1]["lineage"]["components"]
    queue_delta = (
        baseline["queue_wait"]["mean_ms"] - best["queue_wait"]["mean_ms"]
    )
    service_delta = (
        baseline["service_time"]["mean_ms"] - best["service_time"]["mean_ms"]
    )
    total_delta = (
        baseline["completion"]["mean_ms"] - best["completion"]["mean_ms"]
    )
    print()
    if total_delta > 0:
        print(
            f"posg(s={rows[1]['sources']}) saves {total_delta:.3f} ms per "
            f"sampled tuple vs round-robin: {queue_delta:.3f} ms from queue "
            f"wait, {service_delta:.3f} ms from service time "
            f"({100 * queue_delta / total_delta:.1f}% queueing)"
        )
    print()
    for row in rows:
        status = "bit-identical" if row["timelines_identical"] else "MISMATCH"
        slos = " ".join(
            f"{slo['name']}={'MET' if slo['met'] else 'MISSED'}"
            for slo in row["lineage"]["slos"]
        )
        print(
            f"{row['strategy']}(s={row['sources']}): timelines {status} "
            f"across reference/chunked ({row['lineage']['samples_total']} spans, "
            f"{row['lineage']['dropped_samples']} dropped)  {slos}"
        )

    directory = output_directory(output)
    if directory is not None:
        # one more instrumented reference run of POSG so metrics.prom
        # carries its posg_lineage_*/posg_slo_* series
        with TelemetryRecorder() as recorder:
            posg = traced("posg", "reference", telemetry=recorder)
            prom_text = recorder.registry.to_prometheus()
            report = RunReport.from_simulation(posg, k=k, telemetry=recorder)
        payload = {
            "m": m,
            "k": k,
            "window_size": window,
            "seed": seed,
            "chunk_size": chunk_size,
            "sample_every": sample_every,
            "sweep": rows,
        }
        wrote(directory / "latency_report.json", payload)
        wrote(
            write_html_report(
                directory / "latency_report.html", report.to_dict()
            )
        )
        wrote(directory / "metrics.prom", prom_text)

    if mismatches:
        print(
            "ERROR: lineage timelines diverged across engines "
            f"for {mismatches}",
            file=sys.stderr,
        )
        return 1
    if empty:
        print(
            f"ERROR: the tracer sampled nothing for {empty}",
            file=sys.stderr,
        )
        return 1
    if broken_partitions:
        print(
            "ERROR: latency partition not exact for sampled tuples "
            f"{broken_partitions[:5]}",
            file=sys.stderr,
        )
        return 1
    return 0
