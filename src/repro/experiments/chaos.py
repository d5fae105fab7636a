"""The ``chaos`` CLI subcommand: POSG under injected faults.

Usage::

    python -m repro.experiments chaos
    python -m repro.experiments chaos --scale 0.1 --output out/

With ``--parallel N`` the subcommand instead runs **process-level
chaos** against the multi-process parallel engine
(:func:`run_parallel`): scripted :class:`~repro.faults.plan.WorkerFault`
events crash one shard worker and hang another mid-run while control
messages are being dropped, the
:class:`~repro.simulator.supervisor.WorkerSupervisor` kills and
respawns them with the failed segments replayed, and the run
self-gates on (1) output bit-identity to the sequential engine and
(2) full recovery (every failure healed, no degraded workers) —
exiting non-zero on any violation.  ``--output DIR`` additionally
writes ``recovery_report.json`` with the supervision block, the gate
verdicts and the measured recovery overhead.

Without ``--parallel``, runs a Figure 4-sized stream (m = 32,768
scaled, k = 5) twice with the self-healing control plane enabled (see
"Failure model and recovery" in DESIGN.md):

- a **fault-free** run — defenses armed but nothing to defend against;
- a **chaos** run on the same stream and seeds — 10% of every
  control-plane message class dropped, plus one seeded crash of an
  operator instance two thirds of the way through the stream.

It prints a Figure-10-style timeline (binned average completion time
for both runs, so the crash spike and the recovery back to baseline
are visible), the scheduler's defense counters, the completion-time
degradation ``L_chaos / L_fault_free``, and the estimator audit's
error quantiles split at the crash (the audit segments the stream at
the crash index, so the report shows W/F accuracy before and after
the restart), and each run's ``SimulationResult.engine`` record — it
exits non-zero if a chunked (``chunk_size > 0``) run did not take the
segment path.  With ``--output DIR`` it writes ``report.json`` (a v3
:class:`~repro.telemetry.report.RunReport` of the chaos run —
fault-free run as the baseline, fault summary, estimator-audit and
decision-quality blocks embedded), ``metrics.prom`` and
``trace.jsonl`` — the same artifact set as the ``telemetry``
subcommand.
"""

from __future__ import annotations

import dataclasses
import sys

from repro.experiments.scaffold import (
    compact_setup,
    engines_agree,
    output_directory,
    simulate,
    wrote,
)

#: control-plane loss rate of the acceptance scenario
DROP_RATE = 0.10
#: which instance the scripted crash takes down
CRASH_INSTANCE = 2
#: number of bins in the Figure-10-style timeline
TIMELINE_BINS = 24


def _off_segment_path(runs, chunk_size: int) -> list[str]:
    """Print each sequential run's engine record; name the chunked runs
    that left the segment router (a dispatch regression costs ~5x and is
    otherwise silent)."""
    off_path = []
    for label, result in runs:
        print(f"engine [{label}]: {result.engine}")
        if chunk_size > 0 and result.engine["path"] != "segment":
            off_path.append(label)
    return off_path


def _timeline(completions, bins: int) -> list[float]:
    """Mean completion time per stream-order bin."""
    import numpy as np

    completions = np.asarray(completions, dtype=np.float64)
    edges = np.linspace(0, completions.size, bins + 1, dtype=np.int64)
    return [
        float(completions[lo:hi].mean()) if hi > lo else 0.0
        for lo, hi in zip(edges[:-1], edges[1:])
    ]


def run(
    scale: float | None = None,
    output: str | None = None,
    chunk_size: int = 2048,
    seed: int = 0,
) -> int:
    """Execute the chaos scenario; returns a process exit code."""
    import numpy as np

    from repro.core.config import RecoveryConfig
    from repro.core.grouping import POSGGrouping
    from repro.core.scheduler import SchedulerState
    from repro.faults import CrashFault, FaultPlan, MessageFaults
    from repro.telemetry.audit import AuditConfig
    from repro.telemetry.quality import (
        compute_quality,
        execution_time_matrix,
        record_quality,
    )
    from repro.telemetry.recorder import TelemetryRecorder
    from repro.telemetry.report import RunReport
    from repro.telemetry.tracer import Tracer
    from repro.workloads.nonstationary import LoadShiftScenario

    # The compact setup's matrices stabilize within the first third of
    # the stream, leaving room for the crash and the recovery after it;
    # the defense thresholds scale with the stream like its window does.
    setup = compact_setup(scale, seed, chunk_size)
    stream, m, k = setup.stream, setup.m, setup.k
    recovery = RecoveryConfig(
        sync_timeout=max(256, m // 32),
        staleness_limit=max(4096, m // 4),
    )
    config = dataclasses.replace(setup.config, recovery=recovery)

    directory = output_directory(output)
    trace_path = directory / "trace.jsonl" if directory is not None else None

    span = float(stream.arrivals[-1] - stream.arrivals[0])
    crash_index = 2 * m // 3
    crash = CrashFault(
        instance=CRASH_INSTANCE,
        at_ms=float(stream.arrivals[crash_index]),
        outage_ms=0.05 * span,
    )
    loss = MessageFaults(drop=DROP_RATE)
    plan = FaultPlan(
        matrices=loss,
        sync_requests=loss,
        sync_replies=loss,
        crashes=(crash,),
        seed=seed,
    )

    # Audit every routed tuple at chaos scale (the run is short) but
    # back off at paper scale; the segment boundary at the crash splits
    # the estimator-error quantiles into before/after-restart blocks.
    audit_config = AuditConfig(
        sample_every=max(8, m // 2048),
        segment_boundaries=(crash_index,),
    )

    tracer = Tracer(sink=str(trace_path)) if trace_path is not None else Tracer()
    with TelemetryRecorder(tracer=tracer) as recorder:
        # Fault-free reference: same config, same defenses, no injector —
        # un-instrumented so the registry holds only the chaos run.
        clean_policy = POSGGrouping(config)
        clean = simulate(setup, clean_policy)

        chaos_policy = POSGGrouping(config, telemetry=recorder)
        chaos = simulate(
            setup, chaos_policy,
            faults=plan, telemetry=recorder, audit=audit_config,
        )
        # Decision quality vs the oracle: true times are scenario-free
        # here (constant multipliers; the crash stalls an instance but
        # does not slow tuples), so the matrix rebuild is exact.
        times = execution_time_matrix(
            stream, LoadShiftScenario.constant(k), k
        )
        quality = compute_quality(
            np.asarray(chaos.stats.assignments), times, k
        )
        record_quality(recorder, quality)
        report = RunReport.from_simulation(
            chaos, k, baseline=clean, telemetry=recorder, quality=quality
        )

    scheduler = chaos_policy.scheduler
    state = scheduler.state
    recovered = state is SchedulerState.RUN
    degradation = (
        chaos.stats.average_completion_time / clean.stats.average_completion_time
    )

    print(f"== chaos: POSG under faults (m={m}, k={k}) ==")
    print(
        f"plan: {DROP_RATE:.0%} drop on matrices/sync-requests/sync-replies; "
        f"crash instance {crash.instance} at {crash.at_ms:.0f} ms "
        f"(tuple {2 * m // 3}) for {crash.outage_ms:.0f} ms"
    )
    print()
    print("Figure-10-style timeline (mean completion ms per bin):")
    clean_bins = _timeline(clean.stats.completions, TIMELINE_BINS)
    chaos_bins = _timeline(chaos.stats.completions, TIMELINE_BINS)
    print(f"{'bin':>4}  {'fault-free':>12}  {'chaos':>12}")
    for index, (a, b) in enumerate(zip(clean_bins, chaos_bins)):
        print(f"{index:>4}  {a:>12.3f}  {b:>12.3f}")
    print()
    print(
        f"L fault-free = {clean.stats.average_completion_time:.3f} ms   "
        f"L chaos = {chaos.stats.average_completion_time:.3f} ms   "
        f"degradation = {degradation:.3f}x"
    )
    print(
        f"defenses: {scheduler.sync_retransmits} retransmits, "
        f"{scheduler.sync_rounds_abandoned} sync rounds abandoned, "
        f"{scheduler.watchdog_fallbacks} watchdog fallbacks, "
        f"{scheduler.restarts_detected} restarts detected"
    )
    print(f"final scheduler state: {state.name} (recovered={recovered})")
    off_path = _off_segment_path(
        (("fault-free", clean), ("chaos", chaos)), chunk_size
    )
    audit_report = chaos.audit.report()
    segments = audit_report["segments"]
    print("estimator audit (mean |estimate - true|, ms):")
    for segment, label in zip(
        segments, ("before crash", "after crash")
    ):
        end = segment["end"] if segment["end"] is not None else m
        print(
            f"  {label:>12} [{segment['start']:>6}, {end:>6}): "
            f"{segment['samples']} samples, "
            f"mean |err| = {segment['mean_abs_error_ms']:.3f} ms"
        )
    makespan = quality["makespan"]
    print(
        f"quality: achieved/oracle makespan = "
        f"{makespan['achieved_vs_oracle']:.4f}, misrouted = "
        f"{quality['regret']['misroute_fraction']:.4f}"
    )

    if directory is not None:
        wrote(report.save(directory / "report.json"))
        wrote(directory / "metrics.prom", recorder.registry.to_prometheus())
        wrote(trace_path)

    if not recovered:
        print("ERROR: scheduler did not recover to RUN", file=sys.stderr)
        return 1
    if off_path:
        print(
            f"ERROR: chunked run(s) left the segment path: {off_path}",
            file=sys.stderr,
        )
        return 1
    return 0


def run_parallel(
    workers: int = 2,
    scale: float | None = None,
    output: str | None = None,
    chunk_size: int = 2048,
    seed: int = 0,
) -> int:
    """Process-level chaos against the self-healing parallel engine.

    Crashes one shard worker and hangs another mid-run (scripted
    ``WorkerFault`` events) while 10% of every control-message class is
    dropped, lets the ``WorkerSupervisor`` respawn-and-replay, and
    gates on:

    1. **bit-identity** — the disturbed parallel run must match the
       sequential engine exactly (completions, assignments, FSM
       transitions, control traffic);
    2. **full recovery** — every injected failure detected and healed
       by respawn, no degraded workers.

    Returns non-zero if either gate fails.  The measured recovery
    overhead (faulted vs fault-free parallel wall-clock) is printed and
    written to ``recovery_report.json`` under ``--output``.
    """
    import time as time_module

    from repro.core.multisource import MultiSourcePOSGGrouping
    from repro.faults import FaultPlan, MessageFaults, WorkerFault
    from repro.simulator.supervisor import SupervisionConfig
    from repro.telemetry.recorder import TelemetryRecorder
    from repro.telemetry.report import RunReport
    from repro.telemetry.tracer import Tracer

    if workers < 2:
        raise ValueError(
            f"parallel chaos needs >= 2 workers to disturb, got {workers}"
        )
    setup = compact_setup(scale, seed, chunk_size, workers)
    m, k, config = setup.m, setup.k, setup.config
    sources = 4
    directory = output_directory(output)

    loss = MessageFaults(drop=DROP_RATE)
    worker_faults = (
        WorkerFault(worker=1, segment=1, kind="crash"),
        WorkerFault(worker=0, segment=2, kind="hang", hang_ms=600.0),
    )
    plan = FaultPlan(
        matrices=loss,
        sync_requests=loss,
        sync_replies=loss,
        worker_faults=worker_faults,
        seed=seed,
    )
    supervision = SupervisionConfig(
        ack_deadline_s=0.25, max_respawns=2, degraded_policy="inline"
    )

    print(
        f"== chaos --parallel: worker supervision under process faults "
        f"(m={m}, k={k}, s={sources}, workers={workers}) =="
    )
    print(
        f"plan: {DROP_RATE:.0%} drop on every control channel; "
        "crash worker 1 at segment 1; hang worker 0 for 600 ms at "
        f"segment 2 (ack deadline {supervision.ack_deadline_s * 1000:.0f} ms, "
        f"max {supervision.max_respawns} respawns)"
    )

    def policy():
        return MultiSourcePOSGGrouping(sources, config)

    t0 = time_module.perf_counter()
    reference = simulate(setup, policy(), faults=plan)
    t_reference = time_module.perf_counter() - t0

    # fault-free parallel baseline for the recovery-overhead measurement
    # (message faults only, no process faults)
    clean_plan = FaultPlan(
        matrices=loss, sync_requests=loss, sync_replies=loss, seed=seed
    )
    t0 = time_module.perf_counter()
    simulate(
        setup, policy(), "parallel", faults=clean_plan, supervision=supervision
    )
    t_clean = time_module.perf_counter() - t0

    tracer = (
        Tracer(sink=str(directory / "trace.jsonl"))
        if directory is not None
        else Tracer()
    )
    with TelemetryRecorder(tracer=tracer) as recorder:
        t0 = time_module.perf_counter()
        disturbed = simulate(
            setup,
            MultiSourcePOSGGrouping(sources, config, telemetry=recorder),
            "parallel",
            telemetry=recorder, faults=plan, supervision=supervision,
        )
        t_disturbed = time_module.perf_counter() - t0
        report = RunReport.from_simulation(
            disturbed, k, baseline=reference, telemetry=recorder
        )

    sup = disturbed.parallel["supervision"]
    failures = (
        sup["crashes_detected"] + sup["hangs_detected"] + sup["worker_errors"]
    )
    identical = engines_agree(reference, disturbed)
    recovered = (
        bool(sup["recovered"])
        and failures >= len(worker_faults)
        and sup["respawns_total"] >= len(worker_faults)
    )
    overhead = t_disturbed / t_clean - 1.0 if t_clean > 0 else 0.0

    print()
    print("worker lifecycle:")
    for event in sup["lifecycle"]:
        detail = ", ".join(
            f"{key}={value}"
            for key, value in event.items()
            if key not in ("event", "worker", "segment")
        )
        print(
            f"  segment {event['segment']:>3}  worker {event['worker']}  "
            f"{event['event']}" + (f"  ({detail})" if detail else "")
        )
    print()
    print(
        f"supervision: {failures} failures detected "
        f"({sup['crashes_detected']} crashes, {sup['hangs_detected']} hangs), "
        f"{sup['respawns_total']} respawns, "
        f"{sup['replayed_segments']} segments replayed, "
        f"degraded workers = {sup['degraded_workers']}"
    )
    print(
        f"timing: sequential {t_reference:.2f} s, parallel fault-free "
        f"{t_clean:.2f} s, parallel disturbed {t_disturbed:.2f} s "
        f"(recovery overhead {overhead:+.1%})"
    )
    print(f"gate: bit-identical to sequential engine = {identical}")
    print(f"gate: fully recovered via respawn-replay = {recovered}")
    off_path = _off_segment_path((("sequential", reference),), chunk_size)

    if directory is not None:
        recovery = {
            "schema": "posg-recovery-report/v1",
            "m": m,
            "k": k,
            "sources": sources,
            "workers": workers,
            "chunk_size": chunk_size,
            "seed": seed,
            "plan": plan.summary(),
            "supervision_config": supervision.summary(),
            "supervision": sup,
            "gates": {"bit_identical": identical, "recovered": recovered},
            "timing_seconds": {
                "sequential": t_reference,
                "parallel_fault_free": t_clean,
                "parallel_disturbed": t_disturbed,
                "recovery_overhead": overhead,
            },
        }
        wrote(directory / "recovery_report.json", recovery)
        wrote(report.save(directory / "report.json"))
        wrote(directory / "trace.jsonl")

    if not identical:
        print(
            "ERROR: disturbed parallel run diverged from the sequential "
            "engine",
            file=sys.stderr,
        )
        return 1
    if not recovered:
        print(
            "ERROR: supervisor did not fully recover "
            f"(failures={failures}, respawns={sup['respawns_total']}, "
            f"degraded={sup['degraded_workers']})",
            file=sys.stderr,
        )
        return 1
    if off_path:
        print(
            "ERROR: the sequential chunked run left the segment path",
            file=sys.stderr,
        )
        return 1
    return 0
