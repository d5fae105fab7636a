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
exits non-zero if a ``--chunk-size > 0`` run did not take the segment
path.  With ``--output DIR`` it writes ``report.json`` (a v3
:class:`~repro.telemetry.report.RunReport` of the chaos run —
fault-free run as the baseline, fault summary, estimator-audit and
decision-quality blocks embedded), ``metrics.prom`` and
``trace.jsonl`` — the same artifact set as the ``telemetry``
subcommand.

The module is imported lazily by ``repro.experiments.cli`` and pulls
the core/simulator stack in only inside :func:`run`.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
from collections.abc import Sequence

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

    from repro.core.config import POSGConfig, RecoveryConfig
    from repro.core.grouping import POSGGrouping
    from repro.core.scheduler import SchedulerState
    from repro.faults import CrashFault, FaultPlan, MessageFaults
    from repro.simulator.run import simulate_stream
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
    from repro.workloads.synthetic import default_stream

    if scale is None:
        scale = float(os.environ.get("REPRO_SCALE", "1.0"))
    # the floor leaves a restarted instance enough stream to re-stabilize
    m = max(8_192, int(32_768 * scale))
    k = 5

    directory: pathlib.Path | None = None
    trace_path: pathlib.Path | None = None
    if output is not None:
        directory = pathlib.Path(output)
        directory.mkdir(parents=True, exist_ok=True)
        trace_path = directory / "trace.jsonl"

    # The chaos scenario stresses the control plane, not sketch accuracy,
    # so it uses a small Count-Min (2 x 16) over a compact item universe:
    # the matrices stabilize within the first third of the stream at every
    # scale, leaving room for the crash and the recovery after it.  The
    # window and the defense thresholds scale with the stream so the short
    # CI smoke run still completes sync rounds.
    window = min(256, max(64, m // 128))
    stream = default_stream(seed=seed, m=m, n=128)
    recovery = RecoveryConfig(
        sync_timeout=max(256, m // 32),
        staleness_limit=max(4096, m // 4),
    )
    config = POSGConfig(
        window_size=window, rows=2, cols=16, recovery=recovery
    )

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

    def simulate(policy, faults=None, telemetry=None, audit=None):
        return simulate_stream(
            stream,
            policy,
            k=k,
            rng=np.random.default_rng(seed + 1),
            chunk_size=chunk_size,
            telemetry=telemetry,
            faults=faults,
            audit=audit,
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
        clean = simulate(clean_policy)

        chaos_policy = POSGGrouping(config, telemetry=recorder)
        chaos = simulate(
            chaos_policy, faults=plan, telemetry=recorder, audit=audit_config
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
        report_path = report.save(directory / "report.json")
        prom_path = directory / "metrics.prom"
        prom_path.write_text(recorder.registry.to_prometheus())
        print(f"wrote {report_path}")
        print(f"wrote {prom_path}")
        print(f"wrote {trace_path}")

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
    import json
    import time as time_module

    import numpy as np

    from repro.core.config import POSGConfig
    from repro.core.multisource import MultiSourcePOSGGrouping
    from repro.faults import FaultPlan, MessageFaults, WorkerFault
    from repro.simulator.parallel import simulate_stream_parallel
    from repro.simulator.run import simulate_stream
    from repro.simulator.supervisor import SupervisionConfig
    from repro.telemetry.recorder import TelemetryRecorder
    from repro.telemetry.report import RunReport
    from repro.telemetry.tracer import Tracer
    from repro.workloads.synthetic import default_stream

    if workers < 2:
        raise ValueError(
            f"parallel chaos needs >= 2 workers to disturb, got {workers}"
        )
    if scale is None:
        scale = float(os.environ.get("REPRO_SCALE", "1.0"))
    m = max(8_192, int(32_768 * scale))
    k = 5
    sources = 4
    window = min(256, max(64, m // 128))
    config = POSGConfig(window_size=window, rows=2, cols=16)
    stream = default_stream(seed=seed, m=m, n=128)

    directory: pathlib.Path | None = None
    if output is not None:
        directory = pathlib.Path(output)
        directory.mkdir(parents=True, exist_ok=True)

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

    rng = lambda: np.random.default_rng(seed + 1)  # noqa: E731

    t0 = time_module.perf_counter()
    reference = simulate_stream(
        stream, policy(), k=k, rng=rng(), chunk_size=chunk_size, faults=plan
    )
    t_reference = time_module.perf_counter() - t0

    # fault-free parallel baseline for the recovery-overhead measurement
    # (message faults only, no process faults)
    clean_plan = FaultPlan(
        matrices=loss, sync_requests=loss, sync_replies=loss, seed=seed
    )
    t0 = time_module.perf_counter()
    simulate_stream_parallel(
        stream, policy(), workers=workers, k=k, rng=rng(),
        chunk_size=chunk_size, faults=clean_plan, supervision=supervision,
    )
    t_clean = time_module.perf_counter() - t0

    tracer = (
        Tracer(sink=str(directory / "trace.jsonl"))
        if directory is not None
        else Tracer()
    )
    with TelemetryRecorder(tracer=tracer) as recorder:
        t0 = time_module.perf_counter()
        disturbed = simulate_stream_parallel(
            stream,
            MultiSourcePOSGGrouping(sources, config, telemetry=recorder),
            workers=workers, k=k, rng=rng(), chunk_size=chunk_size,
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
    identical = (
        bool(
            np.array_equal(
                reference.stats.completions, disturbed.stats.completions
            )
        )
        and bool(
            np.array_equal(
                reference.stats.assignments, disturbed.stats.assignments
            )
        )
        and reference.state_transitions == disturbed.state_transitions
        and reference.control_messages == disturbed.control_messages
        and reference.control_bits == disturbed.control_bits
    )
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
        recovery_path = directory / "recovery_report.json"
        recovery_path.write_text(json.dumps(recovery, indent=2) + "\n")
        report_path = report.save(directory / "report.json")
        print(f"wrote {recovery_path}")
        print(f"wrote {report_path}")
        print(f"wrote {directory / 'trace.jsonl'}")

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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.chaos",
        description="Run POSG under injected faults and report recovery.",
    )
    parser.add_argument(
        "--scale", type=float, default=None,
        help="stream-length scale factor (1.0 = paper sizes)",
    )
    parser.add_argument(
        "--output", type=str, default=None,
        help="directory for report.json, metrics.prom and trace.jsonl",
    )
    parser.add_argument(
        "--chunk-size", type=int, default=2048,
        help="simulator chunk size (0 = per-tuple reference engine)",
    )
    parser.add_argument("--seed", type=int, default=0, help="stream/fault seed")
    parser.add_argument(
        "--parallel", type=int, default=None, metavar="N",
        help="run process-level chaos against the parallel engine with N "
        "workers (crash/hang injected mid-run; gated on bit-identity "
        "and full supervisor recovery)",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.parallel is not None:
        return run_parallel(
            workers=args.parallel,
            scale=args.scale,
            output=args.output,
            chunk_size=args.chunk_size,
            seed=args.seed,
        )
    return run(
        scale=args.scale,
        output=args.output,
        chunk_size=args.chunk_size,
        seed=args.seed,
    )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
