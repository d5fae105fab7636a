"""The ``multisource`` CLI subcommand: POSG sharded across ``s`` sources.

Usage::

    python -m repro.experiments multisource
    python -m repro.experiments multisource --scale 0.25 --output out/

The paper deploys one scheduling operator; real topologies run ``s``
parallel upstream executors, each scheduling its own share of the
stream over the same ``k`` instances (see "Multi-source scheduling" in
DESIGN.md).  This experiment measures what that sharding costs: it runs
the same stream through
:class:`~repro.core.multisource.MultiSourcePOSGGrouping` for
``s in {1, 2, 4, 8}`` and reports the average completion time ``L(s)``
and the degradation curve ``L(s)/L(1)``, alongside each run's sync
activity, control-plane volume and decision quality against the
full-knowledge oracle.

Every sweep point runs twice: plain, and with the cross-shard
coordination layer on (:class:`~repro.core.config.CoordinationConfig`
defaults — local delta gossip plus sync-reply snooping), so the report
shows the degradation curve before and after coordination.

Built-in gates make the run self-checking:

- the ``s = 1`` run must be bit-identical to the single-scheduler
  :class:`~repro.core.grouping.POSGGrouping` path (same assignments,
  same control traffic) — the collapsed deployment *is* the paper's;
- every shard of every run must complete at least one sync round
  (otherwise the configuration starves the sharded control plane and
  the curve would compare unsynchronized schedulers);
- at full scale (``scale >= 1.0``) the *coordinated* curve must stay
  flat: ``L(8)/L(1) < 3.0`` — the uncoordinated baseline measured
  ~15.8x, so this is the tentpole claim of the coordination layer,
  enforced in the exit code.

With ``--output DIR`` it writes ``multisource.json`` holding both
degradation curves for downstream tooling (the CI smoke job uploads it).
"""

from __future__ import annotations

import dataclasses
import sys
from collections.abc import Sequence

from repro.experiments.runner import env_scale
from repro.experiments.scaffold import (
    compact_setup,
    engines_agree,
    output_directory,
    simulate,
    wrote,
)

#: shard counts the degradation curve sweeps
SOURCE_COUNTS = (1, 2, 4, 8)

#: the coordinated degradation ceiling enforced at full scale:
#: L(max s)/L(1) with gossip + snooping on (baseline measured ~15.8x)
COORDINATED_DEGRADATION_CEILING = 3.0


def run(
    scale: float | None = None,
    output: str | None = None,
    chunk_size: int = 2048,
    seed: int = 0,
    source_counts: Sequence[int] = SOURCE_COUNTS,
    parallel_workers: int | None = None,
) -> int:
    """Execute the multi-source sweep; returns a process exit code.

    With ``parallel_workers`` set, every sweep point additionally runs
    through the multi-process parallel engine with that many workers;
    the parallel result must be bit-identical to the sequential run
    (a third gate) and each row gains the measured throughput of both
    engines.
    """
    import time

    import numpy as np

    from repro.core.config import CoordinationConfig
    from repro.core.grouping import POSGGrouping
    from repro.core.multisource import MultiSourcePOSGGrouping
    from repro.telemetry.quality import compute_quality, execution_time_matrix
    from repro.workloads.nonstationary import LoadShiftScenario

    # the full-scale flatness gate below needs the resolved scale
    scale = scale if scale is not None else env_scale()
    setup = compact_setup(scale, seed, chunk_size, parallel_workers)
    m, k, window, config = setup.m, setup.k, setup.window, setup.config
    times = execution_time_matrix(
        setup.stream, LoadShiftScenario.constant(k), k
    )

    print(f"== multisource: sharded POSG (m={m}, k={k}, window={window}) ==")

    # -- gate 1: s=1 collapses to the paper's single-scheduler path ----
    identical = engines_agree(
        simulate(setup, POSGGrouping(config)),
        simulate(setup, MultiSourcePOSGGrouping(1, config)),
    )
    print(
        "s=1 vs single-scheduler POSG: "
        + ("bit-identical" if identical else "MISMATCH")
    )

    coordinated_config = dataclasses.replace(
        config, coordination=CoordinationConfig()
    )
    curves: dict[str, list] = {"plain": [], "coordinated": []}
    starved = []
    parallel_mismatches = []
    for sources in source_counts:
        for label, shard_config in (
            ("plain", config),
            ("coordinated", coordinated_config),
        ):
            policy = MultiSourcePOSGGrouping(sources, shard_config)
            t0 = time.perf_counter()
            result = simulate(setup, policy)
            sequential_elapsed = time.perf_counter() - t0
            parallel_row = None
            if parallel_workers is not None:
                t0 = time.perf_counter()
                parallel_result = simulate(
                    setup,
                    MultiSourcePOSGGrouping(sources, shard_config),
                    "parallel",
                )
                parallel_elapsed = time.perf_counter() - t0
                matches = engines_agree(result, parallel_result)
                if not matches:
                    parallel_mismatches.append((label, sources))
                parallel_row = {
                    "workers": parallel_result.parallel["workers"],
                    "tuples_per_sec": m / parallel_elapsed,
                    "sequential_tuples_per_sec": m / sequential_elapsed,
                    "speedup": sequential_elapsed / parallel_elapsed,
                    "identical": matches,
                }
            rounds = [s.sync_rounds_completed for s in policy.schedulers]
            if min(rounds) < 1:
                starved.append((label, sources))
            quality = compute_quality(
                np.asarray(result.stats.assignments), times, k
            )
            stats = policy.stats()
            curves[label].append(
                {
                    "sources": sources,
                    "avg_completion_ms": float(
                        result.stats.average_completion_time
                    ),
                    "sync_rounds_min": int(min(rounds)),
                    "sync_rounds_total": int(sum(rounds)),
                    "control_bits": int(result.control_bits),
                    "misroute_fraction": float(
                        quality["regret"]["misroute_fraction"]
                    ),
                    "gossip_updates": int(stats["gossip_updates"]),
                    "gossip_billed": int(stats["gossip_billed"]),
                    "snoop_published": int(stats["snoop_published"]),
                    **({"parallel": parallel_row} if parallel_row else {}),
                }
            )

    rows = curves["plain"]
    rows_coordinated = curves["coordinated"]
    for bucket in (rows, rows_coordinated):
        base = bucket[0]["avg_completion_ms"]
        for row in bucket:
            row["degradation"] = row["avg_completion_ms"] / base

    print()
    print(
        f"{'s':>3}  {'L(s) ms':>10}  {'L(s)/L(1)':>9}  "
        f"{'coord L(s)':>10}  {'coord L/L1':>10}  {'gossip':>7}  "
        f"{'snoops':>6}  {'misrouted':>9}"
    )
    for row, coord_row in zip(rows, rows_coordinated):
        print(
            f"{row['sources']:>3}  {row['avg_completion_ms']:>10.3f}  "
            f"{row['degradation']:>9.3f}  "
            f"{coord_row['avg_completion_ms']:>10.3f}  "
            f"{coord_row['degradation']:>10.3f}  "
            f"{coord_row['gossip_updates']:>7}  "
            f"{coord_row['snoop_published']:>6}  "
            f"{coord_row['misroute_fraction']:>9.4f}"
        )
    if parallel_workers is not None:
        print()
        print(f"parallel engine (workers={parallel_workers}):")
        for label, bucket in curves.items():
            for row in bucket:
                par = row["parallel"]
                print(
                    f"  {label} s={row['sources']}: "
                    f"{par['tuples_per_sec']:,.0f} t/s "
                    f"({par['speedup']:.2f}x sequential, "
                    + ("bit-identical" if par["identical"] else "MISMATCH")
                    + ")"
                )

    # -- gate: the coordinated curve must stay flat at full scale ------
    top_coordinated = max(rows_coordinated, key=lambda row: row["sources"])
    gate_applies = scale >= 1.0 and top_coordinated["sources"] > 1
    gate_ok = (
        top_coordinated["degradation"] < COORDINATED_DEGRADATION_CEILING
    )
    print()
    print(
        f"coordinated L({top_coordinated['sources']})/L(1) = "
        f"{top_coordinated['degradation']:.3f} "
        f"(ceiling {COORDINATED_DEGRADATION_CEILING}, "
        + (
            "gate enforced"
            if gate_applies
            else "informational below full scale"
        )
        + ")"
    )

    directory = output_directory(output)
    if directory is not None:
        payload = {
            "m": m,
            "k": k,
            "window_size": window,
            "seed": seed,
            "chunk_size": chunk_size,
            "single_scheduler_identical": identical,
            "curve": rows,
            "curve_coordinated": rows_coordinated,
            "coordinated_degradation": top_coordinated["degradation"],
            "coordinated_degradation_ceiling": (
                COORDINATED_DEGRADATION_CEILING
            ),
            "coordination_gate_enforced": gate_applies,
        }
        wrote(directory / "multisource.json", payload)

    if not identical:
        print(
            "ERROR: s=1 diverged from the single-scheduler path",
            file=sys.stderr,
        )
        return 1
    if starved:
        print(
            f"ERROR: shards never synchronized for s in {starved} "
            "(window too small for this stream)",
            file=sys.stderr,
        )
        return 1
    if parallel_mismatches:
        print(
            "ERROR: parallel engine diverged from the sequential run "
            f"for s in {parallel_mismatches}",
            file=sys.stderr,
        )
        return 1
    if gate_applies and not gate_ok:
        print(
            f"ERROR: coordinated L({top_coordinated['sources']})/L(1) = "
            f"{top_coordinated['degradation']:.3f} >= "
            f"{COORDINATED_DEGRADATION_CEILING} (coordination failed to "
            "flatten the degradation curve)",
            file=sys.stderr,
        )
        return 1
    return 0
