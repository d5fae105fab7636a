"""The ``attribution`` CLI subcommand: *why* sharding degrades L(s).

Usage::

    python -m repro.experiments attribution
    python -m repro.experiments attribution --scale 0.25 --output out/

The ``multisource`` experiment measures the degradation curve
``L(s)/L(1)`` but cannot explain it.  This experiment reruns the same
sweep under the cross-shard flight recorder and decomposes each sweep
point's excess completion time into the three mechanisms the recorder
can distinguish (see "Flight recorder" in DESIGN.md):

- **staleness regret** — decisions made on a ``C_hat`` snapshot older
  than one sync round (the shard was flying blind);
- **collision loss** — windows where >= 2 shards concurrently
  argmin-picked the same instance (the thundering-herd effect sharding
  introduces);
- **residual** — estimator error, ties, and everything else (this
  bucket is what a single-scheduler run would also pay).

Each sweep point runs through *all three* engines — per-tuple reference
(``chunk_size=0``), chunked, and multi-process parallel — with the same
:class:`~repro.telemetry.flightrecorder.FlightRecorderConfig`, and the
run self-gates on the recorded timelines being bit-identical across
them (the flight recorder's determinism contract).  A mismatch, a
shard that never folded, or diverging assignments exits non-zero.

Every sweep point then reruns once more with the cross-shard
coordination layer on (:class:`~repro.core.config.CoordinationConfig`
defaults) and decomposes that run too.  Coordination attacks exactly
the first bucket — gossip and snooping keep every shard's ``C_hat``
near the global truth between folds — so the run self-gates on the
staleness regret *shrinking* at every ``s > 1``.  The coordinated
timelines also carry the ``snoop`` events the recorder samples, which
the comparison table surfaces per sweep point.

With ``--output DIR`` it writes ``attribution.json`` (the decomposed
curve) and ``attribution.html`` (the largest sweep point's full run
report with the shard-lane timelines), both uploaded by the CI
``attribution-smoke`` job.
"""

from __future__ import annotations

import dataclasses
import sys
from collections.abc import Sequence

from repro.experiments.scaffold import (
    compact_setup,
    engines_agree,
    output_directory,
    simulate,
    wrote,
)

#: shard counts the attribution sweep decomposes
SOURCE_COUNTS = (1, 2, 4, 8)


def _regret_shares(attribution: dict) -> dict:
    """Fractional split of the replay regret into the three buckets."""
    regret = attribution["regret"]
    total = regret["total_ms"]
    if total <= 0.0:
        return {"stale": 0.0, "collision": 0.0, "residual": 0.0}
    return {
        "stale": regret["stale_ms"] / total,
        "collision": regret["collision_ms"] / total,
        "residual": regret["residual_ms"] / total,
    }


def run(
    scale: float | None = None,
    output: str | None = None,
    chunk_size: int = 2048,
    seed: int = 0,
    source_counts: Sequence[int] = SOURCE_COUNTS,
    workers: int = 2,
    sample_every: int = 64,
) -> int:
    """Execute the attribution sweep; returns a process exit code.

    Every sweep point runs three times — reference (``chunk_size=0``),
    chunked and parallel — under the same flight-recorder config; the
    recorded timelines must be bit-identical across all three (and the
    assignments too), otherwise the run exits non-zero.
    """
    from repro.core.config import CoordinationConfig
    from repro.core.multisource import MultiSourcePOSGGrouping
    from repro.telemetry.dashboard import render_shard_lanes, write_html_report
    from repro.telemetry.flightrecorder import (
        FlightRecorderConfig,
        derive_attribution,
    )
    from repro.telemetry.quality import execution_time_matrix
    from repro.telemetry.report import RunReport
    from repro.workloads.nonstationary import LoadShiftScenario

    # same setup as the multisource sweep so the curves are comparable
    setup = compact_setup(scale, seed, chunk_size, workers)
    m, k, window, config = setup.m, setup.k, setup.window, setup.config
    # collision windows aligned with the scheduling window make the
    # "concurrent pick" metric mean "within one estimation window"
    flight_config = FlightRecorderConfig(
        sample_every=sample_every, window=window
    )
    times = execution_time_matrix(
        setup.stream, LoadShiftScenario.constant(k), k
    )
    coordinated_config = dataclasses.replace(
        config, coordination=CoordinationConfig()
    )

    def recorded(sources: int, engine: str, shard_config=config):
        return simulate(
            setup, MultiSourcePOSGGrouping(sources, shard_config), engine,
            flight=flight_config,
        )

    print(
        f"== attribution: why L(s) degrades "
        f"(m={m}, k={k}, window={window}, sample_every={sample_every}) =="
    )

    rows = []
    mismatches = []
    starved = []
    last_result = None
    for sources in source_counts:
        reference = recorded(sources, "reference")
        identical = engines_agree(
            reference,
            recorded(sources, "chunked"),
            recorded(sources, "parallel"),
        )
        if not identical:
            mismatches.append(sources)
        report = reference.flight.report()
        if any(s["folds"] < 1 for s in report["per_shard"]):
            starved.append(sources)
        attribution = derive_attribution(
            reference.flight, reference.stats.assignments, times
        )
        coordinated = recorded(sources, "reference", coordinated_config)
        attribution_coordinated = derive_attribution(
            coordinated.flight, coordinated.stats.assignments, times
        )
        coordinated_report = coordinated.flight.report()
        rows.append(
            {
                "sources": sources,
                "avg_completion_ms": float(
                    reference.stats.average_completion_time
                ),
                "coordinated_avg_completion_ms": float(
                    coordinated.stats.average_completion_time
                ),
                "timelines_identical": identical,
                "attribution": attribution,
                "attribution_coordinated": attribution_coordinated,
                "coordinated_snoops": int(
                    sum(
                        shard["snoops"]
                        for shard in coordinated_report["per_shard"]
                    )
                ),
                "flight": report,
            }
        )
        last_result = reference

    base = rows[0]["avg_completion_ms"]
    for row in rows:
        degradation = row["avg_completion_ms"] / base
        excess = row["avg_completion_ms"] - base
        shares = _regret_shares(row["attribution"])
        row["degradation"] = degradation
        # the excess over L(1) split in proportion to the replay regret
        # attribution (the regret replay classifies *mechanisms*; the
        # excess is what those mechanisms cost in the L metric)
        row["excess_ms"] = excess
        row["excess_split_ms"] = {
            name: excess * share for name, share in shares.items()
        }
        row["regret_shares"] = shares

    print()
    print(
        f"{'s':>3}  {'L(s) ms':>10}  {'L/L(1)':>7}  {'excess ms':>10}  "
        f"{'stale%':>7}  {'collide%':>8}  {'resid%':>7}  "
        f"{'blind%':>7}  {'coll.rate':>9}"
    )
    for row in rows:
        att = row["attribution"]
        shares = row["regret_shares"]
        print(
            f"{row['sources']:>3}  {row['avg_completion_ms']:>10.3f}  "
            f"{row['degradation']:>7.3f}  {row['excess_ms']:>10.3f}  "
            f"{100 * shares['stale']:>6.1f}%  "
            f"{100 * shares['collision']:>7.1f}%  "
            f"{100 * shares['residual']:>6.1f}%  "
            f"{100 * att['staleness']['blind_fraction']:>6.1f}%  "
            f"{att['collision']['rate']:>9.3f}"
        )
    # -- gate: coordination must shrink the staleness bucket -----------
    stale_regressions = []
    print()
    print(
        f"{'s':>3}  {'stale ms plain':>14}  {'stale ms coord':>14}  "
        f"{'coord L(s) ms':>13}  {'snoops':>6}"
    )
    for row in rows:
        plain_stale = row["attribution"]["regret"]["stale_ms"]
        coordinated_stale = (
            row["attribution_coordinated"]["regret"]["stale_ms"]
        )
        row["stale_ms_plain"] = plain_stale
        row["stale_ms_coordinated"] = coordinated_stale
        shrank = coordinated_stale < plain_stale
        if row["sources"] > 1 and not shrank:
            stale_regressions.append(row["sources"])
        print(
            f"{row['sources']:>3}  {plain_stale:>14.3f}  "
            f"{coordinated_stale:>14.3f}  "
            f"{row['coordinated_avg_completion_ms']:>13.3f}  "
            f"{row['coordinated_snoops']:>6}"
            + ("" if row["sources"] == 1 or shrank else "  REGRESSION")
        )

    print()
    for row in rows:
        status = "bit-identical" if row["timelines_identical"] else "MISMATCH"
        print(
            f"s={row['sources']}: timelines {status} across "
            f"reference/chunked/parallel "
            f"({row['flight']['events_total']} events, "
            f"{row['flight']['dropped_events']} dropped)"
        )

    print()
    print(render_shard_lanes(rows[-1]["flight"], width=72))

    directory = output_directory(output)
    if directory is not None:
        payload = {
            "m": m,
            "k": k,
            "window_size": window,
            "seed": seed,
            "chunk_size": chunk_size,
            "workers": workers,
            "sample_every": sample_every,
            "curve": rows,
        }
        wrote(directory / "attribution.json", payload)
        report = RunReport.from_simulation(last_result, k=k)
        wrote(
            write_html_report(
                directory / "attribution.html", report.to_dict()
            )
        )

    if mismatches:
        print(
            "ERROR: flight timelines diverged across engines "
            f"for s in {mismatches}",
            file=sys.stderr,
        )
        return 1
    if starved:
        print(
            f"ERROR: some shard never folded for s in {starved} "
            "(window too small for this stream)",
            file=sys.stderr,
        )
        return 1
    if stale_regressions:
        print(
            "ERROR: coordination failed to shrink the staleness bucket "
            f"for s in {stale_regressions}",
            file=sys.stderr,
        )
        return 1
    return 0
