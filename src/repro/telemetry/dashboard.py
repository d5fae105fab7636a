"""Live ANSI dashboard and static HTML quality report.

Two consumers of the same registry snapshots:

- :func:`render_frame` — a **pure** function from one
  :meth:`~repro.telemetry.registry.MetricsRegistry.snapshot` dict to a
  fixed-width text frame (scheduler FSM, per-instance ``C_hat`` bars,
  estimator-audit gauges, quality gauges).  Pure so tests can assert on
  frames without a terminal.
- :class:`LiveDashboard` — runs a simulation callable in a worker thread
  and repaints frames from the live registry until it finishes.  The
  scheduler/audit metrics are export-time collectors reading plain
  Python state, so sampling them mid-run is safe (worst case a frame
  shows a value mid-update — the final frame is rendered after the
  join) and costs the run nothing.
- :func:`write_html_report` — a dependency-free static HTML rendering of
  a v3 :class:`~repro.telemetry.report.RunReport` dict (quality +
  audit + theorem checks), with the full JSON embedded for machines.
"""

from __future__ import annotations

import html
import json
import sys
import threading
from pathlib import Path

from repro.bounds import POSITIVE

__all__ = [
    "render_frame",
    "render_shard_lanes",
    "LiveDashboard",
    "write_html_report",
]

#: characters used for the horizontal gauge bars
_BAR_FULL = "#"
_BAR_EMPTY = "."

_CLEAR = "\x1b[H\x1b[2J"
_HOME = "\x1b[H"
_BOLD = "\x1b[1m"
_DIM = "\x1b[2m"
_RESET = "\x1b[0m"


def _labeled(snapshot: dict, name: str, label: str) -> dict[str, float]:
    """Extract ``{label_value: value}`` for a labelled metric family."""
    prefix = name + "{"
    out: dict[str, float] = {}
    needle = label + '="'
    for key, value in snapshot.items():
        if key.startswith(prefix):
            body = key[len(prefix):-1]
            at = body.find(needle)
            if at >= 0:
                start = at + len(needle)
                out[body[start:body.index('"', start)]] = value
    return out


def _bar(value: float, peak: float, width: int) -> str:
    if peak <= 0:
        filled = 0
    else:
        filled = int(round(width * min(1.0, value / peak)))
    return _BAR_FULL * filled + _BAR_EMPTY * (width - filled)


def render_frame(
    snapshot: dict,
    title: str = "POSG scheduling-quality observatory",
    width: int = 72,
    ansi: bool = False,
) -> str:
    """One dashboard frame from a registry snapshot (pure)."""
    bold = _BOLD if ansi else ""
    dim = _DIM if ansi else ""
    reset = _RESET if ansi else ""
    rule = "-" * width
    lines = [f"{bold}== {title} =={reset}", rule]

    state = next(
        iter(_labeled(snapshot, "posg_scheduler_state_info", "state")), "?"
    )
    scheduled = snapshot.get("posg_scheduler_tuples_scheduled_total", 0)
    epoch = snapshot.get("posg_scheduler_epoch", 0)
    rounds = snapshot.get("posg_scheduler_sync_rounds_total", 0)
    lines.append(
        f"scheduler  state={state:<12} tuples={int(scheduled):>8,} "
        f"epoch={int(epoch):>3}  sync_rounds={int(rounds):>3}"
    )

    c_hat = _labeled(snapshot, "posg_scheduler_c_hat_ms", "instance")
    if c_hat:
        peak = max(c_hat.values())
        lines.append(f"{dim}C_hat (estimated cumulated work, ms){reset}")
        for instance in sorted(c_hat, key=int):
            value = c_hat[instance]
            lines.append(
                f"  i{instance}  {_bar(value, peak, width - 24)} {value:>12,.1f}"
            )

    samples = snapshot.get("posg_estimator_samples_total")
    if samples is not None:
        lines.append(rule)
        mean_true = snapshot.get("posg_estimator_mean_true_ms", 0.0)
        mean_est = snapshot.get("posg_estimator_mean_estimate_ms", 0.0)
        mean_err = snapshot.get("posg_estimator_mean_abs_error_ms", 0.0)
        lines.append(
            f"estimator  samples={int(samples):>7,}  true={mean_true:8.3f} ms  "
            f"est={mean_est:8.3f} ms  |err|={mean_err:8.3f} ms"
        )
        quantile_bits = []
        for key, value in sorted(snapshot.items()):
            if key.startswith("posg_estimator_rel_error_p"):
                quantile_bits.append(
                    f"{key.rsplit('_', 1)[-1]}={value:.3f}"
                )
        if quantile_bits:
            lines.append("  rel err    " + "  ".join(quantile_bits))
        tails = _labeled(snapshot, "posg_estimator_tail_fraction", "threshold_ms")
        if tails:
            lines.append(
                "  tail       "
                + "  ".join(
                    f"P[est>={threshold}]={tails[threshold]:.4f}"
                    for threshold in sorted(tails, key=float)
                )
            )

    if "posg_quality_achieved_makespan_ms" in snapshot:
        lines.append(rule)
        lines.append(
            "quality    achieved/oracle="
            f"{snapshot.get('posg_quality_achieved_vs_oracle', 0.0):.4f}  "
            "oracle/LB="
            f"{snapshot.get('posg_quality_oracle_gos_ratio', 0.0):.4f}  "
            f"imbalance={snapshot.get('posg_quality_imbalance', 0.0):.4f}"
        )
        lines.append(
            "  regret     misroute="
            f"{snapshot.get('posg_quality_misroute_fraction', 0.0):.4f}  "
            f"cost={snapshot.get('posg_quality_regret_ms', 0.0):,.1f} ms"
        )

    flight_events = _labeled(snapshot, "posg_flight_events_total", "shard")
    if flight_events:
        routes = _labeled(snapshot, "posg_flight_routes_sampled_total", "shard")
        folds = _labeled(snapshot, "posg_flight_folds_total", "shard")
        stale = _labeled(snapshot, "posg_flight_staleness_tuples_mean", "shard")
        dropped = _labeled(snapshot, "posg_flight_dropped_events_total", "shard")
        lines.append(rule)
        lines.append(f"{dim}flight recorder (per shard){reset}")
        for shard in sorted(flight_events, key=int):
            lines.append(
                f"  shard {shard}  events={int(flight_events[shard]):>6,}  "
                f"routes={int(routes.get(shard, 0)):>5,}  "
                f"folds={int(folds.get(shard, 0)):>4}  "
                f"staleness={stale.get(shard, 0.0):>9,.1f}  "
                f"dropped={int(dropped.get(shard, 0))}"
            )

    lineage_samples = _labeled(snapshot, "posg_lineage_samples_total", "shard")
    if lineage_samples:
        means = _labeled(
            snapshot, "posg_lineage_component_mean_ms", "component"
        )
        p99s = _labeled(snapshot, "posg_lineage_component_p99_ms", "component")
        dropped = _labeled(
            snapshot, "posg_lineage_dropped_samples_total", "shard"
        )
        lines.append(rule)
        lines.append(
            f"{dim}lineage latency waterfall "
            f"(sampled spans: {int(sum(lineage_samples.values())):,}, "
            f"dropped: {int(sum(dropped.values())):,}){reset}"
        )
        total = means.get("completion", 0.0)
        for component in (
            "scheduling_delay", "queue_wait", "service_time", "completion"
        ):
            if component not in means:
                continue
            mean = means[component]
            p99 = p99s.get(component)
            lines.append(
                f"  {component:<17}{_bar(mean, total, width - 46)} "
                f"mean={mean:>9,.3f} ms"
                + (f"  p99={p99:>9,.3f} ms" if p99 is not None else "")
            )
        burn = _labeled(snapshot, "posg_slo_burn_rate", "slo")
        met = _labeled(snapshot, "posg_slo_met", "slo")
        violations = _labeled(snapshot, "posg_slo_violations_total", "slo")
        for name in sorted(burn):
            lines.append(
                f"  slo {name:<14}"
                f"{'MET   ' if met.get(name, 0.0) else 'MISSED'} "
                f"burn_rate={burn[name]:>7.3f}  "
                f"violations={int(violations.get(name, 0)):,}"
            )

    completed = snapshot.get("sim_tuples_total")
    if completed is not None:
        lines.append(rule)
        lines.append(
            f"run        simulated={int(completed):>8,}  "
            f"L={snapshot.get('sim_avg_completion_ms', 0.0):.3f} ms  "
            f"control={int(snapshot.get('sim_control_messages_total', 0)):,} msgs"
        )
    return "\n".join(lines)


#: shard-lane glyphs, highest priority last (later wins a shared column)
_LANE_GLYPHS = {
    "route": ".",
    "matrices": "m",
    "sync_request": "s",
    "sync_reply": "r",
    "fold": "F",
}
_LANE_PRIORITY = {
    "route": 0,
    "matrices": 1,
    "sync_reply": 2,
    "sync_request": 3,
    "fold": 4,
}


def render_shard_lanes(
    flight_report: dict,
    width: int = 72,
    ansi: bool = False,
) -> str:
    """Render a flight-recorder report's per-shard timelines as lanes.

    One fixed-width lane per shard over the global stream axis; each
    event of the (already downsampled) report lane lands in the column
    proportional to its global stream index.  Glyphs: ``F`` fold
    (``C_hat`` re-baseline), ``s``/``r`` sync request/reply, ``m``
    matrices broadcast, ``.`` sampled routing decision; when several
    events share a column the control-plane event wins over route
    samples.  Pure text in, text out — usable from the CLI, tests and
    the HTML report alike.
    """
    bold = _BOLD if ansi else ""
    dim = _DIM if ansi else ""
    reset = _RESET if ansi else ""
    per_shard = flight_report.get("per_shard", [])
    lane_width = max(8, width - 12)
    span = 1
    for shard in per_shard:
        for _, g in shard.get("lane", []):
            if g is not None and g > span:
                span = g
    lines = [
        f"{bold}shard lanes{reset} "
        f"{dim}(F fold, s sync_request, r sync_reply, m matrices, "
        f". route sample){reset}"
    ]
    for shard in per_shard:
        cells = [" "] * lane_width
        ranks = [-1] * lane_width
        for kind, g in shard.get("lane", []):
            if g is None or g < 0:
                continue
            col = min(lane_width - 1, g * lane_width // (span + 1))
            rank = _LANE_PRIORITY.get(kind, 0)
            if rank >= ranks[col]:
                ranks[col] = rank
                cells[col] = _LANE_GLYPHS.get(kind, "?")
        lines.append(f"  s{shard.get('shard', '?')} |{''.join(cells)}|")
        lines.append(
            f"     {dim}folds={shard.get('folds', 0)}  "
            f"routes={shard.get('route_samples', 0)}  "
            f"stale_replies={shard.get('stale_replies', 0)}  "
            f"staleness mean/max={shard.get('staleness_mean', 0.0):,.0f}/"
            f"{shard.get('staleness_max', 0):,} tuples  "
            f"dropped={shard.get('dropped_events', 0)}{reset}"
        )
    return "\n".join(lines)


class LiveDashboard:
    """Repaint :func:`render_frame` while a run executes in a thread.

    Parameters
    ----------
    recorder:
        Live :class:`~repro.telemetry.recorder.TelemetryRecorder` whose
        registry is being painted.
    interval:
        Seconds between repaints.
    out:
        Output text stream (defaults to stdout).
    ansi:
        Emit cursor-control sequences; turn off for dumb sinks.
    """

    def __init__(
        self,
        recorder,
        interval: float = 0.2,
        out=None,
        ansi: bool = True,
        title: str = "POSG scheduling-quality observatory",
    ) -> None:
        self._recorder = recorder
        self._interval = POSITIVE.check("interval", interval)
        self._out = out if out is not None else sys.stdout
        self._ansi = ansi
        self._title = title
        self.frames_rendered = 0

    def _paint(self, first: bool) -> None:
        frame = render_frame(
            self._recorder.registry.snapshot(),
            title=self._title,
            ansi=self._ansi,
        )
        if self._ansi:
            prefix = _CLEAR if first else _HOME
            self._out.write(prefix + frame + "\x1b[J\n")
        else:
            self._out.write(frame + "\n")
        self._out.flush()
        self.frames_rendered += 1

    def run(self, fn):
        """Execute ``fn()`` in a worker thread, painting until it returns.

        Re-raises ``fn``'s exception, returns its result, and always
        paints one final frame after the join so the last state shown is
        the completed run's.
        """
        box: dict = {}

        def worker() -> None:
            try:
                box["result"] = fn()
            except BaseException as error:  # noqa: BLE001 - re-raised below
                box["error"] = error

        thread = threading.Thread(target=worker, daemon=True)
        self._paint(first=True)
        thread.start()
        while thread.is_alive():
            thread.join(self._interval)
            if thread.is_alive():
                self._paint(first=False)
        self._paint(first=False)
        if "error" in box:
            raise box["error"]
        return box.get("result")


# ----------------------------------------------------------------------
# static HTML report
# ----------------------------------------------------------------------
def _html_table(rows: list[tuple], headers: tuple) -> str:
    head = "".join(f"<th>{html.escape(str(h))}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{html.escape(str(c))}</td>" for c in row) + "</tr>"
        for row in rows
    )
    return f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"


def _fmt(value, digits: int = 4) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    return str(value)


def write_html_report(path: "str | Path", report: dict) -> Path:
    """Render a v3 run-report dict as a static, dependency-free HTML page."""
    sections = [
        f"<h1>POSG quality report</h1>"
        f"<p class='meta'>policy={html.escape(str(report.get('policy')))} "
        f"m={report.get('m')} k={report.get('k')} "
        f"schema={html.escape(str(report.get('schema')))}</p>",
        "<h2>Run</h2>"
        + _html_table(
            [
                ("L (avg completion)", f"{_fmt(report.get('average_completion_ms'))} ms"),
                ("p99 completion", f"{_fmt(report.get('p99_completion_ms'))} ms"),
                ("max completion", f"{_fmt(report.get('max_completion_ms'))} ms"),
                ("imbalance (tuple counts)", _fmt(report.get("imbalance"))),
                ("control messages", report.get("control_messages")),
                ("control bits", report.get("control_bits")),
            ],
            ("metric", "value"),
        ),
    ]

    quality = report.get("quality")
    if quality:
        makespan = quality["makespan"]
        sections.append(
            "<h2>Decision quality</h2>"
            + _html_table(
                [
                    ("achieved makespan", f"{_fmt(makespan['achieved_ms'])} ms"),
                    ("oracle GOS makespan", f"{_fmt(makespan['oracle_gos_ms'])} ms"),
                    ("OPT lower bound", f"{_fmt(makespan['opt_lower_bound_ms'])} ms"),
                    ("achieved / oracle", _fmt(makespan["achieved_vs_oracle"])),
                    (
                        "oracle / LB vs Graham bound "
                        f"(2 - 1/k = {_fmt(makespan['graham_bound'])})",
                        _fmt(makespan["oracle_gos_ratio"]),
                    ),
                    ("Theorem 4.2 holds", _fmt(makespan["theorem42_holds"])),
                    ("final imbalance", _fmt(quality["imbalance"]["final"])),
                    ("misroute fraction", _fmt(quality["regret"]["misroute_fraction"])),
                    ("total regret", f"{_fmt(quality['regret']['total_ms'], 1)} ms"),
                ],
                ("metric", "value"),
            )
        )

    audit = report.get("audit")
    if audit:
        abs_q = audit.get("abs_error_quantiles_ms", {})
        rel_q = audit.get("rel_error_quantiles", {})
        quantile_rows = [
            (key, f"{_fmt(abs_q.get(key))} ms", _fmt(rel_q.get(key)))
            for key in abs_q
        ]
        sections.append(
            "<h2>Estimator audit</h2>"
            + _html_table(
                [
                    ("audited samples", audit.get("samples")),
                    ("sample stride", audit.get("sample_every")),
                    ("mean true time", f"{_fmt(audit.get('mean_true_ms'))} ms"),
                    ("mean estimate", f"{_fmt(audit.get('mean_estimate_ms'))} ms"),
                    ("mean |error|", f"{_fmt(audit.get('mean_abs_error_ms'))} ms"),
                    ("overestimate fraction", _fmt(audit.get("overestimate_fraction"))),
                ],
                ("metric", "value"),
            )
            + "<h3>Error quantiles (streaming P&sup2;)</h3>"
            + _html_table(quantile_rows, ("quantile", "absolute", "relative"))
        )
        theorem = audit.get("theorem43") or {}
        checks = theorem.get("checks") or []
        if checks:
            sections.append(
                f"<h3>Theorem 4.3 tail checks (r = {theorem.get('rows')})</h3>"
                + _html_table(
                    [
                        (
                            f"{check['threshold_ms']:g} ms",
                            _fmt(check["empirical_tail"]),
                            _fmt(check["markov_bound"]),
                            _fmt(check["row_bound"]),
                            _fmt(check["holds"]),
                        )
                        for check in checks
                    ],
                    ("threshold a", "empirical Pr{est >= a}", "Markov E/a",
                     "(E/a)^r", "holds"),
                )
            )

    flight = report.get("flightrecorder")
    if flight:
        shard_rows = [
            (
                shard.get("shard"),
                shard.get("events"),
                shard.get("sync_requests"),
                shard.get("sync_replies"),
                shard.get("stale_replies"),
                shard.get("folds"),
                shard.get("route_samples"),
                _fmt(shard.get("staleness_mean"), 1),
                shard.get("staleness_max"),
                shard.get("dropped_events"),
            )
            for shard in flight.get("per_shard", [])
        ]
        sections.append(
            "<h2>Flight recorder</h2>"
            + _html_table(
                [
                    ("scheduler shards", flight.get("sources")),
                    ("events captured", flight.get("events_total")),
                    ("events dropped (capacity)", flight.get("dropped_events")),
                    ("route sample stride", flight.get("sample_every")),
                    ("collision window (tuples)", flight.get("window")),
                ],
                ("metric", "value"),
            )
            + _html_table(
                shard_rows,
                ("shard", "events", "sync req", "sync rep", "stale",
                 "folds", "routes", "staleness mean", "staleness max",
                 "dropped"),
            )
            + "<h3>Shard lanes</h3><pre>"
            + html.escape(render_shard_lanes(flight, width=100))
            + "</pre>"
        )

    lineage = report.get("lineage")
    if lineage:
        component_rows = [
            (
                component,
                _fmt(block.get("mean_ms"), 3),
                f"{block.get('share', 0.0) * 100.0:.1f}%",
                _fmt(block.get("p50"), 3),
                _fmt(block.get("p99"), 3),
                _fmt(block.get("p999"), 3),
            )
            for component, block in lineage.get("components", {}).items()
        ]
        sections.append(
            "<h2>Latency lineage</h2>"
            + _html_table(
                [
                    ("scheduler shards", lineage.get("sources")),
                    ("sample stride", lineage.get("sample_every")),
                    ("spans captured", lineage.get("samples_total")),
                    (
                        "spans dropped (capacity)",
                        lineage.get("dropped_samples"),
                    ),
                ],
                ("metric", "value"),
            )
            + _html_table(
                component_rows,
                ("component", "mean ms", "share", "p50 ms", "p99 ms",
                 "p999 ms"),
            )
        )
        slos = lineage.get("slos", [])
        if slos:
            sections.append(
                "<h3>SLOs</h3>"
                + _html_table(
                    [
                        (
                            slo.get("name"),
                            f"p{slo.get('percentile'):g} "
                            f"< {slo.get('latency_ms'):g} ms",
                            slo.get("violations"),
                            slo.get("samples"),
                            _fmt(slo.get("violation_rate")),
                            _fmt(slo.get("burn_rate"), 3),
                            "MET" if slo.get("met") else "MISSED",
                        )
                        for slo in slos
                    ],
                    ("slo", "target", "violations", "samples",
                     "violation rate", "burn rate", "status"),
                )
            )

    tracer = report.get("tracer")
    if tracer and tracer.get("dropped", 0):
        sections.append(
            "<p class='meta'>tracer ring buffer dropped "
            f"{tracer['dropped']} of {tracer['emitted']} events — "
            "the FSM timeline below is truncated.</p>"
        )

    payload = json.dumps(report, indent=2, default=str)
    document = (
        "<!doctype html><html><head><meta charset='utf-8'>"
        "<title>POSG quality report</title><style>"
        "body{font-family:ui-monospace,monospace;margin:2rem;color:#222}"
        "table{border-collapse:collapse;margin:0.5rem 0}"
        "td,th{border:1px solid #bbb;padding:0.25rem 0.6rem;text-align:left}"
        "th{background:#eee}.meta{color:#666}"
        "</style></head><body>"
        + "".join(sections)
        + "<h2>Raw report</h2><details><summary>report.json</summary>"
        + f"<pre id='report-json'>{html.escape(payload)}</pre></details>"
        + "</body></html>\n"
    )
    path = Path(path)
    path.write_text(document)
    return path
