"""Decision-quality metrics: how close did the routing get to optimal?

Computed **after** a run, from the assignment vector and the true
per-tuple execution times — never from scheduler internals — so the
numbers are identical for the per-tuple and chunked engines by
construction (the engines already agree on the assignments bit for bit).

Three families of metrics, mirroring the paper's evaluation section:

- **makespan** — the achieved per-instance load (true milliseconds of
  work actually routed to each instance) against (a) an *oracle GOS*:
  the Greedy Online Scheduler fed true execution times (the paper's Full
  Knowledge baseline, Theorem 4.1's setting) and (b) the classic
  makespan lower bound ``max(sum(w)/k, max(w))``.  On identical
  instances Graham's bound guarantees ``oracle / lower <= 2 - 1/k``
  (Theorem 4.2) — the check the ``observe`` CLI gates on.
- **imbalance** — ``L(t) = max/mean - 1`` of the true work per instance,
  final and over sliding windows of the stream.
- **regret** — a sequential replay against ``argmin`` of the *true*
  cumulated loads: a tuple is misrouted when the scheduler picked an
  instance whose true load exceeded the best one's, and the miss cost is
  the load gap at decision time (per-window fraction + cost).

With heterogeneous instances (a load-shift scenario) the Graham bound
does not apply — ``identical_machines`` is reported and the Theorem 4.2
check only asserts when it is true.

The module only needs numpy and the result arrays, keeping
``repro.telemetry`` import-cycle-free.
"""

from __future__ import annotations

import numpy as np

from repro.bounds import COUNT
from repro.telemetry.recorder import NULL_RECORDER

__all__ = ["compute_quality", "execution_time_matrix", "record_quality"]


def execution_time_matrix(stream, scenario, k: int) -> np.ndarray:
    """True execution time of every tuple on every instance: ``(m, k)``.

    The scenario's bulk ``multiplier_matrix`` times the base times — the
    same elementwise product the chunked engine hoists.
    """
    base = np.asarray(stream.base_times, dtype=np.float64)
    multipliers = np.asarray(
        scenario.multiplier_matrix(base.shape[0]), dtype=np.float64
    )[:, :k]
    return base[:, None] * multipliers


def _oracle_gos(times: np.ndarray, k: int) -> tuple[np.ndarray, float]:
    """Greedy Online Scheduler on the true times; returns (loads, makespan).

    Same first-minimum tie-breaking as ``np.argmin`` (and the repo's
    :func:`repro.core.gos.greedy_online_schedule`): ties go to the lowest
    instance index.
    """
    loads = [0.0] * k
    k_range = range(1, k)
    columns = [times[:, instance].tolist() for instance in range(k)]
    m = times.shape[0]
    for j in range(m):
        best = loads[0]
        instance = 0
        for i in k_range:
            value = loads[i]
            if value < best:
                best = value
                instance = i
        loads[instance] = best + columns[instance][j]
    loads_array = np.asarray(loads, dtype=np.float64)
    return loads_array, float(loads_array.max())


def _imbalance(loads: np.ndarray) -> float:
    mean = float(loads.mean())
    return float(loads.max() / mean - 1.0) if mean > 0 else 0.0


def compute_quality(
    assignments,
    times: np.ndarray,
    k: int,
    window: int = 2048,
) -> dict:
    """Quality metrics for one run; see the module docstring.

    Parameters
    ----------
    assignments:
        Per-tuple destination instance, stream order (``stats.assignments``).
    times:
        ``(m, k)`` true execution times from :func:`execution_time_matrix`.
        Column ``i`` is what the tuple would have cost on instance ``i``.
    k:
        Number of instances.
    window:
        Sliding-window length (tuples) for the windowed series.
    """
    assignments = np.asarray(assignments, dtype=np.int64)
    m = assignments.shape[0]
    if times.shape != (m, k):
        raise ValueError(
            f"times must have shape ({m}, {k}), got {times.shape}"
        )
    window = COUNT.check("window", window)

    chosen_times = times[np.arange(m), assignments]
    achieved_loads = np.bincount(assignments, weights=chosen_times, minlength=k)
    achieved_makespan = float(achieved_loads.max())

    identical = bool(np.all(times == times[:, :1]))
    oracle_loads, oracle_makespan = _oracle_gos(times, k)
    best_times = times.min(axis=1)
    lower_bound = float(max(best_times.sum() / k, best_times.max()))
    graham_bound = 2.0 - 1.0 / k
    oracle_ratio = oracle_makespan / lower_bound if lower_bound > 0 else 1.0
    theorem42_holds = (
        oracle_ratio <= graham_bound + 1e-9 if identical else None
    )

    # Sequential regret replay against argmin of the *true* loads.
    loads = [0.0] * k
    k_range = range(1, k)
    assignment_list = assignments.tolist()
    chosen_list = chosen_times.tolist()
    misrouted = 0
    regret_total = 0.0
    window_edges = list(range(0, m, window))
    window_stats: list[dict] = []
    win_miss = 0
    win_regret = 0.0
    win_start = 0
    for j in range(m):
        best = loads[0]
        for i in k_range:
            value = loads[i]
            if value < best:
                best = value
        instance = assignment_list[j]
        gap = loads[instance] - best
        if gap > 0.0:
            misrouted += 1
            win_miss += 1
            regret_total += gap
            win_regret += gap
        loads[instance] += chosen_list[j]
        if (j + 1) % window == 0 or j + 1 == m:
            count = j + 1 - win_start
            window_stats.append(
                {
                    "start": win_start,
                    "end": j + 1,
                    "misroute_fraction": win_miss / count,
                    "regret_ms": win_regret,
                }
            )
            win_start = j + 1
            win_miss = 0
            win_regret = 0.0

    # Windowed imbalance of the true work actually routed.
    imbalance_windows = []
    for start in window_edges:
        stop = min(start + window, m)
        loads_w = np.bincount(
            assignments[start:stop],
            weights=chosen_times[start:stop],
            minlength=k,
        )
        imbalance_windows.append(
            {"start": start, "end": stop, "imbalance": _imbalance(loads_w)}
        )
    window_imbalances = [entry["imbalance"] for entry in imbalance_windows]

    return {
        "m": int(m),
        "k": int(k),
        "window": int(window),
        "identical_machines": identical,
        "makespan": {
            "achieved_ms": achieved_makespan,
            "oracle_gos_ms": oracle_makespan,
            "opt_lower_bound_ms": lower_bound,
            "achieved_vs_oracle": (
                achieved_makespan / oracle_makespan if oracle_makespan > 0 else 1.0
            ),
            "oracle_gos_ratio": oracle_ratio,
            "graham_bound": graham_bound,
            "theorem42_holds": theorem42_holds,
            "achieved_loads_ms": achieved_loads.tolist(),
            "oracle_loads_ms": oracle_loads.tolist(),
        },
        "imbalance": {
            "final": _imbalance(achieved_loads),
            "max_window": max(window_imbalances),
            "mean_window": float(np.mean(window_imbalances)),
            "windows": imbalance_windows,
        },
        "regret": {
            "misrouted": int(misrouted),
            "misroute_fraction": misrouted / m if m else 0.0,
            "total_ms": regret_total,
            "mean_miss_ms": regret_total / misrouted if misrouted else 0.0,
            "windows": window_stats,
        },
    }


def record_quality(telemetry, quality: dict) -> None:
    """Publish ``posg_quality_*`` gauges from a quality dict."""
    telemetry = telemetry if telemetry is not None else NULL_RECORDER
    registry = telemetry.registry
    makespan = quality["makespan"]
    registry.gauge(
        "posg_quality_achieved_makespan_ms",
        help="Max true per-instance work under the actual assignments",
    ).set(makespan["achieved_ms"])
    registry.gauge(
        "posg_quality_oracle_makespan_ms",
        help="Makespan of the Greedy Online Scheduler fed true times",
    ).set(makespan["oracle_gos_ms"])
    registry.gauge(
        "posg_quality_achieved_vs_oracle",
        help="Achieved / oracle-GOS makespan ratio (1.0 = optimal greedy)",
    ).set(makespan["achieved_vs_oracle"])
    registry.gauge(
        "posg_quality_oracle_gos_ratio",
        help="Oracle-GOS makespan over the OPT lower bound (Theorem 4.2)",
    ).set(makespan["oracle_gos_ratio"])
    registry.gauge(
        "posg_quality_imbalance",
        help="Final true-work imbalance max/mean - 1",
    ).set(quality["imbalance"]["final"])
    registry.gauge(
        "posg_quality_misroute_fraction",
        help="Tuples routed off the true argmin instance",
    ).set(quality["regret"]["misroute_fraction"])
    registry.gauge(
        "posg_quality_regret_ms",
        help="Cumulated load gap of misrouted tuples",
    ).set(quality["regret"]["total_ms"])
