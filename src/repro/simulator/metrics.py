"""Completion-time metrics.

Implements the paper's evaluation metrics (Section V-A):

- ``L`` — average per-tuple completion time;
- ``S_L`` — completion-time speedup of one algorithm over another,
  ``sum(l_baseline) / sum(l_algorithm)``;
- the windowed time series of Figure 10 (max / mean / min completion
  time over trailing bins of 2,000 tuples).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bounds import COUNT, Bound
from repro.telemetry.quantiles import P2Quantile


class CompletionStats:
    """Per-tuple completion times and derived statistics."""

    def __init__(self, completions: np.ndarray, assignments: np.ndarray) -> None:
        completions = np.asarray(completions, dtype=np.float64)
        assignments = np.asarray(assignments, dtype=np.int64)
        if completions.shape != assignments.shape:
            raise ValueError("completions and assignments must align")
        if completions.size == 0:
            raise ValueError("need at least one completed tuple")
        if np.any(completions < 0):
            raise ValueError("completion times must be >= 0")
        self._completions = completions
        self._assignments = assignments

    @property
    def completions(self) -> np.ndarray:
        """Per-tuple completion times, stream order (read-only)."""
        view = self._completions.view()
        view.flags.writeable = False
        return view

    @property
    def assignments(self) -> np.ndarray:
        """Per-tuple destination instance (read-only)."""
        view = self._assignments.view()
        view.flags.writeable = False
        return view

    @property
    def m(self) -> int:
        """Number of tuples."""
        return self._completions.size

    @property
    def average_completion_time(self) -> float:
        """The paper's ``L`` metric."""
        return float(self._completions.mean())

    @property
    def total_completion_time(self) -> float:
        """Cumulated completion time (the numerator of ``L``)."""
        return float(self._completions.sum())

    def percentile(self, q: float, exact: bool = False) -> float:
        """Completion-time percentile (e.g. ``q=99`` for tail latency).

        Streams the completions through the O(1)-memory P² estimator by
        default — the same estimator the quality observatory runs online
        — so report percentiles and dashboard percentiles agree by
        construction.  ``exact=True`` is the fallback that selects
        ``np.percentile`` (full sort, linear interpolation) for tests
        and offline analysis.  The two paths are *not* bit-identical in
        general: P² maintains five markers by parabolic interpolation,
        so on adversarial inputs — notably duplicate-heavy streams,
        where many completions collapse onto few distinct values — the
        streaming estimate can sit between duplicated values where the
        exact percentile snaps onto one of them.  The deviation is
        bounded by the local value spacing (see
        ``test_percentile_duplicate_heavy_stream``); for small runs
        (five or fewer tuples) the P² path is exact anyway, since the
        estimator holds the whole sample.
        """
        Bound(float, 0, 100).check("q", q)
        if exact:
            return float(np.percentile(self._completions, q))
        if q == 0.0:
            return float(self._completions.min())
        if q == 100.0:
            return float(self._completions.max())
        estimator = P2Quantile(q / 100.0)
        estimator.observe_many(self._completions)
        return estimator.value

    @property
    def max_completion_time(self) -> float:
        """Worst per-tuple completion time."""
        return float(self._completions.max())

    def speedup_over(self, baseline: "CompletionStats") -> float:
        """``S_L = sum(l_baseline) / sum(l_self)`` (Section V-A)."""
        if baseline.m != self.m:
            raise ValueError(
                f"streams differ in length: baseline {baseline.m} vs {self.m}"
            )
        return baseline.total_completion_time / self.total_completion_time

    def instance_tuple_counts(self, k: int) -> np.ndarray:
        """Tuples routed to each instance."""
        return np.bincount(self._assignments, minlength=k)

    def time_series(self, bin_size: int = 2000) -> "TimeSeries":
        """Figure-10-style series: stats over consecutive bins of tuples."""
        bin_size = COUNT.check("bin_size", bin_size)
        m = self.m
        edges = np.arange(0, m, bin_size)
        centers, mins, means, maxes = [], [], [], []
        for start in edges:
            window = self._completions[start:start + bin_size]
            if window.size == 0:  # pragma: no cover - unreachable by edges
                continue
            centers.append(start + window.size // 2)
            mins.append(float(window.min()))
            means.append(float(window.mean()))
            maxes.append(float(window.max()))
        return TimeSeries(
            index=np.array(centers, dtype=np.int64),
            minimum=np.array(mins),
            mean=np.array(means),
            maximum=np.array(maxes),
        )


@dataclass(frozen=True)
class TimeSeries:
    """Binned min/mean/max completion times along the stream."""

    index: np.ndarray
    minimum: np.ndarray
    mean: np.ndarray
    maximum: np.ndarray

    def __len__(self) -> int:
        return self.index.size


def aggregate_runs(values: list[float]) -> dict[str, float]:
    """Min / mean / max over repeated randomized runs (the paper reports
    "maximum, mean and minimum figures over the 100 executions")."""
    if not values:
        raise ValueError("need at least one run")
    array = np.asarray(values, dtype=np.float64)
    return {
        "min": float(array.min()),
        "mean": float(array.mean()),
        "max": float(array.max()),
    }
