"""Online estimator audit: how good is ``W/F`` while the run is live?

The paper's scheduler routes on estimated execution times read off the
Count-Min ``(F, W)`` pair (Listing III.2) and argues two things about
that estimator: its expectation concentrates near the mean execution
time (Theorem 4.3) and its Markov tail over one row, ``Pr{est >= a} <=
E/a``, sharpens to ``(E/a)^r`` across ``r`` independently-hashed rows.
Nothing in the repository measured either claim at runtime — this module
does, on a **deterministic sample** of routed tuples.

Sampling rule: tuple ``j`` is audited iff ``j % sample_every == 0``
(stream position, not wall clock), so two runs over the same stream
sample the same tuples and the whole audit is reproducible bit for bit.
At each sampled tuple the auditor calls the scheduler's *pure*
:meth:`~repro.core.scheduler.POSGScheduler.estimate` — matrices are
frozen between control deliveries, so the value it reads is exactly the
estimate the routing decision used, under both simulator engines.

Per sample the auditor maintains O(1) state:

- streaming error quantiles (:class:`~repro.telemetry.quantiles.P2Quantile`)
  of the absolute and relative estimation error;
- per-row CMS collision diagnostics (which row the min-``F`` rule
  picked, how far the rows disagree);
- tail counters for the Theorem 4.3 checks: empirical
  ``Pr{est >= a}`` vs the Markov bound ``E/a`` (an *identity* on the
  empirical measure, so the check can gate CI without flaking) and the
  paper's ``(E/a)^r`` row-independence sharpening (reported, informative);
- optional segments (e.g. before/after an injected crash) with their
  own quantile estimators.

The module is duck-typed over the scheduler (it only needs ``estimate``
and, optionally, ``row_estimates``/``config``), keeping
``repro.telemetry`` free of ``repro.core`` imports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.bounds import POSITIVE, Bound, check_bounds, integer
from repro.telemetry.quantiles import P2Quantile
from repro.telemetry.recorder import NULL_RECORDER
from repro.telemetry.registry import Sample

__all__ = ["AuditConfig", "EstimatorAudit"]


@dataclass(frozen=True)
class AuditConfig:
    """Knobs of the estimator audit.

    Parameters
    ----------
    sample_every:
        Audit every N-th tuple (stream position).  256 keeps the sampled
        hot-path work within a few percent at paper scale (the pinned
        benchmark's ``telemetry.audit.overhead_ratio``).
    quantiles:
        Error quantiles to stream, as fractions.
    tail_thresholds_ms:
        Absolute estimate thresholds ``a`` for the Theorem 4.3 tail
        checks ``Pr{est >= a}``.  The defaults bracket the top of the
        default workload's 1..64 ms execution-time range.
    segment_boundaries:
        Stream positions that start a new audit segment (e.g. the tuple
        index of an injected crash); each segment keeps its own error
        quantiles so before/after comparisons stay honest.
    """

    sample_every: int = integer(256, low=1)
    quantiles: tuple[float, ...] = (0.5, 0.9, 0.99)
    tail_thresholds_ms: tuple[float, ...] = (48.0, 64.0, 96.0)
    segment_boundaries: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        check_bounds(self)
        if not self.quantiles:
            raise ValueError("need at least one quantile")
        quantile = Bound(float, 0, 1, open_low=True, open_high=True)
        for q in self.quantiles:
            quantile.check("quantiles", q)
        for t in self.tail_thresholds_ms:
            POSITIVE.check("tail_thresholds_ms", t)
        boundaries = tuple(sorted(self.segment_boundaries))
        if boundaries != tuple(self.segment_boundaries):
            object.__setattr__(self, "segment_boundaries", boundaries)


def _quantile_key(q: float) -> str:
    return f"p{q * 100:g}"


@dataclass(slots=True)
class _Segment:
    """Error tallies for one contiguous stretch of the stream."""

    start: int
    quantiles: tuple[float, ...]
    thresholds: tuple[float, ...]
    end: "int | None" = None
    samples: int = 0
    true_sum: float = 0.0
    estimate_sum: float = 0.0
    abs_error_sum: float = 0.0
    overestimates: int = 0
    zero_true: int = 0
    abs_error_q: list = field(default_factory=list)
    rel_error_q: list = field(default_factory=list)
    tail_counts: list = field(default_factory=list)

    def __post_init__(self) -> None:
        self.abs_error_q = [P2Quantile(q) for q in self.quantiles]
        self.rel_error_q = [P2Quantile(q) for q in self.quantiles]
        self.tail_counts = [0] * len(self.thresholds)

    def observe(self, estimate: float, true_time: float) -> None:
        error = estimate - true_time
        abs_error = error if error >= 0.0 else -error
        self.samples += 1
        self.true_sum += true_time
        self.estimate_sum += estimate
        self.abs_error_sum += abs_error
        if error > 0.0:
            self.overestimates += 1
        for estimator in self.abs_error_q:
            estimator.observe(abs_error)
        if true_time > 0.0:
            relative = abs_error / true_time
            for estimator in self.rel_error_q:
                estimator.observe(relative)
        else:
            self.zero_true += 1
        tail_counts = self.tail_counts
        for index, threshold in enumerate(self.thresholds):
            if estimate >= threshold:
                tail_counts[index] += 1

    def _quantile_dict(self, estimators) -> dict:
        out = {}
        for q, estimator in zip(self.quantiles, estimators):
            value = estimator.value
            out[_quantile_key(q)] = None if math.isnan(value) else float(value)
        return out

    def report(self) -> dict:
        n = self.samples
        return {
            "start": self.start,
            "end": self.end,
            "samples": n,
            "mean_true_ms": self.true_sum / n if n else None,
            "mean_estimate_ms": self.estimate_sum / n if n else None,
            "mean_abs_error_ms": self.abs_error_sum / n if n else None,
            "overestimate_fraction": self.overestimates / n if n else None,
            "abs_error_quantiles_ms": self._quantile_dict(self.abs_error_q),
            "rel_error_quantiles": self._quantile_dict(self.rel_error_q),
        }


class EstimatorAudit:
    """Streaming audit of the scheduler's execution-time estimator.

    Parameters
    ----------
    scheduler:
        Any object with a pure ``estimate(item, instance) -> float``
        (in practice :class:`~repro.core.scheduler.POSGScheduler`).
        ``row_estimates(item, instance)`` and ``config.sketch_shape``
        are used when present for the per-row collision diagnostics and
        the row-independence bound.
    config:
        :class:`AuditConfig` (defaults when omitted).
    telemetry:
        Optional recorder; the audit registers an export-time collector
        publishing ``posg_estimator_*`` samples.
    """

    def __init__(
        self, scheduler, config: AuditConfig | None = None, telemetry=NULL_RECORDER
    ) -> None:
        estimate = getattr(scheduler, "estimate", None)
        if not callable(estimate):
            raise ValueError(
                "estimator audit needs a scheduler exposing estimate(item, "
                f"instance); got {scheduler!r}"
            )
        self._scheduler = scheduler
        self._estimate = estimate
        self._config = config if config is not None else AuditConfig()
        self._telemetry = telemetry if telemetry is not None else NULL_RECORDER
        self._rows = self._sketch_rows(scheduler)
        self._row_estimates = getattr(scheduler, "row_estimates", None)
        # With pooled estimates the routing estimate averages over every
        # instance, so it cannot be recovered from one pair's rows.
        scheduler_config = getattr(scheduler, "config", None)
        self._pooled = bool(getattr(scheduler_config, "pooled_estimates", False))
        quantiles = self._config.quantiles
        thresholds = self._config.tail_thresholds_ms
        self._overall = _Segment(0, quantiles, thresholds)
        self._boundaries = list(self._config.segment_boundaries)
        # Without segment boundaries the single segment IS the overall
        # tally — observing it twice would double the per-sample P2 work
        # for identical numbers.
        if self._boundaries:
            self._segments = [_Segment(0, quantiles, thresholds)]
        else:
            self._segments = [self._overall]
        # collision diagnostics (whole run)
        self._row_pick_counts = [0] * (self._rows or 0)
        self._row_disagreements = 0
        self._rowed_samples = 0
        self._spread_q = [P2Quantile(q) for q in quantiles]
        self._telemetry.registry.register_collector(self._collect_samples)

    @staticmethod
    def _sketch_rows(scheduler) -> int | None:
        config = getattr(scheduler, "config", None)
        shape = getattr(config, "sketch_shape", None)
        if shape is None:
            return None
        return int(shape[0])

    # ------------------------------------------------------------------
    # ingestion (hot-ish path: once every sample_every tuples)
    # ------------------------------------------------------------------
    @property
    def sample_every(self) -> int:
        """Audit stride; the engines sample ``j % sample_every == 0``."""
        return self._config.sample_every

    def observe(
        self, index: int, item: int, instance: int, true_time: float
    ) -> None:
        """Audit one routed tuple.

        ``index`` is the stream position (drives segmenting), ``item``
        and ``instance`` identify the routing decision, ``true_time`` is
        the execution time the simulation actually charged (scenario
        multiplier included — the audit measures the estimator against
        what really happened).
        """
        boundaries = self._boundaries
        while boundaries and index >= boundaries[0]:
            boundary = boundaries.pop(0)
            self._segments[-1].end = boundary
            self._segments.append(
                _Segment(
                    boundary,
                    self._config.quantiles,
                    self._config.tail_thresholds_ms,
                )
            )
        row_fn = self._row_estimates
        rows = row_fn(item, instance) if row_fn is not None else None
        if rows:
            min_freq = rows[0][0]
            picked = 0
            for row in range(1, len(rows)):
                if rows[row][0] < min_freq:
                    min_freq = rows[row][0]
                    picked = row
            if self._pooled:
                estimate = float(self._estimate(item, instance))
            else:
                # FWPair.estimate is exactly the ratio at the first
                # minimum-F row (mean fallback folded into row_values),
                # so the rows fetched for the collision diagnostics
                # already contain the routing estimate.
                estimate = rows[picked][1]
        else:
            estimate = float(self._estimate(item, instance))
        overall = self._overall
        overall.observe(estimate, true_time)
        segment = self._segments[-1]
        if segment is not overall:
            segment.observe(estimate, true_time)
        if rows:
            self._rowed_samples += 1
            lo = math.inf
            hi = -math.inf
            disagree = False
            for freq, ratio in rows:
                if freq != min_freq:
                    disagree = True
                if freq > 0:
                    if ratio < lo:
                        lo = ratio
                    if ratio > hi:
                        hi = ratio
            if picked < len(self._row_pick_counts):
                self._row_pick_counts[picked] += 1
            if disagree:
                self._row_disagreements += 1
            if hi >= lo and estimate > 0.0:
                for estimator in self._spread_q:
                    estimator.observe((hi - lo) / estimate)

    # ------------------------------------------------------------------
    # readout
    # ------------------------------------------------------------------
    @property
    def samples(self) -> int:
        """Tuples audited so far."""
        return self._overall.samples

    def theorem43_checks(self) -> list[dict]:
        """Empirical Theorem 4.3 tail checks, one per threshold.

        ``markov_bound`` is ``min(1, E/a)`` with ``E`` the sampled mean
        estimate — Markov's inequality holds *exactly* on the empirical
        measure, so ``holds`` is deterministic (never a flake).
        ``row_bound`` is the paper's ``(E/a)^r`` sharpening under row
        independence; it is reported for comparison but not asserted
        (finite sketches are not perfectly independent across rows).
        """
        overall = self._overall
        n = overall.samples
        mean_estimate = overall.estimate_sum / n if n else 0.0
        checks = []
        for threshold, count in zip(
            self._config.tail_thresholds_ms, overall.tail_counts
        ):
            empirical = count / n if n else 0.0
            markov = min(1.0, mean_estimate / threshold)
            row_bound = markov ** self._rows if self._rows else None
            checks.append(
                {
                    "threshold_ms": threshold,
                    "empirical_tail": empirical,
                    "markov_bound": markov,
                    "row_bound": row_bound,
                    "holds": empirical <= markov + 1e-12,
                }
            )
        return checks

    def report(self) -> dict:
        """Everything the audit learned, as one JSON-ready dict."""
        overall = self._overall.report()
        overall.pop("start")
        overall.pop("end")
        rowed = self._rowed_samples
        return {
            "sample_every": self._config.sample_every,
            **overall,
            "zero_true_samples": self._overall.zero_true,
            "collisions": {
                "rowed_samples": rowed,
                "row_pick_counts": list(self._row_pick_counts),
                "row_disagreement_fraction": (
                    self._row_disagreements / rowed if rowed else None
                ),
                "relative_spread_quantiles": self._overall._quantile_dict(
                    self._spread_q
                ),
            },
            "theorem43": {
                "rows": self._rows,
                "checks": self.theorem43_checks(),
                "all_markov_hold": all(
                    check["holds"] for check in self.theorem43_checks()
                ),
            },
            "segments": [segment.report() for segment in self._segments],
        }

    def _collect_samples(self) -> list[Sample]:
        """Export-time ``posg_estimator_*`` samples (registry collector)."""
        overall = self._overall
        n = overall.samples
        samples = [
            Sample(
                "posg_estimator_samples_total",
                n,
                "counter",
                help="Routed tuples audited against the true service time",
            ),
            Sample(
                "posg_estimator_mean_true_ms",
                overall.true_sum / n if n else 0.0,
                "gauge",
                help="Mean true execution time over the audited sample",
            ),
            Sample(
                "posg_estimator_mean_estimate_ms",
                overall.estimate_sum / n if n else 0.0,
                "gauge",
                help="Mean W/F estimate over the audited sample",
            ),
            Sample(
                "posg_estimator_mean_abs_error_ms",
                overall.abs_error_sum / n if n else 0.0,
                "gauge",
                help="Mean |estimate - true| over the audited sample",
            ),
            Sample(
                "posg_estimator_row_disagreements_total",
                self._row_disagreements,
                "counter",
                help="Audited tuples whose CMS rows disagreed on the count",
            ),
        ]
        for q, abs_est, rel_est in zip(
            self._config.quantiles, overall.abs_error_q, overall.rel_error_q
        ):
            key = _quantile_key(q)
            for name, estimator, help_text in (
                (
                    f"posg_estimator_abs_error_{key}_ms",
                    abs_est,
                    "Streaming absolute-error quantile (P2)",
                ),
                (
                    f"posg_estimator_rel_error_{key}",
                    rel_est,
                    "Streaming relative-error quantile (P2)",
                ),
            ):
                value = estimator.value
                if not math.isnan(value):
                    samples.append(Sample(name, value, "gauge", help=help_text))
        for threshold, count in zip(
            self._config.tail_thresholds_ms, overall.tail_counts
        ):
            samples.append(
                Sample(
                    "posg_estimator_tail_fraction",
                    count / n if n else 0.0,
                    "gauge",
                    (("threshold_ms", f"{threshold:g}"),),
                    help="Empirical Pr{estimate >= threshold} (Theorem 4.3)",
                )
            )
        return samples

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EstimatorAudit(samples={self.samples}, "
            f"every={self._config.sample_every})"
        )
