"""Per-tuple lineage tracing: latency decomposition + SLO observatory.

The repo observes latency only in aggregate (``CompletionStats``
percentiles, makespan vs the Theorem 4.2 oracle) — nothing says *where*
a slow tuple's time went.  This module adds a Dapper-style tracer that
samples every N-th tuple of the stream and records its **span chain**:

- the arrival clock and the owning shard's scheduling decision (chosen
  instance, the shard's believed per-instance loads, and the *margin*
  the argmin pick had over the runner-up);
- the enqueue clock at the instance (arrival + data-plane latency) and
  the queue ahead of the tuple, expressed in time (``start - enqueue``);
- execution start/finish clocks and the instance window's remaining
  tuple budget at execution (how close the window was to closing).

From the four raw clocks the tracer derives the decomposition

    completion = scheduling_delay + queue_wait + service_time

where the partition is **exact in IEEE-754**, not approximately equal.
Floating-point addition does not associate, so the identity is defined
by construction: with left-to-right evaluation,

    completion       = finish - arrival
    scheduling_delay = at_instance - arrival
    queue_wait       = start - at_instance
    service_time     = (completion - scheduling_delay) - queue_wait

which makes ``((completion - scheduling_delay) - queue_wait)
- service_time == 0.0`` bit-exact for every sampled tuple (a property
test sweeps adversarial magnitudes).  ``service_time`` equals the
modeled execution time up to rounding of the subtraction chain; the
three components are each >= 0 up to that same rounding.

Determinism contract
--------------------
Records are keyed on the global stream index and store only
engine-invariant clocks (the same float values both engines compute
for arrival / at-instance / start / finish) plus the believed loads the
engine-side block routers commit.  The per-shard timelines are
therefore **bit-identical** across the per-tuple reference and the
chunked engine, with and without fault plans (gated by
``tests/simulator/test_lineage_equivalence.py``).  Like the flight
recorder, the sampling stride is bumped to the next integer coprime
with the shard count so samples rotate over every shard; quantiles and
SLO burn rates are computed at :meth:`LineageTracer.report` time from
the records merged in global index order, so they never depend on the
engine's observation interleaving.

Capacity semantics
------------------
Per-shard timelines are prefix-keep bounded by ``capacity``: on
overflow new samples are counted in ``dropped_samples`` and discarded,
so a truncated timeline is a deterministic, comparable prefix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.bounds import COUNT, check_bounds, integer, real
from repro.telemetry.quantiles import P2Quantile
from repro.telemetry.recorder import NULL_RECORDER
from repro.telemetry.registry import Sample

#: component keys of the exact latency partition, in identity order
COMPONENTS = ("scheduling_delay", "queue_wait", "service_time")

#: report quantiles per component (P² streaming, label -> q)
_QUANTILES = (("p50", 0.50), ("p99", 0.99), ("p999", 0.999))


@dataclass(frozen=True)
class SLOConfig:
    """One declarative latency objective.

    Parameters
    ----------
    name:
        Label carried into the ``posg_slo_*`` metric series and the
        report block.
    latency_ms:
        Completion-time threshold a tuple must finish under.
    percentile:
        Objective percentile in ``(0, 100)``: "``percentile`` % of
        tuples complete within ``latency_ms``".  The *error budget* is
        the complementary fraction ``1 - percentile/100``; the burn
        rate is the observed violation rate divided by that budget
        (1.0 = exactly spending the budget, > 1.0 = violating the SLO).
    """

    name: str
    latency_ms: float = real(low=0, open_low=True)
    percentile: float = real(99.0, low=0, high=100, open_low=True, open_high=True)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("SLO name must be non-empty")
        check_bounds(self)

    @property
    def budget(self) -> float:
        """Allowed violation fraction (the error budget)."""
        return 1.0 - self.percentile / 100.0


@dataclass(frozen=True)
class LineageConfig:
    """Tuning knobs for the lineage tracer.

    Parameters
    ----------
    sample_every:
        Trace every N-th tuple (stream-global stride).  Tuple ``i``
        belongs to shard ``i mod s``, so :meth:`LineageTracer.bind`
        bumps the effective stride to the next integer coprime with
        ``s`` — the samples then rotate over every shard instead of
        aliasing onto shard 0.  The default keeps the sampled-mode
        overhead (the pinned benchmark's
        ``telemetry.lineage.overhead_ratio``) within a few percent.
    capacity:
        Per-shard sample bound; the prefix is kept on overflow and
        ``dropped_samples`` counts the rest.  ``None`` is unbounded.
    slos:
        Declarative :class:`SLOConfig` targets evaluated at report
        time into burn-rate counters.
    """

    sample_every: int = integer(128, low=1)
    capacity: int | None = integer(65_536, low=1, optional=True)
    slos: tuple[SLOConfig, ...] = ()

    def __post_init__(self) -> None:
        check_bounds(self)
        names = [slo.name for slo in self.slos]
        if len(names) != len(set(names)):
            raise ValueError(f"SLO names must be unique, got {names}")


def decompose(record: tuple) -> dict:
    """Derive the exact latency partition of one lineage record.

    ``record`` is a timeline tuple ``(index, instance, believed,
    arrival, at_instance, start, finish, window_remaining)``.  Returns
    the span chain plus the derived components; ``service_time`` is
    defined as the exact remainder of the left-to-right subtraction
    chain, which is what makes the partition identity hold bit-exactly
    (see the module docstring).
    """
    index, instance, believed, arrival, at_instance, start, finish, window = record
    completion = finish - arrival
    scheduling_delay = at_instance - arrival
    queue_wait = start - at_instance
    service_time = (completion - scheduling_delay) - queue_wait
    if believed and len(believed) > 1:
        margin = min(
            value for pos, value in enumerate(believed) if pos != instance
        ) - believed[instance]
    else:
        margin = 0.0
    return {
        "index": index,
        "instance": instance,
        "believed": believed,
        "margin_ms": margin,
        "arrival_ms": arrival,
        "enqueue_ms": at_instance,
        "start_ms": start,
        "finish_ms": finish,
        "window_remaining": window,
        "completion_ms": completion,
        "scheduling_delay": scheduling_delay,
        "queue_wait": queue_wait,
        "service_time": service_time,
    }


class LineageTracer:
    """Deterministic per-tuple span capture for any grouping policy.

    One tracer instruments one run: pass it (or a
    :class:`LineageConfig`) to ``simulate_stream`` via ``lineage=``
    and read
    :meth:`report` — or :attr:`SimulationResult.lineage` — afterwards.

    Record tuples (per shard, ascending global index)::

        (index, instance, believed, arrival, at_instance, start,
         finish, window_remaining)

    ``believed`` is the owning shard's per-instance load estimate right
    after the pick (``C_hat`` including this tuple's estimate — the
    flight-recorder convention), or ``()`` for policies without an
    estimated load vector (round-robin, oracle baselines).
    ``window_remaining`` is the chosen instance's remaining tuple
    budget before its estimation window closes, *before* this tuple
    executes (0 for policies without instance windows).
    """

    def __init__(self, config: LineageConfig | None = None, telemetry=NULL_RECORDER) -> None:
        self._config = config if config is not None else LineageConfig()
        self._telemetry = telemetry if telemetry is not None else NULL_RECORDER
        self._sources = 0
        self._effective_every = self._config.sample_every
        self._timelines: list[list[list]] = []
        self._dropped: list[int] = []
        self._telemetry.registry.register_collector(self._collect_samples)

    # ------------------------------------------------------------------
    # binding
    # ------------------------------------------------------------------
    def bind(self, sources: int) -> None:
        """(Re)initialize for a run with ``sources`` scheduler shards."""
        self._sources = COUNT.check("sources", sources)
        every = self._config.sample_every
        while math.gcd(every, self._sources) != 1:
            every += 1
        self._effective_every = every
        self._timelines = [[] for _ in range(self._sources)]
        self._dropped = [0] * self._sources

    @property
    def config(self) -> LineageConfig:
        return self._config

    @property
    def sources(self) -> int:
        """Shard count bound by the policy (0 before :meth:`bind`)."""
        return self._sources

    @property
    def sample_every(self) -> int:
        """Effective sampling stride (coprime with the shard count).

        Before :meth:`bind` this is the configured value; afterwards it
        is the next integer coprime with ``sources``, so the stream-
        global stride ``index % sample_every == 0`` rotates over every
        shard instead of aliasing onto shard 0.
        """
        if self._sources == 0:
            return self._config.sample_every
        return self._effective_every

    @property
    def dropped_samples(self) -> int:
        """Samples discarded by the per-shard capacity bound (all shards)."""
        return sum(self._dropped)

    # ------------------------------------------------------------------
    # emission (the engines call this on the sampled stride only)
    # ------------------------------------------------------------------
    def record_sample(
        self,
        shard: int,
        index: int,
        instance: int,
        believed,
        arrival: float,
        at_instance: float,
        start: float,
        finish: float,
        window_remaining: int,
    ) -> list | None:
        """Record one sampled tuple's span chain (raw clocks); return the
        record, or ``None`` when the shard's capacity dropped it.

        The clocks are the engine's own values — never re-derived — so
        identical runs produce identical records regardless of engine.
        An engine that serves the tuple later passes ``start`` and
        ``finish`` as ``None`` and writes them into the returned record
        (entries 5 and 6) before anything reads it.
        """
        timeline = self._timelines[shard]
        cap = self._config.capacity
        if cap is not None and len(timeline) >= cap:
            self._dropped[shard] += 1
            return None
        record = [
            index, instance, tuple(believed), arrival, at_instance, start,
            finish, window_remaining,
        ]
        timeline.append(record)
        return record

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def timelines(self) -> tuple[tuple, ...]:
        """Per-shard record tuples, ascending index (for bit-identity)."""
        return tuple(tuple(map(tuple, timeline)) for timeline in self._timelines)

    def records(self) -> list[tuple]:
        """All records merged in global stream-index order.

        Each shard's timeline is already ascending in index, so the
        merge is a deterministic sort over disjoint index sets — the
        same list whichever engine produced the timelines.
        """
        merged = [tuple(record) for timeline in self._timelines for record in timeline]
        merged.sort(key=lambda record: record[0])
        return merged

    def spans(self) -> list[dict]:
        """Every record decomposed (:func:`decompose`), index order."""
        return [decompose(record) for record in self.records()]

    # ------------------------------------------------------------------
    # aggregation (report time; never on the hot path)
    # ------------------------------------------------------------------
    def _aggregate(self) -> dict:
        records = self.records()
        samples = len(records)
        quantiles: dict[str, P2Quantile] = {}
        for component in ("completion",) + COMPONENTS:
            for label, q in _QUANTILES:
                quantiles[f"{component}.{label}"] = P2Quantile(q)
        sums = {component: 0.0 for component in ("completion",) + COMPONENTS}
        violations = [0] * len(self._config.slos)
        for record in records:
            span = decompose(record)
            values = {
                "completion": span["completion_ms"],
                "scheduling_delay": span["scheduling_delay"],
                "queue_wait": span["queue_wait"],
                "service_time": span["service_time"],
            }
            for component, value in values.items():
                sums[component] += value
                for label, _ in _QUANTILES:
                    quantiles[f"{component}.{label}"].observe(value)
            for position, slo in enumerate(self._config.slos):
                if span["completion_ms"] > slo.latency_ms:
                    violations[position] += 1
        components = {}
        total = sums["completion"]
        for component in ("completion",) + COMPONENTS:
            components[component] = {
                "mean_ms": sums[component] / samples if samples else 0.0,
                "share": (sums[component] / total) if total > 0.0 else 0.0,
                **{
                    label: (
                        quantiles[f"{component}.{label}"].value
                        if samples
                        else None
                    )
                    for label, _ in _QUANTILES
                },
            }
        slos = []
        for position, slo in enumerate(self._config.slos):
            observed = violations[position] / samples if samples else 0.0
            slos.append(
                {
                    "name": slo.name,
                    "latency_ms": slo.latency_ms,
                    "percentile": slo.percentile,
                    "budget": slo.budget,
                    "samples": samples,
                    "violations": violations[position],
                    "violation_rate": observed,
                    # budget > 0 by SLOConfig validation
                    "burn_rate": observed / slo.budget,
                    "met": observed <= slo.budget,
                }
            )
        return {"samples": samples, "components": components, "slos": slos}

    def slo_status(self) -> list[dict]:
        """The evaluated SLO blocks only (report-time convenience)."""
        return self._aggregate()["slos"]

    def report(self) -> dict:
        """JSON-serializable summary (the RunReport ``lineage`` block)."""
        aggregate = self._aggregate()
        per_shard = [
            {
                "shard": shard,
                "samples": len(self._timelines[shard]),
                "dropped_samples": self._dropped[shard],
            }
            for shard in range(self._sources)
        ]
        return {
            "schema": "posg-lineage/v1",
            "sources": self._sources,
            "sample_every": self.sample_every,
            "capacity": self._config.capacity,
            "samples_total": aggregate["samples"],
            "dropped_samples": sum(self._dropped),
            "per_shard": per_shard,
            "components": aggregate["components"],
            "slos": aggregate["slos"],
        }

    # ------------------------------------------------------------------
    # metrics (export-time collector; zero hot-path cost)
    # ------------------------------------------------------------------
    def _collect_samples(self) -> list[Sample]:
        samples: list[Sample] = []
        for shard in range(self._sources):
            labels = (("shard", str(shard)),)
            samples.extend(
                [
                    Sample(
                        "posg_lineage_samples_total",
                        len(self._timelines[shard]),
                        kind="counter",
                        labels=labels,
                        help="Lineage spans captured per shard.",
                    ),
                    Sample(
                        "posg_lineage_dropped_samples_total",
                        self._dropped[shard],
                        kind="counter",
                        labels=labels,
                        help="Lineage spans discarded by the capacity bound.",
                    ),
                ]
            )
        if self._sources:
            aggregate = self._aggregate()
            for component in ("completion",) + COMPONENTS:
                block = aggregate["components"][component]
                labels = (("component", component),)
                samples.append(
                    Sample(
                        "posg_lineage_component_mean_ms",
                        block["mean_ms"],
                        kind="gauge",
                        labels=labels,
                        help="Mean per-component latency over sampled tuples.",
                    )
                )
                for label, _ in _QUANTILES:
                    value = block[label]
                    if value is None or value != value:
                        continue
                    samples.append(
                        Sample(
                            f"posg_lineage_component_{label}_ms",
                            value,
                            kind="gauge",
                            labels=labels,
                            help=f"Streaming {label} per latency component.",
                        )
                    )
            for slo in aggregate["slos"]:
                labels = (("slo", slo["name"]),)
                samples.extend(
                    [
                        Sample(
                            "posg_slo_violations_total",
                            slo["violations"],
                            kind="counter",
                            labels=labels,
                            help="Sampled tuples over the SLO latency threshold.",
                        ),
                        Sample(
                            "posg_slo_burn_rate",
                            slo["burn_rate"],
                            kind="gauge",
                            labels=labels,
                            help="Violation rate over the SLO error budget "
                            "(> 1 means the objective is being missed).",
                        ),
                        Sample(
                            "posg_slo_met",
                            1.0 if slo["met"] else 0.0,
                            kind="gauge",
                            labels=labels,
                            help="Whether the SLO currently holds (1 = yes).",
                        ),
                    ]
                )
        return samples
