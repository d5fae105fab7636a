"""Cross-shard flight recorder: causal per-shard timelines.

Each upstream scheduler (shard) re-baselines ``C_hat`` only when a sync
round folds, and between folds it routes against a belief that drifts
from the instances' true global load.  The flight recorder captures
that evidence:

- **causal per-shard timelines** — every sync request, sync reply
  (fresh or stale), delta fold (the ``C_hat`` re-baseline) and matrices
  broadcast, in the order the shard's scheduler saw them, stamped with
  the scheduler's ``tuples_scheduled`` clock;
- **sampled routing decisions** — every ``sample_every``-th tuple of
  the stream records which instance the owning shard argmin-picked and
  the shard's *believed* per-instance loads (its ``C_hat`` right after
  the pick), and how many tuples old that belief was.

:func:`~repro.telemetry.dashboard.render_shard_lanes` draws the
timelines; :meth:`FlightRecorder.report` is the run report's
``flightrecorder`` block.

Determinism contract
--------------------
All record points are keyed on engine-invariant quantities: the
scheduler's ``tuples_scheduled`` counter for control events, and the
global stream index for route samples.  Both simulator engines and the
parallel engine emit the *same* events in the *same* per-shard order,
so :meth:`FlightRecorder.timelines` is bit-identical across
``chunk_size=0``, chunked and parallel runs for fixed seeds (asserted
by ``tests/simulator/test_flightrecorder_equivalence.py``).

A shard-local clock value ``at`` (the ``t``-th tuple the shard
scheduled) maps to the global stream index ``g = shard + (t - 1) * s``
because tuple ``i`` is always routed by shard ``i mod s``.

Capacity semantics
------------------
Each shard's timeline is bounded by ``capacity``.  On overflow the
recorder keeps the *prefix* (new events are counted in
``dropped_events`` and discarded) so a truncated timeline is still a
deterministic, comparable prefix rather than a sliding window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.bounds import COUNT, check_bounds, integer
from repro.telemetry.recorder import NULL_RECORDER
from repro.telemetry.registry import Sample

#: timeline lanes embedded in reports are downsampled to this length
_LANE_CAP = 512


@dataclass(frozen=True)
class FlightRecorderConfig:
    """Tuning knobs for the flight recorder.

    Parameters
    ----------
    sample_every:
        Record every N-th tuple's routing decision (stream-global
        stride).  Because tuple ``i`` belongs to shard ``i mod s``, a
        stride sharing a factor with ``s`` would sample only a subset
        of the shards — :meth:`FlightRecorder.bind` therefore bumps the
        effective stride to the next integer coprime with ``s``, so the
        samples rotate over every shard.  256 (257 effective under
        even shard counts) keeps the sampled-mode overhead (the pinned
        benchmark's ``telemetry.flight.overhead_ratio``) within a few
        percent.
    capacity:
        Per-shard timeline bound; the prefix is kept on overflow and
        ``dropped_events`` counts the rest.  ``None`` is unbounded.
    window:
        Tuple-window stamped into :meth:`FlightRecorder.report`, for a
        reader grouping sampled decisions by window (two shards
        "concurrently" pick an instance when their sampled decisions
        land in the same window).
    """

    sample_every: int = integer(256, low=1)
    capacity: int | None = integer(65_536, low=1, optional=True)
    window: int = integer(2_048, low=1)

    def __post_init__(self) -> None:
        check_bounds(self)


class FlightRecorder:
    """Deterministic per-shard event capture for sharded POSG runs.

    One recorder instruments one run: pass it (or a
    :class:`FlightRecorderConfig`) to ``simulate_stream`` /
    ``simulate_stream_parallel`` via ``flight=`` and read
    :meth:`report` — or :attr:`SimulationResult.flight` — afterwards.

    Event tuples (per shard, insertion-ordered)::

        ("sync_request", at, instance, epoch)
        ("sync_reply",   at, instance, epoch, stale)
        ("fold",         at, epoch, deltas_folded)
        ("snoop",        at, published)               # cross-shard publish
        ("matrices",     at, instance)
        ("route",        index, instance, believed)   # believed: tuple[float]

    ``at`` is the shard scheduler's ``tuples_scheduled`` clock at
    emission; ``index`` is the global stream index of the sampled tuple.

    A shard whose timeline reaches ``config.capacity`` keeps the
    *prefix*: later events are counted in ``dropped_events`` and
    discarded, so a truncated timeline is still an engine-comparable
    prefix.  (:class:`~repro.telemetry.tracer.Tracer` does the opposite
    — its ring keeps the suffix — because an FSM trace is most useful
    near the end of a run.)
    """

    def __init__(self, config: FlightRecorderConfig | None = None, telemetry=NULL_RECORDER) -> None:
        self._config = config if config is not None else FlightRecorderConfig()
        self._telemetry = telemetry if telemetry is not None else NULL_RECORDER
        self._sources = 0
        self._timelines: list[list[tuple]] = []
        self._dropped: list[int] = []
        self._counts: list[dict[str, int]] = []
        #: global index of each shard's last fold (-1 before the first)
        self._last_fold_g: list[int] = []
        self._stale_sum: list[int] = []
        self._stale_max: list[int] = []
        #: worker-lifecycle side channel (parallel engine supervision);
        #: wall-clock-driven, so deliberately OUTSIDE timelines() and
        #: the bit-identity contract
        self._worker_events: list[tuple] = []
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
        self._timelines = [[] for _ in range(sources)]
        self._dropped = [0] * sources
        self._counts = [
            {
                "sync_request": 0,
                "sync_reply": 0,
                "stale_reply": 0,
                "fold": 0,
                "snoop": 0,
                "matrices": 0,
                "route": 0,
            }
            for _ in range(sources)
        ]
        self._last_fold_g = [-1] * sources
        self._stale_sum = [0] * sources
        self._stale_max = [0] * sources
        self._worker_events = []

    @property
    def config(self) -> FlightRecorderConfig:
        return self._config

    @property
    def sources(self) -> int:
        """Shard count bound by the policy (0 before :meth:`bind`)."""
        return self._sources

    @property
    def sample_every(self) -> int:
        """Effective route-sampling stride (coprime with the shard count).

        Before :meth:`bind` this is the configured value; afterwards it
        is the next integer coprime with ``sources``, so the stream-
        global stride ``j % sample_every == 0`` rotates over every
        shard instead of aliasing onto shard 0.
        """
        if self._sources == 0:
            return self._config.sample_every
        return self._effective_every

    @property
    def dropped_events(self) -> int:
        """Events discarded by the per-shard capacity bound (all shards)."""
        return sum(self._dropped)

    # ------------------------------------------------------------------
    # emission (cold paths except record_route, which is sampled)
    # ------------------------------------------------------------------
    def _append(self, shard: int, event: tuple) -> bool:
        timeline = self._timelines[shard]
        cap = self._config.capacity
        if cap is not None and len(timeline) >= cap:
            self._dropped[shard] += 1
            return False
        timeline.append(event)
        return True

    def record_sync_request(self, shard: int, at: int, instance: int, epoch: int) -> None:
        """A shard asked ``instance`` to report its cumulated time."""
        if self._append(shard, ("sync_request", at, instance, epoch)):
            self._counts[shard]["sync_request"] += 1

    def record_sync_reply(
        self, shard: int, at: int, instance: int, epoch: int, stale: bool
    ) -> None:
        """A reply reached the shard (``stale`` when epoch-mismatched)."""
        if self._append(shard, ("sync_reply", at, instance, epoch, stale)):
            self._counts[shard]["sync_reply"] += 1
            if stale:
                self._counts[shard]["stale_reply"] += 1

    def record_fold(self, shard: int, at: int, epoch: int, folded: int) -> None:
        """The shard folded ``folded`` deltas — its ``C_hat`` re-baseline."""
        if self._append(shard, ("fold", at, epoch, folded)):
            self._counts[shard]["fold"] += 1
        # The re-baseline applies to decisions after the shard's at-th
        # tuple, i.e. global positions beyond shard + (at - 1) * s.
        self._last_fold_g[shard] = self._global(shard, at)

    def record_snoop(self, shard: int, at: int, published: int) -> None:
        """The shard's fold published ``published`` values to siblings.

        Emitted on the *publisher's* timeline right after its ``fold``
        event (sync-reply snooping; see
        :class:`~repro.core.config.CoordinationConfig`).
        """
        if self._append(shard, ("snoop", at, published)):
            self._counts[shard]["snoop"] += 1

    def record_matrices(self, shard: int, at: int, instance: int) -> None:
        """The shard received (a copy of) an instance's (F, W) matrices."""
        if self._append(shard, ("matrices", at, instance)):
            self._counts[shard]["matrices"] += 1

    def record_route(self, shard: int, index: int, instance: int, believed) -> None:
        """Sampled routing decision at global stream ``index``.

        ``believed`` is the shard's per-instance load estimate right
        after the pick (its ``C_hat`` including this tuple's estimate).
        """
        if self._append(shard, ("route", index, instance, tuple(believed))):
            self._counts[shard]["route"] += 1
            age = index - self._last_fold_g[shard]
            self._stale_sum[shard] += age
            if age > self._stale_max[shard]:
                self._stale_max[shard] = age

    def record_worker_event(self, worker: int, kind: str, segment: int) -> None:
        """Worker-process lifecycle event from the parallel supervisor.

        These events (crash/hang detections, respawns, degradations)
        are driven by wall-clock deadlines, so they land in a side
        channel that :meth:`timelines` never exposes — the per-shard
        timelines stay bit-identical across engines while the report
        still carries the full supervision story.
        """
        self._worker_events.append((kind, int(worker), int(segment)))

    @property
    def worker_events(self) -> tuple[tuple, ...]:
        """Lifecycle side channel (insertion-ordered, non-deterministic)."""
        return tuple(self._worker_events)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def timelines(self) -> tuple[tuple, ...]:
        """Per-shard event tuples, insertion-ordered (for bit-identity)."""
        return tuple(tuple(timeline) for timeline in self._timelines)

    def _global(self, shard: int, at: int) -> int:
        """Global stream index of a shard's ``at``-th scheduled tuple."""
        if at <= 0:
            return -1
        return shard + (at - 1) * self._sources

    def _lane(self, shard: int) -> list[list]:
        """Downsampled ``[kind, global_index]`` lane for dashboards."""
        lane: list[list] = []
        for event in self._timelines[shard]:
            kind = event[0]
            if kind == "route":
                lane.append([kind, event[1]])
            else:
                lane.append([kind, self._global(shard, event[1])])
        if len(lane) > _LANE_CAP:
            stride = -(-len(lane) // _LANE_CAP)
            sampled = lane[::stride]
            if sampled[-1] is not lane[-1]:
                sampled.append(lane[-1])
            lane = sampled
        return lane

    def report(self) -> dict:
        """JSON-serializable summary (the RunReport ``flightrecorder`` block)."""
        per_shard = []
        for shard in range(self._sources):
            counts = self._counts[shard]
            routes = counts["route"]
            per_shard.append(
                {
                    "shard": shard,
                    "events": len(self._timelines[shard]),
                    "dropped_events": self._dropped[shard],
                    "sync_requests": counts["sync_request"],
                    "sync_replies": counts["sync_reply"],
                    "stale_replies": counts["stale_reply"],
                    "folds": counts["fold"],
                    "snoops": counts["snoop"],
                    "matrices": counts["matrices"],
                    "route_samples": routes,
                    "staleness_mean": (self._stale_sum[shard] / routes) if routes else 0.0,
                    "staleness_max": self._stale_max[shard],
                    "last_fold_at": self._last_fold_g[shard],
                    "lane": self._lane(shard),
                }
            )
        return {
            "schema": "posg-flight/v1",
            "sources": self._sources,
            "sample_every": self._config.sample_every,
            "window": self._config.window,
            "capacity": self._config.capacity,
            "events_total": sum(len(t) for t in self._timelines),
            "dropped_events": sum(self._dropped),
            "per_shard": per_shard,
            "worker_events": [list(event) for event in self._worker_events],
        }

    # ------------------------------------------------------------------
    # metrics (export-time collector; zero hot-path cost)
    # ------------------------------------------------------------------
    def _collect_samples(self) -> list[Sample]:
        samples: list[Sample] = []
        for shard in range(self._sources):
            labels = (("shard", str(shard)),)
            counts = self._counts[shard]
            routes = counts["route"]
            samples.extend(
                [
                    Sample(
                        "posg_flight_events_total",
                        len(self._timelines[shard]),
                        kind="counter",
                        labels=labels,
                        help="Flight-recorder events captured per shard.",
                    ),
                    Sample(
                        "posg_flight_routes_sampled_total",
                        routes,
                        kind="counter",
                        labels=labels,
                        help="Routing decisions sampled per shard.",
                    ),
                    Sample(
                        "posg_flight_folds_total",
                        counts["fold"],
                        kind="counter",
                        labels=labels,
                        help="C_hat re-baselines (delta folds) per shard.",
                    ),
                    Sample(
                        "posg_flight_dropped_events_total",
                        self._dropped[shard],
                        kind="counter",
                        labels=labels,
                        help="Flight events discarded by the capacity bound.",
                    ),
                    Sample(
                        "posg_flight_staleness_tuples_mean",
                        (self._stale_sum[shard] / routes) if routes else 0.0,
                        kind="gauge",
                        labels=labels,
                        help="Mean C_hat snapshot age over sampled decisions.",
                    ),
                    Sample(
                        "posg_flight_staleness_tuples_max",
                        self._stale_max[shard],
                        kind="gauge",
                        labels=labels,
                        help="Max C_hat snapshot age over sampled decisions.",
                    ),
                ]
            )
        return samples

