"""Fast direct simulation of the single scheduling stage.

This is the workhorse behind every simulated figure of the paper.  It
exploits the structure of the topology (one scheduler in front of ``k``
FIFO instances, constant-rate arrivals) to avoid a full event loop for
the data plane:

- tuples are processed in arrival order; routing a tuple to instance
  ``i`` sets ``start = max(arrival + data_latency, busy_until[i])`` and
  ``finish = start + w``, which is exactly FIFO non-preemptive service;
- control messages (matrices, sync replies) are generated when their
  carrying tuple *finishes executing* and delivered to the scheduler
  after a control-plane latency, through a small priority queue drained
  before every routing decision.

Correctness relies on one invariant: a control message's delivery time is
never earlier than its generating tuple's arrival time, so draining the
queue up to the current arrival timestamp observes every message that a
full event-driven simulation would have delivered.  The equivalence is
tested against :class:`repro.simulator.topology.StageTopology`.

Two engines implement these semantics:

- the **reference engine** (``chunk_size=0``) routes one tuple at a time
  through ``policy.route`` — simple, obviously correct, and slow;
- the **chunked engine** (default) processes the stream in
  control-quiet segments.  Scenario multipliers and constant latencies
  are hoisted out of the loop, every POSG-family
  policy — one scheduler or ``s`` shards, coordinated or not, observed
  or not, latency-hinted or not, under a fault plan or armed recovery
  defences or neither — routes through
  its schedulers' pre-gathered block routers
  (:meth:`~repro.core.scheduler.POSGScheduler.begin_block`) in one walk
  in global arrival order — the run shape's generated loop
  (:mod:`repro.simulator.segment_kernel`) for every control-quiet
  segment, the ROUND_ROBIN bootstrap included — and instance-side
  sketch maintenance is folded in exact-order batches between FSM
  window boundaries.  Every
  floating-point operation matches the reference engine bit for bit —
  identical completions, assignments, state transitions, control
  traffic, queue samples and observer reports — which
  ``tests/simulator/test_chunked_equivalence.py`` and
  ``tests/simulator/test_segment_router_equivalence.py`` assert.
  ``SimulationResult.engine`` says which loop a run took and why.
"""

from __future__ import annotations

import heapq
from array import array
from collections.abc import Callable
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from repro.bounds import COUNT, INDEX, NONNEGATIVE, OPTIONAL_COUNT
from repro.core.grouping import (
    FullKnowledgeGrouping,
    GroupingPolicy,
    POSGGrouping,
    RoundRobinGrouping,
)
from repro.core.multisource import MultiSourcePOSGGrouping
from repro.core.scheduler import SchedulerState
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.simulator.metrics import CompletionStats
from repro.simulator.segment_kernel import Shape, segment_kernel
from repro.telemetry.audit import AuditConfig, EstimatorAudit
from repro.telemetry.flightrecorder import FlightRecorder, FlightRecorderConfig
from repro.telemetry.lineage import LineageConfig, LineageTracer
from repro.telemetry.observers import Observers
from repro.telemetry.recorder import NULL_RECORDER
from repro.workloads.nonstationary import LoadShiftScenario
from repro.workloads.synthetic import Stream

#: oracle signature handed to policy factories: (item, instance) -> true
#: execution time at the *current* stream position
Oracle = Callable[[int, int], float]
PolicyFactory = Callable[[Oracle], GroupingPolicy]

_INFINITY = float("inf")

#: the ``route`` implementations the segment router replays inline
_SEGMENT_ROUTES = (POSGGrouping.route, MultiSourcePOSGGrouping.route)

#: what can end a segment before its ``chunk_size`` window does: a
#: delivery pending when it opened, a delivery one of its own window
#: closes emitted, a scripted crash, a recovery-defence deadline
_CUT_CAUSES = ("control", "window", "crash", "defence")


@dataclass
class SimulationResult:
    """Everything a run produced."""

    stats: CompletionStats
    policy: GroupingPolicy
    #: (tuple_index, new_state) whenever a POSG scheduler changed state
    state_transitions: list[tuple[int, SchedulerState]] = field(default_factory=list)
    control_messages: int = 0
    control_bits: int = 0
    #: optional backlog trace: (sample_index, per-instance pending work in
    #: ms at that arrival), produced when ``sample_queues_every`` is set
    queue_samples: "np.ndarray | None" = None
    queue_sample_indices: "np.ndarray | None" = None
    #: the fault injector that ran (``None`` for fault-free runs); holds
    #: the plan summary and the injected-fault counters
    faults: "FaultInjector | None" = None
    #: the estimator audit that sampled the run (``None`` when disabled);
    #: carries the streaming error quantiles and Theorem 4.3 tallies
    audit: "EstimatorAudit | None" = None
    #: the cross-shard flight recorder (``None`` when disabled); holds
    #: the per-shard causal timelines and sampled routing decisions
    flight: "FlightRecorder | None" = None
    #: the per-tuple lineage tracer (``None`` when disabled); holds the
    #: sampled span chains and the latency decomposition / SLO status
    lineage: "LineageTracer | None" = None
    #: process-pool accounting (``None`` for single-process runs):
    #: workers, start method, shards per worker, segment and speculation
    #: tallies — see ``repro.simulator.parallel``
    parallel: "dict | None" = None
    #: which loop ``simulate_stream`` ran and what it did there: ``path``
    #: ("segment", "generic" or "reference"), ``reason`` (why a chunked
    #: run is on the generic loop, else ``None``), and the segment path's
    #: tallies — ``segments``, ``truncated_segments`` (stopped short of
    #: their chunk_size window), ``cuts`` (those segments by what stopped
    #: them: ``control`` — a delivery pending when the segment opened,
    #: ``window`` — a delivery one of its own window closes emitted,
    #: ``crash`` — a scripted crash, ``defence`` — a recovery deadline),
    #: ``fallback_tuples`` (routed by the per-tuple step: SEND_ALL
    #: stretches and defence-deadline tuples), ``folds`` /
    #: ``folded_tuples`` (batched instance folds landed, tuples in them),
    #: ``serves`` / ``served_tuples`` (FIFO chains landed after routing,
    #: tuples in them),
    #: ``windows`` / ``window_tuples`` (column windows listed for the
    #: loops on any chunked path, tuples converted for them: the stream
    #: length) and, summed over the schedulers, ``estimate_gathers``
    #: (estimate column gathers), ``estimate_requests`` (k x block length over
    #: those: the item-estimates asked for) and ``estimate_evaluations``
    #: (those actually computed; the rest were estimate-table reads), and
    #: ``kernel``: the generated segment loop's ``Shape.label`` (for
    #: example ``"k=5 s=4 gossip"``) on the segment path, else ``None``.
    #: ``None`` from the multi-process engine (it reports in ``parallel``).
    engine: "dict | None" = None

    @property
    def average_completion_time(self) -> float:
        """The paper's ``L`` metric, in milliseconds."""
        return self.stats.average_completion_time

    def run_entry_index(self) -> int | None:
        """Stream position where the POSG scheduler first entered RUN."""
        for index, state in self.state_transitions:
            if state is SchedulerState.RUN:
                return index
        return None


def _as_latency(name: str, latency) -> float:
    """A network latency in milliseconds, as a ``float``: a finite real
    ``>= 0``.  The raw value is checked, so a bool, a string or an array
    raises ``TypeError`` naming ``name`` instead of converting."""
    return float(NONNEGATIVE.check(name, latency))


def _as_latency_list(latency: "float | list | tuple", k: int) -> list[float]:
    """Normalize a data-latency spec to one latency per instance.

    Accepts a single number (shared by all instances) or a list or tuple
    of ``k`` numbers (heterogeneous network paths, used by the
    latency-aware scheduling extension).
    """
    if isinstance(latency, (list, tuple)):
        if len(latency) != k:
            raise ValueError(
                f"need one data latency per instance: got {len(latency)} for k={k}"
            )
        return [
            _as_latency(f"data_latency[{instance}]", entry)
            for instance, entry in enumerate(latency)
        ]
    return [_as_latency("data_latency", latency)] * k


def _scenario_multipliers(scenario, k: int, m: int) -> np.ndarray:
    """Check the scenario contract once; returns ``multiplier_matrix(m)``.

    A scenario provides ``k``, ``multiplier(instance, index)`` (the
    reference engine's per-tuple read) and ``multiplier_matrix(m)`` (the
    same values in bulk, which the chunked engine hoists out of its
    loops), and covers the ``k`` instances of the run.  The matrix is
    only read, so it may be read-only and zero-strided (one row
    broadcast along the stream, as a single-phase schedule returns).
    """
    missing = [
        name
        for name in ("k", "multiplier", "multiplier_matrix")
        if getattr(scenario, name, None) is None
    ]
    if missing:
        raise TypeError(
            f"scenario {scenario!r} lacks {', '.join(missing)}: a scenario "
            "provides k, multiplier(instance, index) and multiplier_matrix(m)"
        )
    if scenario.k < k:
        raise ValueError(
            f"scenario covers {scenario.k} instances but k={k} requested"
        )
    multipliers = np.asarray(scenario.multiplier_matrix(m), dtype=np.float64)
    if multipliers.ndim != 2 or multipliers.shape[0] != m or multipliers.shape[1] < k:
        raise ValueError(
            f"scenario.multiplier_matrix({m}) must have shape ({m}, >= {k}), "
            f"got {multipliers.shape}"
        )
    return multipliers


def _engine_info(path: str, reason: "str | None" = None) -> dict:
    """A fresh ``SimulationResult.engine`` record for one run."""
    return {
        "path": path,
        "reason": reason,
        "segments": 0,
        "truncated_segments": 0,
        "fallback_tuples": 0,
        "estimate_gathers": 0,
        "estimate_requests": 0,
        "estimate_evaluations": 0,
        "folds": 0,
        "folded_tuples": 0,
        "serves": 0,
        "served_tuples": 0,
        "windows": 0,
        "window_tuples": 0,
        "cuts": dict.fromkeys(_CUT_CAUSES, 0),
        "kernel": None,
    }


def simulate_stream(
    stream: Stream,
    policy: GroupingPolicy | PolicyFactory,
    k: int = 5,
    scenario: LoadShiftScenario | None = None,
    data_latency: "float | list | tuple" = 0.0,
    control_latency: float = 1.0,
    rng: np.random.Generator | None = None,
    sample_queues_every: int | None = None,
    chunk_size: int = 2048,
    telemetry=None,
    faults: "FaultPlan | FaultInjector | None" = None,
    audit: "AuditConfig | EstimatorAudit | None" = None,
    flight: "FlightRecorderConfig | FlightRecorder | None" = None,
    lineage: "LineageConfig | LineageTracer | None" = None,
    profiler=None,
) -> SimulationResult:
    """Simulate one stream through one grouping policy.

    Parameters
    ----------
    stream:
        The materialized input stream (items, base times, arrivals).
    policy:
        A :class:`~repro.core.grouping.GroupingPolicy`, or a factory
        called with the simulation's oracle (for the Full Knowledge
        baseline, which needs exact execution times).
    k:
        Number of downstream operator instances; any integer type, like
        ``chunk_size``.
    scenario:
        Per-instance execution-time multipliers; uniform instances when
        omitted.  The contract is three attributes: ``k`` (instances
        covered, at least the run's ``k``), ``multiplier(instance,
        index)`` and ``multiplier_matrix(m)`` — the same values in bulk,
        shape ``(m, >= k)`` with ``[j, i] == multiplier(i, j)``
        (:class:`~repro.workloads.nonstationary.LoadShiftScenario`
        qualifies); it is only read, so a read-only, zero-strided view
        of one repeated row will do.  A missing
        attribute raises ``TypeError`` and a wrong shape or a short ``k``
        ``ValueError``, under either engine, before the policy is set up.
    data_latency, control_latency:
        Fixed network latencies of tuples and control messages, in
        milliseconds (Sec. V-A fixes them).  ``data_latency`` also accepts
        a list or tuple of ``k`` of them for heterogeneous per-instance
        network paths.  A bool, a string or an array raises
        ``TypeError``, a non-finite or negative value ``ValueError``,
        before the policy is set up.
    rng:
        Seeds the policy's internal randomness (hash functions, ...).
    sample_queues_every:
        When set, record every instance's pending work (milliseconds of
        backlog) at every N-th arrival; the trace lands in
        ``SimulationResult.queue_samples``.
    chunk_size:
        Tuples pre-gathered per control-quiet segment by the chunked
        engine.  ``0`` selects the per-tuple reference engine (slow;
        kept as the equivalence baseline).  Both engines produce
        bit-identical results.  Any integer type will do; a float, even
        a whole one, raises ``TypeError`` before the policy is set up.
    telemetry:
        Optional :class:`~repro.telemetry.recorder.TelemetryRecorder`.
        Run-level metrics (tuple counts, completion-time histogram,
        control traffic) are recorded once, *after* the loop, from the
        result arrays — identical under both engines by construction and
        free on the hot path.  To also capture scheduler/instance FSM
        events, construct the policy with the same recorder
        (``POSGGrouping(config, telemetry=recorder)``).
    faults:
        Optional :class:`~repro.faults.plan.FaultPlan` (or a pre-built
        :class:`~repro.faults.injector.FaultInjector`) injecting seeded
        control-plane and instance faults.  An inactive plan (one
        whose ``active`` is false) is equivalent to no plan: the
        fault-free code paths run untouched, preserving bit-identical
        results.  With faults active the reference engine interposes
        per tuple and the chunked engine ends its segments wherever the
        injector acts (a message emission, a scripted crash), so the
        injector draws in the same order and the run stays bit-identical
        across ``chunk_size`` settings.  The same holds for the
        ``RecoveryConfig`` defences, whose deadlines on the tuple clock
        end segments the same way.
    audit, flight, lineage:
        The run's read-only observers, each a config or a pre-built
        instance, type-checked here and attached through
        :class:`~repro.telemetry.observers.Observers` once the policy is
        set up; they land in ``SimulationResult.audit`` / ``.flight`` /
        ``.lineage``.
        :class:`~repro.telemetry.audit.AuditConfig` /
        :class:`~repro.telemetry.audit.EstimatorAudit` compares the
        scheduler's W/F estimate against the true execution time of
        every N-th routed tuple; a config needs a policy exposing a
        scheduler (POSG).
        :class:`~repro.telemetry.flightrecorder.FlightRecorderConfig` /
        :class:`~repro.telemetry.flightrecorder.FlightRecorder` captures
        causal per-shard timelines — sync requests/replies, delta folds,
        matrices broadcasts — plus every ``sample_every``-th routing
        decision with the owning shard's believed loads; needs a
        POSG-family policy.
        :class:`~repro.telemetry.lineage.LineageConfig` /
        :class:`~repro.telemetry.lineage.LineageTracer` records every
        N-th tuple's span chain — arrival, instance arrival, execution
        start/finish, the chosen instance with the believed loads, the
        instance's window-remaining count — from which it derives the
        exact partition ``scheduling_delay + queue_wait + service_time
        == completion``; works with *any* policy (non-POSG policies
        record empty believed loads).
        Observers only *read* state, at deterministic stream indices,
        so a run is bit-identical with them on or off, and what they
        record is bit-identical across all engines: both engines agree
        per tuple on ``(item, instance, execution_time)`` and clocks,
        scheduler matrices are frozen between control deliveries, a
        sampled decision's believed loads are the owning shard's
        post-add values — the floats a segment commits into ``C_hat``
        and the reference engine reads right after ``submit`` — and
        control events land at the drains between segments, where every
        scheduler's ``tuples_scheduled`` clock has been committed.
    profiler:
        Optional :class:`~repro.telemetry.profiler.PhaseProfiler`;
        engine phases (control/route/window_close/fold, plus
        hash/estimate inside the block router) are wrapped in spans
        under a root ``simulate`` span.  Purely additive timing — no
        effect on results.
    """
    # A float passes the sign checks and the loops slice with it: refuse
    # it here, before ``policy.setup`` draws from ``rng``.
    k = COUNT.check("k", k)
    chunk_size = INDEX.check("chunk_size", chunk_size)
    sample_queues_every = OPTIONAL_COUNT.check(
        "sample_queues_every", sample_queues_every
    )
    if scenario is None:
        scenario = LoadShiftScenario.constant(k)
    multipliers = _scenario_multipliers(scenario, k, stream.m)
    data_lat = _as_latency_list(data_latency, k)
    control_lat = _as_latency("control_latency", control_latency)
    recorder = telemetry if telemetry is not None else NULL_RECORDER

    if isinstance(faults, FaultInjector):
        injector = faults if faults.active else None
    elif isinstance(faults, FaultPlan):
        injector = FaultInjector(faults, k=k, telemetry=recorder) if faults.active else None
    elif faults is None:
        injector = None
    else:
        raise TypeError(f"faults must be a FaultPlan or FaultInjector, got {faults!r}")
    observers = Observers(audit, flight, lineage, recorder)

    if profiler is not None:
        profiler.start("simulate")
    try:
        if chunk_size == 0:
            result = _simulate_reference(
                stream, policy, k, scenario, data_lat, control_lat, rng,
                sample_queues_every, injector, observers, profiler,
            )
        else:
            result = _simulate_chunked(
                stream, policy, k, multipliers, data_lat, control_lat, rng,
                sample_queues_every, chunk_size, injector, observers,
                profiler,
            )
    finally:
        if profiler is not None:
            profiler.stop()
    result.faults = injector
    if recorder.enabled:
        _record_run_telemetry(recorder, result, k)
    return result


def _record_run_telemetry(recorder, result: SimulationResult, k: int) -> None:
    """Fold one finished run into the recorder.

    Runs on the completed result arrays, so per-tuple and chunked engines
    record *identical* totals regardless of how the run was executed —
    the engines only have to agree on the result, which the equivalence
    suite already guarantees.
    """
    registry = recorder.registry
    stats = result.stats
    policy_name = getattr(result.policy, "name", "unknown")
    registry.counter(
        "sim_tuples_total", help="Tuples simulated end to end"
    ).inc(stats.m)
    registry.counter(
        "sim_control_messages_total", help="Control-plane messages exchanged"
    ).inc(result.control_messages)
    registry.counter(
        "sim_control_bits_total", help="Control-plane traffic in bits"
    ).inc(result.control_bits)
    registry.gauge(
        "sim_avg_completion_ms", help="Average per-tuple completion time (L)"
    ).set(stats.average_completion_time)
    registry.gauge(
        "sim_max_completion_ms", help="Worst per-tuple completion time"
    ).set(stats.max_completion_time)
    registry.histogram(
        "sim_completion_ms", help="Per-tuple completion times"
    ).observe_many(stats.completions)
    for instance, count in enumerate(stats.instance_tuple_counts(k)):
        registry.counter(
            "sim_instance_tuples_total",
            help="Tuples routed to each instance",
            labels={"instance": instance},
        ).inc(int(count))
    recorder.tracer.emit(
        "run_complete",
        policy=policy_name,
        m=stats.m,
        k=k,
        avg_completion_ms=stats.average_completion_time,
        control_messages=result.control_messages,
        control_bits=result.control_bits,
    )


def _fire_due_crashes(
    injector: FaultInjector,
    crash_ptr: int,
    arrival: float,
    agents,
    busy_until,
) -> int:
    """Fire every scripted crash due at or before ``arrival``.

    The direct simulation has no event loop between arrivals, so the
    crash model is "pause + amnesia": the instance's tracker loses its
    in-memory state (``InstanceTracker.restart``) and the instance
    accepts no new work until the outage ends (``busy_until`` pushed to
    the restart time; tuples already routed there queue behind it, which
    is FIFO service resuming after the restart).
    """
    crashes = injector.crashes
    while crash_ptr < len(crashes) and crashes[crash_ptr].at_ms <= arrival:
        crash = crashes[crash_ptr]
        crash_ptr += 1
        agent = agents[crash.instance]
        tracker = getattr(agent, "tracker", None)
        if tracker is not None:
            tracker.restart()
        back_at = crash.at_ms + crash.outage_ms
        if busy_until[crash.instance] < back_at:
            busy_until[crash.instance] = back_at
        injector.note_crash(crash.instance, crash.at_ms)
        injector.note_restart(crash.instance, back_at)
    return crash_ptr


# ----------------------------------------------------------------------
# reference engine (per-tuple; the equivalence baseline)
# ----------------------------------------------------------------------
def _simulate_reference(
    stream: Stream,
    policy: GroupingPolicy | PolicyFactory,
    k: int,
    scenario,
    data_lat: list[float],
    control_lat: float,
    rng: np.random.Generator | None,
    sample_queues_every: int | None,
    injector: FaultInjector | None,
    observers: Observers,
    profiler=None,
) -> SimulationResult:
    # Oracle closure for Full Knowledge: reads the loop's current index.
    position = [0]

    def oracle(item: int, instance: int) -> float:
        return stream.time_of(item) * scenario.multiplier(instance, position[0])

    if not isinstance(policy, GroupingPolicy):
        policy = policy(oracle)
    policy.setup(k, rng)
    observers.bind(policy)

    agents = [policy.create_instance_agent(instance) for instance in range(k)]
    has_agents = any(agent is not None for agent in agents)
    track_states = isinstance(policy, POSGGrouping)
    previous_state = policy.state if track_states else None

    items = stream.items
    base_times = stream.base_times
    arrivals = stream.arrivals
    m = stream.m

    busy_until = [0.0] * k
    completions = np.empty(m, dtype=np.float64)
    assignments = np.empty(m, dtype=np.int64)
    control_queue: list[tuple[float, int, object]] = []
    control_seq = 0
    control_messages = 0
    control_bits = 0
    state_transitions: list[tuple[int, SchedulerState]] = []
    queue_samples: list[list[float]] = []
    queue_sample_indices: list[int] = []
    crash_ptr = 0
    faulting = injector is not None

    for j in range(m):
        arrival = arrivals[j]
        position[0] = j
        if sample_queues_every is not None and j % sample_queues_every == 0:
            queue_sample_indices.append(j)
            queue_samples.append(
                [max(0.0, busy - arrival) for busy in busy_until]
            )
        if faulting:
            crash_ptr = _fire_due_crashes(
                injector, crash_ptr, arrival, agents, busy_until
            )

        # Deliver every control message due by now (see module
        # docstring) as one atomic batch: the policy validates the
        # whole batch before folding any reply.
        if control_queue and control_queue[0][0] <= arrival:
            if profiler is not None:
                profiler.start("control")
            batch = []
            while control_queue and control_queue[0][0] <= arrival:
                batch.append(heapq.heappop(control_queue)[2])
            policy.on_control_batch(batch)
            if profiler is not None:
                profiler.stop()

        if profiler is not None:
            profiler.start("route")
        decision = policy.route(int(items[j]))
        if profiler is not None:
            profiler.stop()
        instance = decision.instance
        if not 0 <= instance < k:
            raise ValueError(
                f"policy routed tuple {j} to invalid instance {instance}"
            )

        at_instance = arrival + data_lat[instance]
        start = at_instance if at_instance > busy_until[instance] else busy_until[instance]
        execution_time = base_times[j] * scenario.multiplier(instance, j)
        sync_request = decision.sync_request
        if (
            faulting
            and sync_request is not None
            and injector.drop_request(sync_request)
        ):
            sync_request = None
        finish = start + execution_time
        busy_until[instance] = finish
        completions[j] = finish - arrival
        assignments[j] = instance
        if j == observers.next_due:
            # Before the instance agent folds the tuple, so
            # ``window_remaining`` still counts it; the chunked segment
            # replays reconstruct the same pre-value.
            tracker = getattr(agents[instance], "tracker", None)
            observers.sample_routed(
                j, int(items[j]), instance, arrival, at_instance, start,
                finish, execution_time,
                tracker.window_remaining if tracker is not None else 0,
            )

        if has_agents and agents[instance] is not None:
            if profiler is not None:
                profiler.start("fold")
            messages = agents[instance].on_executed(
                int(items[j]), execution_time, sync_request
            )
            if profiler is not None:
                profiler.stop()
            for message in messages:
                delivery = finish + control_lat
                control_messages += 1
                control_bits += message.size_bits()
                if faulting:
                    for when in injector.deliver_times(message, delivery):
                        heapq.heappush(
                            control_queue, (when, control_seq, message)
                        )
                        control_seq += 1
                else:
                    heapq.heappush(control_queue, (delivery, control_seq, message))
                    control_seq += 1
        if decision.sync_request is not None:
            control_messages += 1
            control_bits += decision.sync_request.size_bits()

        if track_states:
            current_state = policy.state
            if current_state is not previous_state:
                state_transitions.append((j, current_state))
                previous_state = current_state

    return SimulationResult(
        stats=CompletionStats(completions, assignments),
        policy=policy,
        state_transitions=state_transitions,
        control_messages=control_messages,
        control_bits=control_bits,
        queue_samples=(
            np.asarray(queue_samples) if sample_queues_every is not None else None
        ),
        queue_sample_indices=(
            np.asarray(queue_sample_indices, dtype=np.int64)
            if sample_queues_every is not None
            else None
        ),
        audit=observers.audit,
        flight=observers.flight,
        lineage=observers.lineage,
        engine=_engine_info("reference"),
    )


# ----------------------------------------------------------------------
# chunked engine (vectorized data plane)
# ----------------------------------------------------------------------
def _simulate_chunked(
    stream: Stream,
    policy: GroupingPolicy | PolicyFactory,
    k: int,
    multipliers: np.ndarray,
    data_lat: list[float],
    control_lat: float,
    rng: np.random.Generator | None,
    sample_queues_every: int | None,
    chunk_size: int,
    injector: FaultInjector | None,
    observers: Observers,
    profiler=None,
) -> SimulationResult:
    """Hoist what no routing decision can change, dispatch one loop, and
    derive completions and backlog samples from the finishes and
    assignments it left."""
    items_array = np.ascontiguousarray(stream.items, dtype=np.int64)
    arrivals_array = np.ascontiguousarray(stream.arrivals, dtype=np.float64)
    base_array = np.ascontiguousarray(stream.base_times, dtype=np.float64)

    # Per-instance execution-time columns ``base_times * multiplier``
    # (elementwise numpy, identical IEEE multiplies), which the batched
    # folds gather from and the loops read a window at a time.  A unit
    # multiplier column is the base times themselves (x * 1.0 == x
    # exactly), so uniform instances share one array; a zero-strided
    # matrix is one row repeated, and that row decides.
    distinct = multipliers[:1] if multipliers.strides[0] == 0 else multipliers
    unit = (distinct[:, :k] == 1.0).all(axis=0)
    execution_arrays = [
        base_array if unit[instance] else base_array * multipliers[:, instance]
        for instance in range(k)
    ]

    # Instance-arrival columns, one per distinct data latency (x + 0.0 ==
    # x for the non-negative arrival times, so a zero latency reads the
    # arrivals themselves).
    shifted = {0.0: arrivals_array}
    for latency in data_lat:
        if latency not in shifted:
            shifted[latency] = arrivals_array + latency
    state = _ChunkedState(
        k=k,
        chunk_size=chunk_size,
        items_array=items_array,
        arrivals_array=arrivals_array,
        execution_arrays=execution_arrays,
        at_arrays=[shifted[latency] for latency in data_lat],
        control_lat=control_lat,
    )

    # Oracle closure for Two-Choices and off-kernel Full Knowledge, the
    # only askers: reads the multipliers at the loop's index in the open
    # window.  Its tables are listed on the first call (in each window,
    # for the multiplier rows); they cost some 200 bytes per tuple.
    position = state.position
    time_table: list = []

    def oracle(item: int, instance: int) -> float:
        rows = state.multiplier_rows
        if rows is None:
            if not time_table:
                time_table.extend(stream.time_table.tolist())
            rows = state.multiplier_rows = multipliers[
                state.base:state.base + len(state.items)
            ].tolist()
        return time_table[item] * rows[position[0]][instance]

    if not isinstance(policy, GroupingPolicy):
        policy = policy(oracle)
    policy.setup(k, rng)
    observers.bind(policy)

    agents = [policy.create_instance_agent(instance) for instance in range(k)]
    has_agents = any(agent is not None for agent in agents)

    path, reason = _choose_loop(
        policy, injector, has_agents,
        observers.audit is None and profiler is None,
        lambda: policy._oracle is oracle and np.array_equal(
            stream.base_times, stream.time_table[stream.items]
        ),
    )
    state.engine = _engine_info(path, reason)
    if path != "segment":
        _run_generic(state, policy, agents, injector, observers, profiler)
    elif isinstance(policy, POSGGrouping):
        _run_posg(state, policy, agents, injector, observers, profiler)
    else:
        _run_baseline(state, policy, observers)

    finishes = state.finishes
    assignments = np.empty(state.m, dtype=np.int64)
    for instance, indices in enumerate(state.assigned):
        assignments[_entries(indices, 0, len(indices))] = instance
    queue_samples = queue_sample_indices = None
    if sample_queues_every is not None:
        queue_sample_indices, queue_samples = _backlog_samples(
            finishes, assignments, arrivals_array, sample_queues_every, k,
            injector.crashes if injector is not None else (),
        )
    return SimulationResult(
        # completions[j] = finish - arrival as one elementwise pass (the
        # same IEEE subtraction as the reference's per-tuple form)
        stats=CompletionStats(finishes - arrivals_array, assignments),
        policy=policy,
        state_transitions=state.state_transitions,
        control_messages=state.control_messages,
        control_bits=state.control_bits,
        queue_samples=queue_samples,
        queue_sample_indices=queue_sample_indices,
        audit=observers.audit,
        flight=observers.flight,
        lineage=observers.lineage,
        engine=state.engine,
    )


def _backlog_samples(
    finishes: np.ndarray,
    assignments: np.ndarray,
    arrivals: np.ndarray,
    every: int,
    k: int,
    crashes,
) -> tuple[np.ndarray, np.ndarray]:
    """The reference engine's ``sample_queues_every`` trace, post hoc.

    Returns ``(indices, samples)``: every ``every``-th arrival and each
    instance's pending work there, ``max(0, busy_until - arrival)``.
    FIFO finishes never decrease, so an instance's ``busy_until`` just
    before tuple ``s`` is the finish of its last tuple before ``s`` — or
    the restart time of a crash fired at an index ``< s`` if that is
    later (the reference samples *before* it fires the crashes due at
    ``s``, hence strict).
    """
    m = arrivals.shape[0]
    indices = np.arange(0, m, every, dtype=np.int64)
    busy = np.zeros((indices.shape[0], k), dtype=np.float64)
    for instance in range(k):
        served = np.flatnonzero(assignments == instance)
        before = np.searchsorted(served, indices)
        busy[:, instance] = np.concatenate(([0.0], finishes[served]))[before]
    for crash in crashes:
        fired_at = int(np.searchsorted(arrivals, crash.at_ms))
        if fired_at < m:
            later = indices > fired_at
            busy[later, crash.instance] = np.maximum(
                busy[later, crash.instance], crash.at_ms + crash.outage_ms
            )
    return indices, np.maximum(0.0, busy - arrivals[indices, None])


#: a busy stretch shorter than this goes to the scalar recurrence, and
#: so do the next this many tuples after one: idle gaps that dense make
#: a numpy call per stretch dearer than the Python loop
_SCALAR_RUN = 32
#: the most tuples one running sum covers before the next gap is sought
_SPAN = 1024


def _fifo_chain(
    busy: float, at: np.ndarray, times: np.ndarray, ordered: bool = False
) -> tuple[np.ndarray, float]:
    """FIFO service of one instance's tuples, in order; returns their
    finish times and the busy clock after the last.

    Tuple ``n`` arrives at ``at[n]``, starts when it is there and the
    previous tuple is done, and takes ``times[n]``: the reference
    engine's ``if a > b: b = a`` then ``b = b + x``, from ``b = busy``.
    Within a busy stretch the finishes are a running sum from the
    stretch's start, and ``np.add.accumulate`` adds strictly left to
    right, so one accumulate over ``[start + x0, x1, x2, ...]`` gives the
    recurrence's floats; the stretch ends at the first tuple that
    arrives after the previous finish (an idle gap), and the next one
    starts at that arrival.  With ``ordered`` arrivals (ascending, and
    times never negative, so the finishes ascend too) a stretch whose
    last tuple arrives by its first finish has no gap, and the compare
    is skipped.
    """
    n = at.shape[0]
    pieces = []
    b, lo, burst = busy, 0, False
    while lo < n:
        if burst or n - lo < _SCALAR_RUN:
            hi = min(n, lo + _SCALAR_RUN) if burst else n
            run = []
            for a, x in zip(at[lo:hi].tolist(), times[lo:hi].tolist()):
                if a > b:
                    b = a
                b = b + x
                run.append(b)
            pieces.append(run)
            lo, burst = hi, False
            continue
        hi = min(n, lo + _SPAN)
        first = at.item(lo)
        chain = times[lo:hi].copy()
        chain[0] = (first if first > b else b) + times.item(lo)
        np.add.accumulate(chain, out=chain)
        # chain[t] is tuple lo + t's finish if no tuple up to it arrives
        # after its predecessor's: lo + t (t >= 1) starts at chain[t - 1]
        if ordered and at.item(hi - 1) <= chain.item(0):
            gap = hi - lo
        else:
            late = at[lo + 1:hi] > chain[:-1]
            gap = int(late.argmax()) + 1
            if not late[gap - 1]:
                gap = hi - lo
        pieces.append(chain[:gap])
        b = chain.item(gap - 1)
        burst = gap < _SCALAR_RUN
        lo += gap
    if len(pieces) == 1 and type(pieces[0]) is np.ndarray:
        return pieces[0], b
    return np.concatenate(pieces) if pieces else np.empty(0), b


def _entries(indices: array, lo: int, hi: int) -> np.ndarray:
    """Entries ``[lo, hi)`` of an instance's index buffer: the stream
    indices of its ``lo``-th to ``hi - 1``-th tuples, ascending.  The
    view lives inside this one expression: a buffer that is exported
    cannot grow, and the loops append to it."""
    return np.frombuffer(indices, indices.typecode)[lo:hi].astype(np.intp)


def _choose_loop(
    policy: GroupingPolicy,
    injector: FaultInjector | None,
    has_agents: bool,
    plain_run: bool,
    own_oracle: Callable[[], bool],
) -> tuple[str, "str | None"]:
    """Pick the chunked engine's loop from what the engine can observe.

    Returns ``(path, reason)``; ``reason`` says why a run is on the
    per-tuple generic loop.  Every POSG-family policy whose ``route`` is
    the stock shard interleave takes the segment path — ``POSGGrouping``,
    its subclasses, and ``MultiSourcePOSGGrouping`` at every ``s``, with
    or without latency hints, at any data latencies, faulted or not,
    defended or not.  So do the paper baselines on a plain run:
    Round-Robin, and Full Knowledge if ``own_oracle()`` (the engine's
    oracle over ``base_times == time_table[items]``).
    """
    if isinstance(policy, POSGGrouping):
        if type(policy).route in _SEGMENT_ROUTES:
            return "segment", None
        return "generic", "policy overrides route()"
    if not has_agents and injector is None and plain_run:
        if type(policy) is RoundRobinGrouping or (
            type(policy) is FullKnowledgeGrouping and own_oracle()
        ):
            return "segment", None
    return "generic", "policy has no segment router"


class _ChunkedState:
    """Mutable bookkeeping shared by the chunked engine's policy loops.

    What lives for the whole stream stays in arrays: the numpy columns,
    the ``finishes`` the service writes and one index buffer per instance
    (``assigned[i]``: the stream indices routed to ``i``, in order), which
    the loops append to and the result's assignments are scattered from.
    Python objects exist for one
    ``chunk_size`` window at a time: :meth:`open_window` lists the
    window's items once, which the loops index by position in the
    window; the other columns are read from the arrays, a tuple at a
    time where one is sampled or served on its own, or listed by the
    loop that reads every tuple's.
    """

    __slots__ = (
        "k", "m", "chunk_size", "items_array", "arrivals_array",
        "execution_arrays", "at_arrays", "control_lat",
        "position", "busy_until", "finishes", "assigned", "control_queue",
        "control_seq", "control_messages", "control_bits",
        "state_transitions", "engine", "base", "items", "multiplier_rows",
    )

    def __init__(self, **kwargs) -> None:
        for name, value in kwargs.items():
            setattr(self, name, value)
        self.m = self.items_array.shape[0]
        #: the loop's index in the open window (the oracle's clock)
        self.position = [0]
        self.busy_until = [0.0] * self.k
        #: every tuple's finish time, written where it is served
        self.finishes = np.empty(self.m)
        #: per instance, the stream indices routed to it, in order (uint32,
        #: which numpy views in place)
        self.assigned = [array("I") for _ in range(self.k)]
        self.control_queue: list[tuple[float, int, object]] = []
        self.control_seq = 0
        self.control_messages = 0
        self.control_bits = 0
        self.state_transitions: list[tuple[int, SchedulerState]] = []
        self.base = 0
        self.items: list = []
        self.multiplier_rows = None

    def open_window(self, lo: int) -> list:
        """List the items of ``[lo, lo + chunk_size)``: entry ``q`` is
        tuple ``lo + q``'s.  Where the new window overlaps the open one
        its list is kept, so a run converts each tuple once however its
        windows fall."""
        hi = min(lo + self.chunk_size, self.m)
        fresh = max(lo, self.base + len(self.items))
        self.items = self.items[lo - self.base:] + self.items_array[fresh:hi].tolist()
        self.base, self.multiplier_rows = lo, None
        self.engine["windows"] += 1
        self.engine["window_tuples"] += hi - fresh
        return self.items

    def windows(self):
        """Open the stream's windows in turn, for a loop that reads every
        tuple's arrival: ``(lo, items, arrivals)``."""
        for lo in range(0, self.m, self.chunk_size):
            items = self.open_window(lo)
            yield lo, items, self.arrivals_array[lo:lo + len(items)].tolist()


class _Service:
    """FIFO service, landed after routing, per instance.

    A routing decision reads the scheduler's beliefs, never a queue, so
    with FIFO instances that do not preempt every finish time is a
    function of the assignment sequence: the segment loops only route,
    and ``served[i]`` counts the entries of ``i``'s index buffer already
    served.  The rest is landed where a finish or busy clock is read — a
    window close, a sample the lineage tracer reads, a per-tuple step, a
    crash, the end of the run.
    """

    __slots__ = ("state", "served", "profiler", "ordered")

    def __init__(self, state: _ChunkedState, profiler=None) -> None:
        self.state = state
        self.served = [0] * state.k
        self.profiler = profiler
        # A fixed latency keeps each instance's arrivals in stream order,
        # which lets ``_fifo_chain`` skip most gap searches.
        arrivals = state.arrivals_array
        distinct = {id(times): times for times in state.execution_arrays}
        self.ordered = bool((arrivals[1:] >= arrivals[:-1]).all()) and all(
            bool((times >= 0.0).all()) for times in distinct.values()
        )

    def land(self, instance: int, owned: np.ndarray, times: np.ndarray) -> None:
        """Serve the stream indices ``owned`` — ascending, all routed to
        ``instance``, none served yet — whose execution times are ``times``."""
        state = self.state
        if self.profiler is not None:
            self.profiler.start("serve")
        state.finishes[owned], state.busy_until[instance] = _fifo_chain(
            state.busy_until[instance], state.at_arrays[instance][owned], times,
            self.ordered,
        )
        state.engine["serves"] += 1
        state.engine["served_tuples"] += owned.size
        if self.profiler is not None:
            self.profiler.stop()

    def serve(self, instance: int, hi: int) -> None:
        """Serve entries ``[served, hi)`` of ``instance``'s index buffer."""
        lo = self.served[instance]
        if lo >= hi:
            return
        self.served[instance] = hi
        owned = _entries(self.state.assigned[instance], lo, hi)
        self.land(instance, owned, self.state.execution_arrays[instance][owned])

    def serve_all(self) -> None:
        """Serve every tuple routed so far."""
        for instance, indices in enumerate(self.state.assigned):
            self.serve(instance, len(indices))

    def clocks(self, instance: int, j: int, execution_time: float) -> tuple:
        """Serve ``instance`` through tuple ``j``, the latest routed to it,
        and return ``j``'s ``(at_instance, start, finish)``."""
        state = self.state
        last = len(state.assigned[instance]) - 1
        self.serve(instance, last)
        busy = state.busy_until
        at_instance = state.at_arrays[instance].item(j)
        b = busy[instance]
        start = at_instance if at_instance > b else b
        finish = start + execution_time
        state.finishes[j] = busy[instance] = finish
        self.served[instance] = last + 1
        return at_instance, start, finish


def _probe(
    state: _ChunkedState, observers: Observers, service: _Service, believed: bool
):
    """The kernel's ``probe(shard, j, instance, loads, left)``: feed the
    observers due at stream index ``j`` and return the next due index,
    serving tuple ``j`` first when one of them reads its clocks.  Without
    ``believed`` loads (the baselines) it records what ``sample_routed``
    records for a policy without a scheduler."""
    sample = observers.sample
    reads_clocks = observers.reads_clocks

    def probe(shard, j, instance, loads, left):
        execution_time = state.execution_arrays[instance].item(j)
        if reads_clocks(j):
            at_instance, start, finish = service.clocks(instance, j, execution_time)
        else:
            at_instance = start = finish = None
        if not believed:
            loads, left = (), 0
        return sample(
            shard, j, state.items[j - state.base], instance, loads,
            state.arrivals_array.item(j),
            at_instance, start, finish, execution_time, left,
        )

    return probe


def _run_baseline(
    state: _ChunkedState, policy: GroupingPolicy, observers: Observers
) -> None:
    """Round-Robin and Full Knowledge on the s = 1 segment kernel, one
    call per window: with no agents no window closes (``window_left``
    starts past ``m``) and no delivery cuts a segment.  Round-Robin's
    counter keeps every tuple in the round-robin arm; Full Knowledge is
    the greedy arm over its exact loads, estimating with the window's
    execution columns, its own oracle's floats (:func:`_choose_loop`
    checked), listed once per distinct column.  Service lands at lineage
    samples and once at the end."""
    m, k = state.m, state.k
    shape = Shape(k, 1, False, False)
    kernel = segment_kernel(shape)
    state.engine["kernel"] = shape.label
    round_robin = type(policy) is RoundRobinGrouping
    block = SimpleNamespace(
        _c=[0.0] * k if round_robin else policy._loads.tolist(),
        _rr=policy._counter if round_robin else None,
    )
    service = _Service(state)
    probe = _probe(state, observers, service, believed=False)
    appends = [indices.append for indices in state.assigned]

    distinct = {id(times): times for times in state.execution_arrays}
    window_left, next_probe = [m + 1] * k, min(observers.next_due, m)
    for base in range(0, m, state.chunk_size):
        items = state.open_window(base)
        hi = base + len(items)
        if not round_robin:
            listed = {key: times[base:hi].tolist() for key, times in distinct.items()}
            block._estimates = [listed[id(times)] for times in state.execution_arrays]
        _, due, _ = kernel(
            [block], 0, len(items), next_probe - base, _INFINITY, base,
            window_left, m + 1, None, probe, appends, None,
        )
        next_probe = base + due
        state.engine["segments"] += 1
    service.serve_all()
    if round_robin:
        policy._counter = block._rr
    else:
        policy._loads[:] = block._c


def _send_control(
    state: _ChunkedState, injector: "FaultInjector | None", messages, finish: float
) -> None:
    """Bill an instance's outgoing messages and queue their deliveries.

    Each message leaves at ``finish`` plus the control latency; an
    injector turns that into zero, one or two delivery times.  Messages
    go out in emission order, so the injector's random stream advances
    exactly as in the reference engine.
    """
    control_queue = state.control_queue
    for message in messages:
        delivery = finish + state.control_lat
        state.control_messages += 1
        state.control_bits += message.size_bits()
        times = (
            (delivery,)
            if injector is None
            else injector.deliver_times(message, delivery)
        )
        for when in times:
            heapq.heappush(control_queue, (when, state.control_seq, message))
            state.control_seq += 1


def _drain_control(
    state: _ChunkedState, policy: GroupingPolicy, arrival: float, profiler
) -> None:
    """Deliver, in one ``on_control_batch``, every queued control message
    due by ``arrival``.  Callers test the queue's head first, so a tuple
    with nothing due pays no call."""
    control_queue = state.control_queue
    if profiler is not None:
        profiler.start("control")
    batch = []
    while control_queue and control_queue[0][0] <= arrival:
        batch.append(heapq.heappop(control_queue)[2])
    policy.on_control_batch(batch)
    if profiler is not None:
        profiler.stop()


def _tuple_stepper(
    state: _ChunkedState,
    policy: GroupingPolicy,
    agents,
    injector: "FaultInjector | None",
    observers: Observers,
    profiler=None,
):
    """The chunked engine's one per-tuple step, as ``step(j, arrival)``.

    It is the reference engine's loop body from ``policy.route`` to the
    sync-request billing: route, FIFO service, the injector's request
    drop, observer samples, the instance agent's fold and its outgoing
    messages.  The caller keeps what comes before (due crashes, the
    control drain) and after (FSM transitions), and has tuple ``j`` in
    the open window.  ``_run_generic`` runs every tuple through it; the segment
    router only the tuples it cannot batch, once it has served every
    instance up to ``j``.  The step serves tuple ``j`` itself: its finish
    is written to ``state.finishes`` and the chosen instance returned.
    """
    busy = state.busy_until
    finishes = state.finishes
    assigned = state.assigned
    at_arrays = state.at_arrays
    k = state.k

    def step(j: int, arrival: float) -> int:
        q = j - state.base
        item = state.items[q]
        if profiler is not None:
            profiler.start("route")
        decision = policy.route(item)
        if profiler is not None:
            profiler.stop()
        instance = decision.instance
        if not 0 <= instance < k:
            raise ValueError(
                f"policy routed tuple {j} to invalid instance {instance}"
            )
        at_instance = at_arrays[instance].item(j)
        b = busy[instance]
        start = at_instance if at_instance > b else b
        execution_time = state.execution_arrays[instance].item(j)
        sync_request = decision.sync_request
        if sync_request is not None:
            state.control_messages += 1
            state.control_bits += sync_request.size_bits()
            if injector is not None and injector.drop_request(sync_request):
                sync_request = None
        finish = start + execution_time
        busy[instance] = finish
        finishes[j] = finish
        assigned[instance].append(j)
        agent = agents[instance]
        if j == observers.next_due:
            # Before the agent folds the tuple, so ``window_remaining``
            # still counts it.
            tracker = getattr(agent, "tracker", None)
            observers.sample_routed(
                j, item, instance, arrival, at_instance, start, finish,
                execution_time,
                tracker.window_remaining if tracker is not None else 0,
            )
        if agent is not None:
            if profiler is not None:
                profiler.start("fold")
            messages = agent.on_executed(item, execution_time, sync_request)
            if profiler is not None:
                profiler.stop()
            if messages:
                _send_control(state, injector, messages, finish)
        return instance

    return step


def _run_generic(
    state: _ChunkedState,
    policy: GroupingPolicy,
    agents,
    injector: FaultInjector | None,
    observers: Observers,
    profiler=None,
) -> None:
    """Hoisted per-tuple loop for arbitrary policies.

    A POSG-family run lands here only when its policy overrides
    ``route()`` (see :func:`_choose_loop`).  It replays the reference
    engine's per-tuple order exactly, so the injector draws at the same
    points under both engines.
    """
    busy = state.busy_until
    control_queue = state.control_queue
    position = state.position
    track_states = isinstance(policy, POSGGrouping)
    previous_state = policy.state if track_states else None
    crash_ptr = 0
    faulting = injector is not None
    step = _tuple_stepper(state, policy, agents, injector, observers, profiler)
    for base, _, arrivals in state.windows():
        for q, arrival in enumerate(arrivals):
            position[0] = q
            if faulting:
                crash_ptr = _fire_due_crashes(
                    injector, crash_ptr, arrival, agents, busy
                )
            if control_queue and control_queue[0][0] <= arrival:
                _drain_control(state, policy, arrival, profiler)
            step(base + q, arrival)
            if track_states:
                current_state = policy.state
                if current_state is not previous_state:
                    state.state_transitions.append((base + q, current_state))
                    previous_state = current_state


def _run_posg(
    state: _ChunkedState,
    policy: POSGGrouping,
    agents,
    injector: FaultInjector | None,
    observers: Observers,
    profiler=None,
) -> None:
    """POSG-family data plane: control-quiet segments + per-tuple SEND_ALL.

    Between control-message deliveries every scheduler's matrices are
    frozen, so each of the policy's ``s >= 1`` schedulers pre-gathers
    estimate columns for its strided slice of the current ``chunk_size``
    window (:meth:`POSGScheduler.begin_block`) and the segment runs as
    one tight scalar loop in global arrival order, tuple ``j`` owned by
    shard ``j mod s`` — the run shape's generated kernel
    (:mod:`repro.simulator.segment_kernel`), which every control-quiet
    segment runs, whatever ``s``: the greedy pick is an unrolled
    first-minimum scan over plain floats (the kernel's round-robin arm
    for a shard still bootstrapping; over load + latency debt + hint
    under ``latency_hints``), cross-shard gossip is replayed in place,
    positions count from the window's first tuple, whose items are
    listed once (:meth:`_ChunkedState.open_window`), and both halves of
    an instance's per-tuple work — its
    sketch fold (``InstanceTracker.execute_batch``) and its FIFO service
    (:class:`_Service`) — land lazily, read back from the instances'
    index buffers, so the loops keep no per-instance batch and the
    numbers stay in arrays.  Routing and merge share the
    pass, so nothing is speculative: every block commits exactly the
    positions it consumed.  The per-tuple control check disappears:
    arrivals are sorted, so the segment bound is a ``searchsorted`` on
    the earliest pending delivery, re-tightened whenever a window boundary
    emits new messages; the blocks then ``resume`` over the rest of the
    window with their estimate columns intact.  While any shard is in
    SEND_ALL (tuples carry sync requests) the engine falls back to the
    reference per-tuple step, preserving delivery order and FSM
    semantics exactly.

    Faults and recovery defences are more horizons of the same kind,
    because none of them acts between two events the engine already
    sees.  A scripted crash is a function of arrival time: its index is
    a ``searchsorted``, the segment stops there, and the crash fires at
    the top of the loop once the pending folds and service have landed.
    The injector draws only when a
    message is emitted — at a window close or in the per-tuple step —
    so its random stream advances in tuple order as in the reference
    engine.  A defence acts when a scheduler's tuple clock reaches
    ``defense_deadline()``, which moves only on a delivery or in the
    per-tuple step: the segment stops at the tuple that reaches it, and
    that tuple takes the per-tuple step, whose real ``submit`` ticks.
    With no injector and no ``RecoveryConfig`` both horizons sit at
    ``m`` and never end a segment.
    """
    m = state.m
    items_array = state.items_array
    arrivals_array = state.arrivals_array
    busy = state.busy_until
    finishes = state.finishes
    execution_arrays = state.execution_arrays
    control_queue = state.control_queue
    engine = state.engine
    schedulers = policy.schedulers
    sources = len(schedulers)
    trackers = [agent.tracker for agent in agents]
    window_size = policy.config.window_size
    previous_state = policy.state
    k = state.k
    gossip = sources > 1 and policy._gossip_on
    hints = schedulers[0]._latency_hints
    if hints is not None:
        hints = hints.tolist()
    send_all = SchedulerState.SEND_ALL
    round_robin = SchedulerState.ROUND_ROBIN
    cuts = engine["cuts"]
    # Shards that store the same broadcast pairs (``merge_matrices`` off)
    # share one estimate table, filled once per window for all of them.
    tables = list({id(shard._table): shard._table for shard in schedulers}.values())
    shared_table = tables[0] if sources > 1 and len(tables) == 1 else None

    # Fault and defence horizons, as stream indices; ``m`` means never.
    crashes = injector.crashes if injector is not None else ()
    crash_ptr = 0
    next_crash = int(arrivals_array.searchsorted(crashes[0].at_ms)) if crashes else m
    armed = policy.config.recovery is not None
    deadline_at = m

    shape = Shape(k, sources, gossip, hints is not None)
    kernel = segment_kernel(shape)
    engine["kernel"] = shape.label
    service = _Service(state, profiler)
    appends = [indices.append for indices in state.assigned]

    # The observers' sentinel is ``m`` when nothing is attached, so the
    # per-tuple compare stays between small ints.  Samples are taken at
    # their grid indices from segment locals: the believed loads are the
    # owning shard's post-add ``c`` values — the exact floats ``commit``
    # folds back into ``C_hat``, so the reference engine's post-submit
    # ``C_hat`` reads match bit for bit.
    probe = _probe(state, observers, service, believed=True)
    next_probe = min(observers.next_due, m)

    # Instance-side folds are lazy and persist across segments: the
    # tuples instance ``i`` executed land in its tracker right before
    # anything inspects it (a window boundary, a crash, a per-tuple step,
    # the end of the run).  What it is still owed is every entry of its
    # index buffer from ``folded[i]`` on; a tuple folded on its own (a
    # boundary tuple, a per-tuple step) is handed over with the entries
    # before it, so each tuple is folded exactly once.  Service hands
    # over the same way at ``served[i]``, which a lineage sample may move
    # ahead of ``folded[i]``, never behind.
    assigned = state.assigned
    folded = [0] * k
    served = service.served
    window_left = [tracker.window_remaining for tracker in trackers]

    def _land(instance: int, closing: bool = False) -> None:
        """Fold and serve every tuple routed to ``instance`` that is still
        owed — one index and one execution-time gather for both — except
        the fold of a ``closing`` tuple, the latest, which closes the
        instance's window and is folded on its own."""
        lo, hi = folded[instance], len(assigned[instance])
        if lo >= hi:
            return
        folded[instance] = hi
        owned = _entries(assigned[instance], lo, hi)
        times = execution_arrays[instance][owned]
        batch = hi - lo - 1 if closing else hi - lo
        if batch > 0:
            if profiler is not None:
                profiler.start("fold")
            trackers[instance].execute_batch(items_array[owned[:batch]], times[:batch])
            engine["folds"] += 1
            engine["folded_tuples"] += batch
            if profiler is not None:
                profiler.stop()
        fresh = served[instance] - lo
        if fresh < hi - lo:
            service.land(instance, owned[fresh:], times[fresh:])
            served[instance] = hi

    def _window_boundary(
        instance: int, lo: int, next_due: float, end: int
    ) -> tuple[float, int]:
        """Land what ``instance`` is owed up to the boundary tuple
        ``lo - 1``, run that one through the FSM (Figure 2), enqueue its
        messages at its finish, and re-tighten the segment bound if a
        delivery now lands before the previous horizon.  ``lo`` and
        ``end`` count from the open window's first tuple."""
        nonlocal cut
        if profiler is not None:
            profiler.start("window_close")
        _land(instance, closing=True)
        j = state.base + lo - 1
        messages = trackers[instance].execute(
            state.items[lo - 1], execution_arrays[instance].item(j), None
        )
        if messages:
            _send_control(state, injector, messages, finishes.item(j))
        if control_queue and control_queue[0][0] < next_due:
            next_due = control_queue[0][0]
            later = arrivals_array[state.base + lo:state.base + end]
            tightened = lo + int(later.searchsorted(next_due))
            if tightened < end:
                end = tightened
                cut = "window"
        if profiler is not None:
            profiler.stop()
        return next_due, end

    # These helpers close over names the segment loops do not read per
    # tuple, so the loops' locals stay plain locals.
    def _flush_pending() -> None:
        """Land every pending fold and service, before anything reads a
        tracker or a busy clock."""
        for instance in range(k):
            _land(instance)

    def _fill_window(lo: int, hi: int) -> None:
        """Fill the shared table once for every greedy shard's block of
        window ``[lo, hi)``, against the first one's pairs (each reader
        checks the rows' owners).  A version move sends a greedy shard to
        SEND_ALL, which ends the window: once per window is enough."""
        shared_table.prefilled = False
        greedy = [
            shard
            for shard, scheduler in enumerate(schedulers)
            if scheduler._state is not round_robin
        ]
        if len(greedy) < 2 or (pairs := schedulers[greedy[0]]._row_pairs()) is None:
            return
        window = np.concatenate(
            [items_array[lo + (shard - lo) % sources:hi:sources] for shard in greedy]
        )
        shared_table.prefilled = shared_table.gather(window, pairs, profiler)

    def _next_deadline(j: int) -> int:
        """Index of the first tuple from ``j`` on whose ``submit`` makes a
        defence act: shard ``j' mod s`` ticks once per tuple it owns."""
        nearest = state.m
        stride = len(schedulers)
        for shard, scheduler in enumerate(schedulers):
            deadline = scheduler.defense_deadline()
            if deadline is not None:
                index = (
                    j + (shard - j) % stride
                    + (deadline - scheduler._tuples_scheduled - 1) * stride
                )
                if index < nearest:
                    nearest = index
        return nearest

    step = _tuple_stepper(state, policy, agents, injector, observers, profiler)
    blocks: list = []
    base = window_end = 0
    cut = None
    j = 0
    while j < m:
        arrival = arrivals_array.item(j)
        if j == next_crash:
            # A restart keeps the tracker's lifetime counters, so the
            # batched folds land first.
            _flush_pending()
            crash_ptr = _fire_due_crashes(
                injector, crash_ptr, arrival, agents, busy
            )
            window_left[:] = [tracker.window_remaining for tracker in trackers]
            next_crash = (
                int(arrivals_array.searchsorted(crashes[crash_ptr].at_ms))
                if crash_ptr < len(crashes)
                else m
            )
        if control_queue and control_queue[0][0] <= arrival:
            _drain_control(state, policy, arrival, profiler)

        quiet = not any(scheduler._state is send_all for scheduler in schedulers)
        if quiet and armed:
            deadline_at = _next_deadline(j)
            quiet = deadline_at > j
        if quiet:
            # Control-quiet fast segment.  After the drain every pending
            # delivery is strictly later than this arrival, the next
            # crash is due later and no defence acts on this tuple, so
            # the segment covers at least one tuple.
            if j >= window_end:
                # A new chunk_size window: its columns are listed once
                # and shared by every shard's walk, and shard sigma owns
                # the strided slice starting at its first index at or
                # after j.
                base = j
                window_end = j + len(state.open_window(j))
                if shared_table is not None:
                    _fill_window(base, window_end)
                blocks = [
                    scheduler.begin_block(
                        items_array[j + (shard - j) % sources:window_end:sources],
                        profiler=profiler,
                    )
                    for shard, scheduler in enumerate(schedulers)
                ]
            else:
                # Same window, cut short by a delivery: the estimate
                # columns are reused unless the matrices version moved.
                for block in blocks:
                    block.resume(profiler)
            if control_queue:
                next_due = control_queue[0][0]
                later = arrivals_array[j + 1:window_end]
                end = j + 1 + int(later.searchsorted(next_due))
            else:
                next_due = _INFINITY
                end = window_end
            cut = "control" if end < window_end else None
            if next_crash < end:
                end = next_crash
                cut = "crash"
            if deadline_at < end:
                end = deadline_at
                cut = "defence"
            engine["segments"] += 1
            # Drain-induced transition: the reference engine records it at
            # the index of the next routed tuple, which the segment routes.
            current_state = policy.state
            if current_state is not previous_state:
                state.state_transitions.append((j, current_state))
                previous_state = current_state
            if profiler is not None:
                profiler.start("route")
            # The kernel counts from the window's first tuple: ``q`` is
            # tuple ``base + q``, and at s = 1 the block's own cursor.
            q, due, gossiped = kernel(
                blocks, j - base, end - base, next_probe - base, next_due,
                base, window_left, window_size, _window_boundary, probe,
                appends, hints,
            )
            j = base + q
            next_probe = base + due
            # Routing and merge shared the pass, so every block commits
            # exactly the positions it consumed; gossip billing never
            # feeds back into routing and is replayed per shard here.
            for block in blocks:
                block.commit()
            if gossip:
                for shard, count in enumerate(gossiped):
                    policy.commit_gossip(shard, count)
            if sources > 1:
                policy.sync_cursor(j)
            if j < window_end:
                engine["truncated_segments"] += 1
                cuts[cut] += 1
            if profiler is not None:
                profiler.stop()
            continue

        # A shard is in SEND_ALL (sync requests piggy-back on tuples) or
        # at a defence deadline: the per-tuple step, over live trackers.
        # It consumes shard positions behind the blocks' backs, so the
        # next segment opens a new window.
        window_end = 0
        engine["fallback_tuples"] += 1
        _flush_pending()
        if j >= state.base + len(state.items):
            state.open_window(j)
        instance = step(j, arrival)
        # the step folded and served tuple j itself
        folded[instance] = served[instance] = len(assigned[instance])
        window_left[instance] = trackers[instance].window_remaining
        if j == next_probe:
            next_probe = observers.next_due

        current_state = policy.state
        if current_state is not previous_state:
            state.state_transitions.append((j, current_state))
            previous_state = current_state
        j += 1

    # Fold the tail batches so the trackers' state (C_op, counters) ends
    # exactly where the per-tuple engine would leave it.
    _flush_pending()
    for count in ("gathers", "requests", "evaluations"):
        engine["estimate_" + count] = sum(getattr(table, count) for table in tables)
