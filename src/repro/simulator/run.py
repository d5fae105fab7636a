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
  control-quiet segments.  Scenario multipliers, slow-node windows and
  constant latencies are hoisted out of the loop, every POSG-family
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

import bisect
import heapq
from array import array
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.bounds import COUNT, INDEX, OPTIONAL_COUNT
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
from repro.simulator.network import ConstantLatency, LatencyModel
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
    #: parallel-engine accounting (``None`` for single-process runs):
    #: workers, start method, shard/worker tuple counts, segment and
    #: speculation tallies — see ``repro.simulator.parallel``
    parallel: "dict | None" = None
    #: which loop ``simulate_stream`` ran and what it did there: ``path``
    #: ("segment", "generic", "round_robin", "full_knowledge" or
    #: "reference"), ``reason`` (why a chunked run is on the generic
    #: loop, else ``None``), and the segment path's
    #: tallies — ``segments``, ``truncated_segments`` (stopped short of
    #: their chunk_size window), ``cuts`` (those segments by what stopped
    #: them: ``control`` — a delivery pending when the segment opened,
    #: ``window`` — a delivery one of its own window closes emitted,
    #: ``crash`` — a scripted crash, ``defence`` — a recovery deadline),
    #: ``fallback_tuples`` (routed by the per-tuple step: SEND_ALL
    #: stretches and defence-deadline tuples), ``folds`` /
    #: ``folded_tuples`` (batched instance folds landed, tuples in them),
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


def _as_latency(latency: LatencyModel | float) -> LatencyModel:
    if isinstance(latency, LatencyModel):
        return latency
    return ConstantLatency(float(latency))


def _as_latency_list(
    latency: "LatencyModel | float | list", k: int
) -> list[LatencyModel]:
    """Normalize a data-latency spec to one model per instance.

    Accepts a single model/number (shared by all instances) or a list of
    ``k`` models/numbers (heterogeneous network paths, used by the
    latency-aware scheduling extension).
    """
    if isinstance(latency, (list, tuple)):
        if len(latency) != k:
            raise ValueError(
                f"need one data latency per instance: got {len(latency)} for k={k}"
            )
        return [_as_latency(entry) for entry in latency]
    shared = _as_latency(latency)
    return [shared] * k


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
    data_latency: "LatencyModel | float | list" = 0.0,
    control_latency: LatencyModel | float = 1.0,
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
        (:class:`~repro.workloads.nonstationary.LoadShiftScenario` and
        ``DriftScenario`` both qualify); it is only read, so a read-only,
        zero-strided view of one repeated row will do.  A missing
        attribute raises ``TypeError`` and a wrong shape or a short ``k``
        ``ValueError``, under either engine, before the policy is set up.
    data_latency, control_latency:
        Network models for tuples and control messages, in milliseconds.
        ``data_latency`` additionally accepts a length-``k`` list for
        heterogeneous per-instance network paths.  Non-finite or
        negative values are rejected when the model is built.
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
        control-plane and instance faults.  A plan that cannot fault the
        simulated topology — empty, or scripting only the parallel
        engine's ``worker_faults`` — is equivalent to no plan: the
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
    control_lat = _as_latency(control_latency)
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

    # Process-level worker faults mean nothing to the sequential engines:
    # a plan scripting only those runs as if there were no plan.
    interposed = (
        injector if injector is not None and injector.plan.control_active else None
    )

    if profiler is not None:
        profiler.start("simulate")
    try:
        if chunk_size == 0:
            result = _simulate_reference(
                stream, policy, k, scenario, data_lat, control_lat, rng,
                sample_queues_every, interposed, observers, profiler,
            )
        else:
            result = _simulate_chunked(
                stream, policy, k, multipliers, data_lat, control_lat, rng,
                sample_queues_every, chunk_size, interposed, observers,
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
    data_lat: list[LatencyModel],
    control_lat: LatencyModel,
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

        at_instance = arrival + data_lat[instance].sample()
        start = at_instance if at_instance > busy_until[instance] else busy_until[instance]
        execution_time = base_times[j] * scenario.multiplier(instance, j)
        sync_request = decision.sync_request
        if faulting:
            factor = injector.execution_factor(instance, arrival)
            if factor != 1.0:
                execution_time = execution_time * factor
            if sync_request is not None and injector.drop_request(sync_request):
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
                delivery = finish + control_lat.sample()
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
    data_lat: list[LatencyModel],
    control_lat: LatencyModel,
    rng: np.random.Generator | None,
    sample_queues_every: int | None,
    chunk_size: int,
    injector: FaultInjector | None,
    observers: Observers,
    profiler=None,
) -> SimulationResult:
    """Hoist what no routing decision can change, dispatch one loop, and
    derive completions, backlog samples and slow-node billing from what
    the loop appended.  The loops themselves only route and FIFO-fold."""
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
    # Slow-node windows are a function of arrival time alone: the same
    # multiply ``execution_factor`` applies per tuple, once per region;
    # untouched columns stay shared.
    slowed = injector.slowdown_regions(arrivals_array) if injector is not None else ()
    for instance in {region[0] for region in slowed}:
        execution_arrays[instance] = execution_arrays[instance].copy()
    for instance, lo, hi, factor in slowed:
        execution_arrays[instance][lo:hi] *= factor

    state = _ChunkedState(
        k=k,
        chunk_size=chunk_size,
        items_array=items_array,
        arrivals_array=arrivals_array,
        execution_arrays=execution_arrays,
        data_lat=data_lat,
        control_lat=control_lat,
    )

    # Oracle closure for Full Knowledge: reads the multipliers at the
    # loop's index in the open window.  Its tables are listed on the
    # first call (in each window, for the multiplier rows): only Full
    # Knowledge asks, and they cost some 200 bytes of objects per tuple.
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
    )
    state.engine = _engine_info(path, reason)
    if path == "segment":
        _run_posg(state, policy, agents, injector, observers, profiler)
    elif path == "round_robin":
        _run_round_robin(state, policy, observers)
    elif path == "full_knowledge":
        _run_full_knowledge(state, policy, observers)
    else:
        _run_generic(state, policy, agents, injector, observers, profiler)

    finishes = np.frombuffer(state.finishes, dtype=np.float64)
    assignments = np.asarray(state.assignments, dtype=np.int64)
    slowed_tuples = sum(
        int(np.count_nonzero(assignments[lo:hi] == instance))
        for instance, lo, hi, _ in slowed
    )
    if slowed_tuples:
        injector.note_slowed_tuples(slowed_tuples)
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


def _choose_loop(
    policy: GroupingPolicy,
    injector: FaultInjector | None,
    has_agents: bool,
    plain_run: bool,
) -> tuple[str, "str | None"]:
    """Pick the chunked engine's loop from what the engine can observe.

    Returns ``(path, reason)``; ``reason`` says why a run is on the
    per-tuple generic loop.  Every POSG-family policy whose ``route`` is
    the stock shard interleave takes the segment path — ``POSGGrouping``,
    its subclasses, and ``MultiSourcePOSGGrouping`` at every ``s``, with
    or without latency hints, under any data-latency model, faulted or
    not, defended or not.
    """
    if isinstance(policy, POSGGrouping):
        if type(policy).route in _SEGMENT_ROUTES:
            return "segment", None
        return "generic", "policy overrides route()"
    if not has_agents and injector is None and plain_run:
        if type(policy) is RoundRobinGrouping:
            return "round_robin", None
        if type(policy) is FullKnowledgeGrouping:
            return "full_knowledge", None
    return "generic", "policy has no segment router"


class _ChunkedState:
    """Mutable bookkeeping shared by the chunked engine's policy loops.

    What lives for the whole stream stays in arrays: the numpy columns
    and the two result buffers the loops append to.  Python objects
    exist for one ``chunk_size`` window at a time: :meth:`open_window`
    lists each distinct column's slice once, and the loops index those
    lists by position in the window.
    """

    __slots__ = (
        "k", "m", "chunk_size", "items_array", "arrivals_array",
        "execution_arrays", "at_arrays", "data_lat", "control_lat",
        "position", "busy_until", "finishes", "assignments", "control_queue",
        "control_seq", "control_messages", "control_bits",
        "state_transitions", "engine", "base", "items", "arrivals",
        "at_columns", "execution_columns", "multiplier_rows", "_listed",
    )

    def __init__(self, **kwargs) -> None:
        for name, value in kwargs.items():
            setattr(self, name, value)
        self.m = self.items_array.shape[0]
        #: the loop's index in the open window (the oracle's clock)
        self.position = [0]
        self.busy_until = [0.0] * self.k
        self.finishes = array("d")  # numpy views both buffers in place
        self.assignments = array("I")  # uint32 whatever k
        self.control_queue: list[tuple[float, int, object]] = []
        self.control_seq = 0
        self.control_messages = 0
        self.control_bits = 0
        self.state_transitions: list[tuple[int, SchedulerState]] = []
        # Constant data latencies are hoisted to instance-arrival columns,
        # one per distinct latency (``sample`` is side-effect free there;
        # x + 0.0 == x for the non-negative arrival times, so a zero
        # latency reads the arrivals themselves).  With any random model
        # every instance arrival is drawn inline, right after the pick,
        # where the reference engine's seeded draws fall.
        self.at_arrays = None
        if all(isinstance(model, ConstantLatency) for model in self.data_lat):
            shifted = {0.0: self.arrivals_array}
            for model in self.data_lat:
                if model.value not in shifted:
                    shifted[model.value] = self.arrivals_array + model.value
            self.at_arrays = [shifted[model.value] for model in self.data_lat]
        self.base = 0
        self.items = self.arrivals = []
        self.at_columns = self.execution_columns = self.multiplier_rows = None
        self._listed: dict[int, list] = {}

    def open_window(self, lo: int):
        """List the columns for ``[lo, lo + chunk_size)``.

        Returns ``(items, arrivals, at_columns, execution_columns)``, the
        last two per instance (``at_columns`` is ``None`` under a random
        data-latency model); entry ``q`` of each is tuple ``lo + q``'s.
        Where the new window overlaps the open one its lists are kept,
        so a run converts each tuple once however its windows fall.
        """
        hi = min(lo + self.chunk_size, self.m)
        fresh = max(lo, self.base + len(self.items))
        skip = lo - self.base
        kept, listed = self._listed, {}

        def column(array: np.ndarray) -> list:
            key = id(array)
            if key not in listed:
                listed[key] = kept.get(key, [])[skip:] + array[fresh:hi].tolist()
            return listed[key]

        self.items = column(self.items_array)
        self.arrivals = column(self.arrivals_array)
        if self.at_arrays is not None:
            self.at_columns = [column(array) for array in self.at_arrays]
        self.execution_columns = [column(array) for array in self.execution_arrays]
        self.base, self._listed, self.multiplier_rows = lo, listed, None
        self.engine["windows"] += 1
        self.engine["window_tuples"] += hi - fresh
        return self.items, self.arrivals, self.at_columns, self.execution_columns

    def windows(self):
        """Open the stream's windows in turn: ``(lo, *open_window(lo))``."""
        for lo in range(0, self.m, self.chunk_size):
            yield (lo, *self.open_window(lo))


def _run_round_robin(
    state: _ChunkedState, policy: RoundRobinGrouping, observers: Observers
) -> None:
    """Whole-stream inline loop for ASSG (no agents, no control plane)."""
    busy = state.busy_until
    fin_append = state.finishes.append
    asg_append = state.assignments.append
    data_lat = state.data_lat
    k = state.k
    counter = policy._counter
    # a small-int sentinel when nothing is attached
    next_probe = min(observers.next_due, state.m)
    for base, items, arrivals, at_columns, execution_columns in state.windows():
        due = next_probe - base
        for q, arrival in enumerate(arrivals):
            instance = counter % k
            counter += 1
            if at_columns is not None:
                at_instance = at_columns[instance][q]
            else:
                at_instance = arrival + data_lat[instance].sample()
            b = busy[instance]
            start = at_instance if at_instance > b else b
            execution_time = execution_columns[instance][q]
            finish = start + execution_time
            busy[instance] = finish
            fin_append(finish)
            asg_append(instance)
            if q == due:
                next_probe = observers.sample(
                    0, base + q, items[q], instance, (), arrival, at_instance,
                    start, finish, execution_time, 0,
                )
                due = next_probe - base
    policy._counter = counter


def _run_full_knowledge(
    state: _ChunkedState, policy: FullKnowledgeGrouping, observers: Observers
) -> None:
    """Whole-stream inline loop for the Full Knowledge baseline.

    The exact load vector lives in a plain-float list for the duration of
    the run (same IEEE additions, same first-minimum tie-breaking as the
    policy's ``np.argmin``) and is written back at the end.
    """
    busy = state.busy_until
    fin_append = state.finishes.append
    asg_append = state.assignments.append
    data_lat = state.data_lat
    position = state.position
    oracle = policy._oracle
    loads = policy._loads.tolist()
    k_range = range(1, state.k)
    next_probe = min(observers.next_due, state.m)
    for base, items, arrivals, at_columns, execution_columns in state.windows():
        due = next_probe - base
        for q, arrival in enumerate(arrivals):
            position[0] = q
            best = loads[0]
            instance = 0
            for i in k_range:
                value = loads[i]
                if value < best:
                    best = value
                    instance = i
            loads[instance] += oracle(items[q], instance)
            if at_columns is not None:
                at_instance = at_columns[instance][q]
            else:
                at_instance = arrival + data_lat[instance].sample()
            b = busy[instance]
            start = at_instance if at_instance > b else b
            execution_time = execution_columns[instance][q]
            finish = start + execution_time
            busy[instance] = finish
            fin_append(finish)
            asg_append(instance)
            if q == due:
                next_probe = observers.sample(
                    0, base + q, items[q], instance, (), arrival, at_instance,
                    start, finish, execution_time, 0,
                )
                due = next_probe - base
    policy._loads[:] = loads


def _send_control(
    state: _ChunkedState, injector: "FaultInjector | None", messages, finish: float
) -> None:
    """Bill an instance's outgoing messages and queue their deliveries.

    Each message leaves at ``finish`` plus one control-latency draw; an
    injector turns that into zero, one or two delivery times.  Messages
    go out in emission order, so the latency model's and the injector's
    random streams advance exactly as in the reference engine.
    """
    control_queue = state.control_queue
    for message in messages:
        delivery = finish + state.control_lat.sample()
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
    the open window; slow-node windows are already in the execution
    columns.  ``_run_generic`` runs every tuple through it; the segment
    router only the tuples it cannot batch.  The finish time is appended
    to ``state.finishes`` and the chosen instance returned.
    """
    busy = state.busy_until
    finishes = state.finishes
    assignments = state.assignments
    data_lat = state.data_lat
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
        if state.at_columns is not None:
            at_instance = state.at_columns[instance][q]
        else:
            at_instance = arrival + data_lat[instance].sample()
        b = busy[instance]
        start = at_instance if at_instance > b else b
        execution_time = state.execution_columns[instance][q]
        sync_request = decision.sync_request
        if sync_request is not None:
            state.control_messages += 1
            state.control_bits += sync_request.size_bits()
            if injector is not None and injector.drop_request(sync_request):
                sync_request = None
        finish = start + execution_time
        busy[instance] = finish
        finishes.append(finish)
        assignments.append(instance)
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
    engine's per-tuple order exactly, so random latency models and the
    injector draw at the same points under both engines.
    """
    busy = state.busy_until
    control_queue = state.control_queue
    position = state.position
    track_states = isinstance(policy, POSGGrouping)
    previous_state = policy.state if track_states else None
    crash_ptr = 0
    faulting = injector is not None
    step = _tuple_stepper(state, policy, agents, injector, observers, profiler)
    for base, _, arrivals, _, _ in state.windows():
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
    under ``latency_hints``), the two-choices probe and cross-shard
    gossip are replayed in place, execution and
    constant instance-arrival times are hoisted columns, listed with the
    window (:meth:`_ChunkedState.open_window`) and indexed from its first
    tuple (a random data latency is drawn inline, right after the pick),
    and instance-side sketch folds are batched between window boundaries
    (``InstanceTracker.execute_batch``) and read back from the
    assignment buffer, so the loops keep no per-instance batch and the
    numbers stay in arrays.  Routing and merge share the
    pass, so nothing is speculative: every block commits exactly the
    positions it consumed.  The per-tuple control check disappears:
    arrivals are sorted, so the segment bound is a ``bisect`` on the
    earliest pending delivery, re-tightened whenever a window boundary
    emits new messages; the blocks then ``resume`` over the rest of the
    window with their estimate columns intact.  While any shard is in
    SEND_ALL (tuples carry sync requests) the engine falls back to the
    reference per-tuple step, preserving delivery order and FSM
    semantics exactly.

    Faults and recovery defences are more horizons of the same kind,
    because none of them acts between two events the engine already
    sees.  A scripted crash is a function of arrival time: its index is
    a ``searchsorted``, the segment stops there, and the crash fires at
    the top of the loop once the pending folds have landed.  Slow-node
    windows are already in the execution columns (``_simulate_chunked``
    folds them before it dispatches).  The injector draws only when a
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
    assignments = state.assignments
    control_queue = state.control_queue
    engine = state.engine
    schedulers = policy.schedulers
    sources = len(schedulers)
    trackers = [agent.tracker for agent in agents]
    window_size = policy.config.window_size
    previous_state = policy.state
    k = state.k
    two_choices = schedulers[0]._two_choices and k > 1
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

    at_arrays = state.at_arrays
    shape = Shape(k, sources, gossip, two_choices, hints is not None, at_arrays is None)
    kernel = segment_kernel(shape)
    engine["kernel"] = shape.label
    draws = None if at_arrays is not None else [model.sample for model in state.data_lat]

    # The observers' sentinel is ``m`` when nothing is attached, so the
    # per-tuple compare stays between small ints.  Samples are taken at
    # their grid indices from segment locals: the believed loads are the
    # owning shard's post-add ``c`` values — the exact floats ``commit``
    # folds back into ``C_hat``, so the reference engine's post-submit
    # ``C_hat`` reads match bit for bit.
    probe = observers.sample
    next_probe = min(observers.next_due, m)

    # Instance-side folds are lazy and persist across segments: the
    # tuples instance ``i`` executed land in its tracker right before
    # anything inspects it (a window boundary, a crash, a per-tuple step,
    # the end of the run).  What it is still owed is every index
    # ``>= fold_from[i]`` the assignment buffer gives to ``i``; a tuple
    # folded on its own at index ``j`` (a boundary tuple, a per-tuple
    # step) hands over at ``j + 1``, so each tuple is folded exactly once.
    fold_from = [0] * k
    window_left = [tracker.window_remaining for tracker in trackers]

    def _fold(instance: int, hi: int) -> None:
        """Land the tuples ``instance`` executed in ``[fold_from, hi)``."""
        lo = fold_from[instance]
        fold_from[instance] = hi
        if lo >= hi:
            return
        if profiler is not None:
            profiler.start("fold")
        # The view lives inside this one expression: a buffer that is
        # exported cannot grow, and the loops append to it.
        owned = np.flatnonzero(
            np.frombuffer(assignments, assignments.typecode)[lo:hi] == instance
        )
        if owned.size:
            owned += lo
            trackers[instance].execute_batch(
                items_array[owned], state.execution_arrays[instance][owned]
            )
            engine["folds"] += 1
            engine["folded_tuples"] += owned.size
        if profiler is not None:
            profiler.stop()

    def _window_boundary(
        instance: int,
        item: int,
        execution_time: float,
        finish: float,
        lo: int,
        next_due: float,
        end: int,
    ) -> tuple[float, int]:
        """Fold what precedes the boundary tuple ``lo - 1``, run that one
        through the FSM (Figure 2), enqueue its messages, and re-tighten the
        segment bound if a delivery now lands before the previous horizon.
        ``lo`` and ``end`` count from the open window's first tuple."""
        nonlocal cut
        if profiler is not None:
            profiler.start("window_close")
        _fold(instance, state.base + lo - 1)
        fold_from[instance] = state.base + lo
        messages = trackers[instance].execute(item, execution_time, None)
        if messages:
            _send_control(state, injector, messages, finish)
        if control_queue and control_queue[0][0] < next_due:
            next_due = control_queue[0][0]
            tightened = bisect.bisect_left(state.arrivals, next_due, lo, end)
            if tightened < end:
                end = tightened
                cut = "window"
        if profiler is not None:
            profiler.stop()
        return next_due, end

    # These helpers close over names the segment loops do not read per
    # tuple, so the loops' locals stay plain locals.
    def _flush_pending() -> None:
        """Land every batched fold, before anything reads a tracker."""
        for instance in range(k):
            _fold(instance, len(assignments))

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
                items, arrivals, at_cols, execution_columns = state.open_window(j)
                base = j
                window_end = j + len(items)
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
                end = base + bisect.bisect_left(arrivals, next_due, j + 1 - base)
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
                base, items, arrivals, at_cols, execution_columns, busy,
                window_left, window_size, _window_boundary, probe,
                finishes.append, assignments.append, hints, draws,
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
        fold_from[:] = [j + 1] * k  # the step folded tuple j itself
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
