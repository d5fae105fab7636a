"""Per-layer metrics of the traced run: layer replay and feature probes.

Layers are measured from outside, by timing calls into their public
functions.  After the workload's real run, each layer's function is
driven over the workload's own items and execution times, against the
warmed scheduler the run left in ``result.policy``.

Two kinds of value come out:

- **counters** describe the workload's own run (0 where the feature that
  owns the counter is off on that workload);
- **rates and ratios** describe a layer driven over the workload's
  stream, or over a prefix of it when the layer works per tuple.

Every probe imports what it measures lazily.  If a later change removes a
public function or keyword, the metrics of that probe are reported as
``None`` with the reason and the other probes still run.
"""

from __future__ import annotations

import dataclasses
import os
import statistics
from dataclasses import dataclass
from time import perf_counter, perf_counter_ns

import numpy as np

from bench.spans import SpanRecorder
from bench.workloads import (
    CHUNK_SIZE,
    COORDINATED,
    K,
    PAPER,
    RECOVERY_ARMED,
    SOURCES,
    Outcome,
    fault_plan,
)

#: prefix lengths of the per-tuple probes; the streams are longer, and a
#: per-tuple Python loop over all of them would not fit the run's budget
SUBMIT_PREFIX = 2**15
ENGINE_PREFIX = 2**15
REFERENCE_PREFIX = 2**14
TOPOLOGY_PREFIX = 2**13
GUARD_WARM_UP = 2**13
PARALLEL_PREFIX = 2**16
OBSERVER_PREFIX = 2**13
STORM_PREFIX = 2**12
OBSERVER_ROUNDS = 5
PAIR_ROUNDS = 3

PROBES: list[tuple[tuple[str, ...], object]] = []


def probe(*names: str):
    """Register a probe and the metric names it owns."""

    def register(function):
        PROBES.append((names, function))
        return function

    return register


@dataclass
class Context:
    workload: object
    #: the last traced run of the workload (its policy is warmed)
    outcome: Outcome
    recorder: SpanRecorder
    #: median wall seconds of the untraced runs made beside the traced ones
    untraced_s: float
    #: median over those pairs of traced wall / untraced wall
    tracing_overhead_ratio: float
    cold_run_s: float
    #: ``(tuple index, state name)`` at each scheduler state change
    transitions: list

    @property
    def stream(self):
        return self.workload.stream

    def rng(self):
        return np.random.default_rng(self.workload.seed + 1)

    def state_share(self, state: str) -> float:
        """Share of the run's tuples routed while the scheduler (shard 0
        under sharding) was in ``state``; every run starts in ROUND_ROBIN."""
        m = self.outcome.m
        edges = [(0, "round_robin")] + self.transitions + [(m, None)]
        routed = sum(
            following - index
            for (index, name), (following, _) in zip(edges, edges[1:])
            if name == state
        )
        return routed / m


def run_probes(context: Context) -> tuple[dict, dict]:
    """Every per-layer metric, and the reason for each that is ``None``."""
    metrics: dict = {}
    reasons: dict = {}
    for names, function in PROBES:
        reason = "not reported by its probe"
        values: dict = {}
        try:
            with context.recorder.span(function.__name__):
                values = function(context)
        except (ImportError, AttributeError, TypeError) as error:
            reason = f"{type(error).__name__}: {error}"
        for name in names:
            metrics[name] = values.get(name)
            if metrics[name] is None:
                reasons[name] = reason
    return metrics, reasons


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def prefix(stream, count: int):
    """The first ``count`` tuples of ``stream`` as a stream."""
    if count >= stream.m:
        return stream
    return dataclasses.replace(
        stream,
        items=stream.items[:count],
        base_times=stream.base_times[:count],
        arrivals=stream.arrivals[:count],
    )


def timed(function) -> float:
    start = perf_counter()
    function()
    return perf_counter() - start


def rate(function, count: int, repetitions: int = 3) -> float:
    """``count`` per median second over ``repetitions`` calls."""
    return count / statistics.median(timed(function) for _ in range(repetitions))


def simulate(stream, policy, k: int = K, chunk_size: int = CHUNK_SIZE, **keywords):
    from repro import simulate_stream

    return simulate_stream(
        stream, policy, k=k, rng=np.random.default_rng(1),
        chunk_size=chunk_size, **keywords,
    )


def alternate(variants: dict, rounds: int, warm_up: bool = True) -> dict:
    """Wall seconds of each variant per round, order reversed every other
    round so that drift within a round favours neither end."""
    names = list(variants)
    if warm_up:  # first calls pay imports and allocator growth
        for name in names:
            variants[name]()
    walls: dict = {name: [] for name in names}
    for round_index in range(rounds):
        for name in names if round_index % 2 == 0 else reversed(names):
            walls[name].append(timed(variants[name]))
    return walls


def paired_ratio(walls: dict, numerator: str, denominator: str) -> float:
    """Median over the rounds of ``numerator`` wall / ``denominator`` wall."""
    return statistics.median(
        a / b for a, b in zip(walls[numerator], walls[denominator])
    )


def replay_blocks(scheduler, items: np.ndarray, recorder: SpanRecorder) -> None:
    """Route ``items`` through the block fast path under a ``route`` span.

    ``begin_block`` nests its own ``hash`` and ``estimate`` spans, so the
    ``route`` span's self time is the scan and the commit.
    """
    with recorder.span("route"):
        position = 0
        while position < len(items):
            block_items = items[position:position + CHUNK_SIZE]
            block = scheduler.begin_block(block_items, profiler=recorder)
            if block is None:
                # SEND_ALL piggy-backs a sync request on each of the next
                # k tuples, which only the per-tuple path can do
                scheduler.submit(int(items[position]))
                position += 1
                continue
            route_next = block.route_next
            for _ in range(len(block_items)):
                route_next()
            block.commit()
            position += len(block_items)


def scheduler_stats(policy) -> dict:
    return policy.stats() if hasattr(policy, "stats") else policy.scheduler.stats()


class TimedGrouping:
    """Times a storm grouping's ``choose_tasks`` from outside and notes
    the scheduler state after each call."""

    def __init__(self, grouping) -> None:
        self.calls = 0
        self.total_ns = 0
        self.transitions: list = []
        self._last = None
        self._grouping = grouping
        self._inner = grouping.choose_tasks
        grouping.choose_tasks = self

    def __call__(self, tup):
        start = perf_counter_ns()
        tasks = self._inner(tup)
        self.total_ns += perf_counter_ns() - start
        state = self._grouping.state
        if state is not self._last:
            if self._last is not None:
                self.transitions.append((self.calls, state.value))
            self._last = state
        self.calls += 1
        return tasks


def traced_run(workload, recorder: SpanRecorder) -> tuple[Outcome, list]:
    """The workload's run under a ``run`` span, and its state changes.

    The simulator reports the scheduler's state changes itself; the storm
    engine does not, so its grouping is timed and watched from outside.
    """
    if workload.engine == "storm":
        grouping = workload.grouping()
        timer = TimedGrouping(grouping)
        with recorder.span("run"):
            outcome = workload.run(grouping)
        return outcome, timer.transitions
    with recorder.span("run"):
        outcome = workload.run()
    return outcome, [
        (index, state.value) for index, state in outcome.detail.state_transitions
    ]


# ----------------------------------------------------------------------
# counters of the workload's own run
# ----------------------------------------------------------------------
@probe(
    "run.avg_completion_ms",
    "run.p99_completion_ms",
    "run.control_bits_per_tuple",
    "run.failed_share",
    "simulator.run.cold_run_s",
    "simulator.run.control_messages",
    "simulator.run.state_transitions",
    "bench.tracing_overhead_ratio",
)
def run_counters(context: Context) -> dict:
    exact = context.outcome.exact()
    return {
        **{f"run.{name}": value for name, value in exact.items()},
        "simulator.run.cold_run_s": context.cold_run_s,
        "simulator.run.control_messages": context.outcome.control_messages,
        "simulator.run.state_transitions": len(context.transitions),
        "bench.tracing_overhead_ratio": context.tracing_overhead_ratio,
    }


@probe(
    "core.scheduler.sync_rounds_completed",
    "core.scheduler.matrices_received",
    "core.scheduler.stale_replies_dropped",
    "core.scheduler.sync_retransmits",
    "core.scheduler.watchdog_fallbacks",
    "core.scheduler.run_entry_index",
    "core.scheduler.run_state_share",
    "core.multisource.gossip_updates",
    "core.multisource.snoop_published",
    "core.instance.matrices_sent",
    "core.instance.window_count",
)
def control_plane_counters(context: Context) -> dict:
    policy = context.outcome.policy
    m = context.outcome.m
    stats = scheduler_stats(policy)
    values = {
        f"core.scheduler.{name}": stats[name]
        for name in (
            "sync_rounds_completed", "matrices_received", "stale_replies_dropped",
            "sync_retransmits", "watchdog_fallbacks",
        )
    }
    values["core.scheduler.run_entry_index"] = next(
        (index for index, state in context.transitions if state == "run"), m
    )
    values["core.scheduler.run_state_share"] = context.state_share("run")
    values["core.multisource.gossip_updates"] = stats.get("gossip_updates", 0)
    values["core.multisource.snoop_published"] = stats.get("snoop_published", 0)
    instances = [policy.tracker(instance).stats() for instance in range(policy.k)]
    values["core.instance.matrices_sent"] = sum(
        entry["matrices_sent"] for entry in instances
    )
    values["core.instance.window_count"] = sum(
        entry["tuples_executed"] // policy.config.window_size for entry in instances
    )
    return values


FEATURE_COUNTERS = (
    "faults.messages_dropped",
    "faults.crashes_fired",
    "telemetry.audit.samples",
    "telemetry.flight.events",
    "telemetry.lineage.spans",
    "storm.metrics.timed_out",
    "storm.metrics.control_messages",
)


@probe(*FEATURE_COUNTERS)
def feature_counters(context: Context) -> dict:
    """Counters of features most workloads leave off: 0 where off."""
    detail = context.outcome.detail
    values = dict.fromkeys(FEATURE_COUNTERS, 0)
    if context.workload.engine == "storm":
        values["storm.metrics.timed_out"] = detail.metrics.timed_out
        values["storm.metrics.control_messages"] = detail.metrics.control_messages
        return values
    if detail.faults is not None:
        injected = detail.faults.report()["injected"]
        values["faults.messages_dropped"] = sum(injected["dropped"].values())
        values["faults.crashes_fired"] = injected["crashes"]
    if detail.audit is not None:
        values["telemetry.audit.samples"] = detail.audit.samples
    if detail.flight is not None:
        values["telemetry.flight.events"] = sum(
            len(lane) for lane in detail.flight.timelines()
        )
    if detail.lineage is not None:
        values["telemetry.lineage.spans"] = len(detail.lineage.records())
    return values


# ----------------------------------------------------------------------
# vector layers, over all of the workload's items
# ----------------------------------------------------------------------
@probe("workloads.generate.tuples_per_s")
def generate(context: Context) -> dict:
    m = context.workload.m
    return {
        "workloads.generate.tuples_per_s": rate(
            lambda: context.workload.generate(m), m
        )
    }


@probe(
    "sketches.hashing.hash_vector.items_per_s",
    "sketches.bucket_cache.columns_many.items_per_s",
    "sketches.bucket_cache.cached_items",
    "sketches.count_min.update_many.items_per_s",
    "sketches.count_min.query_many.items_per_s",
    "core.matrices.update_batch.items_per_s",
    "core.matrices.estimate_many.items_per_s",
)
def sketches(context: Context) -> dict:
    from repro.core.matrices import FWPair, make_shared_hashes
    from repro.sketches.bucket_cache import get_bucket_cache
    from repro.sketches.count_min import CountMinSketch

    items = np.ascontiguousarray(context.stream.items, dtype=np.int64)
    unsigned = items.astype(np.uint64)
    times = context.stream.base_times
    count = len(items)
    family = make_shared_hashes(context.outcome.policy.config, rng=context.rng())
    cache = get_bucket_cache(family)
    cache.columns_many(items)  # the engines run on a filled cache
    sketch = CountMinSketch(family)
    pair = FWPair(family)
    return {
        "sketches.hashing.hash_vector.items_per_s": rate(
            lambda: family.hash_vector(unsigned), count
        ),
        "sketches.bucket_cache.columns_many.items_per_s": rate(
            lambda: cache.columns_many(items), count
        ),
        "sketches.bucket_cache.cached_items": cache.cached_items,
        "sketches.count_min.update_many.items_per_s": rate(
            lambda: sketch.update_many(items, times), count
        ),
        "sketches.count_min.query_many.items_per_s": rate(
            lambda: sketch.query_many(items), count
        ),
        "core.matrices.update_batch.items_per_s": rate(
            lambda: pair.update_batch(items, times), count
        ),
        "core.matrices.estimate_many.items_per_s": rate(
            lambda: pair.estimate_many(items), count
        ),
    }


@probe(
    "core.scheduler.block_route.k16.tuples_per_s",
    "core.scheduler.block_route.k64.tuples_per_s",
)
def block_route_guards(context: Context) -> dict:
    """The vectorised-argmin branch of the block router, at k = 16 and 64."""
    from repro import POSGConfig, POSGGrouping

    # N = 32 and mu = 1 make every one of 64 instances ship matrices early
    # in the prefix, so the warmed scheduler scans real estimate columns
    config = POSGConfig(window_size=32, mu=1.0, rows=4, cols=54)
    stream = prefix(context.stream, ENGINE_PREFIX)
    warm_up = prefix(stream, GUARD_WARM_UP)
    items = np.ascontiguousarray(stream.items, dtype=np.int64)
    values = {}
    for k in (16, 64):
        scheduler = simulate(warm_up, POSGGrouping(config), k=k).policy.scheduler
        recorder = SpanRecorder()
        replay_blocks(scheduler, items, recorder)
        values[f"core.scheduler.block_route.k{k}.tuples_per_s"] = len(
            items
        ) / recorder.seconds("route", self_time=True)
    return values


# ----------------------------------------------------------------------
# layer replay against the warmed scheduler: rates and shares of the run
# ----------------------------------------------------------------------
def replay_tuples(context: Context, head, family) -> None:
    """One span per per-tuple layer function, over the stream's head."""
    from repro.core.instance import InstanceTracker
    from repro.sketches.bucket_cache import get_bucket_cache

    policy = context.outcome.policy
    scheduler = policy.scheduler
    recorder = context.recorder
    items = head.items.tolist()
    times = head.base_times.tolist()
    with recorder.span("submit"):
        for item in items:
            scheduler.submit(item)
    with recorder.span("policy_route"):
        route = policy.route
        for item in items:
            route(item)
    with recorder.span("estimate"):
        estimate = scheduler.estimate
        for index, item in enumerate(items):
            estimate(item, index % K)
    cache = get_bucket_cache(family)
    cache.columns_many(head.items)
    with recorder.span("hash"):
        columns = cache.columns
        for item in items:
            columns(item)

    # instance i folds every k-th tuple, so windows close as often per
    # tuple as in the run
    window = policy.config.window_size
    with recorder.span("execute"):
        for instance in range(K):
            execute = InstanceTracker(instance, policy.config, family).execute
            for item, time in zip(items[instance::K], times[instance::K]):
                execute(item, time)
    with recorder.span("execute_batch"):
        for instance in range(K):
            tracker = InstanceTracker(instance, policy.config, family)
            own_items = items[instance::K]
            own_times = times[instance::K]
            for low in range(0, len(own_items), window):
                boundary = low + window - 1
                tracker.execute_batch(own_items[low:boundary], own_times[low:boundary])
                if boundary < len(own_items):
                    tracker.execute(own_items[boundary], own_times[boundary])


def on_message_seconds(config, family, head) -> float:
    """Seconds per ``POSGScheduler.on_message`` over 64 control rounds as
    the engines deliver them: k matrices, then the k replies to the sync
    requests the scheduler piggy-backs in SEND_ALL."""
    from repro.core.matrices import FWPair
    from repro.core.messages import MatricesMessage, SyncReply
    from repro.core.scheduler import POSGScheduler

    pair = FWPair(family)
    pair.update_batch(head.items, head.base_times)
    first_items = head.items[:K].tolist()
    scheduler = POSGScheduler(K, config)
    total_ns = 0
    delivered = 0
    for _ in range(64):
        messages = [MatricesMessage(instance, pair.copy(), head.m) for instance in range(K)]
        for phase in range(2):
            for message in messages:
                start = perf_counter_ns()
                scheduler.on_message(message)
                total_ns += perf_counter_ns() - start
            delivered += len(messages)
            if phase == 0:
                requests = [scheduler.submit(item).sync_request for item in first_items]
                messages = [
                    SyncReply(request.instance, request.epoch, 0.0)
                    for request in requests
                    if request is not None
                ]
    return total_ns / 1e9 / delivered


@probe(
    "core.scheduler.block_route.k5.tuples_per_s",
    "core.scheduler.submit.tuples_per_s",
    "core.scheduler.on_message.msgs_per_s",
    "core.instance.execute.tuples_per_s",
    "core.instance.execute_batch.tuples_per_s",
    "simulator.run.share.hash",
    "simulator.run.share.estimate",
    "simulator.run.share.route",
    "simulator.run.share.instance_fold",
    "simulator.run.share.control",
    "simulator.run.engine_self_share",
)
def replay(context: Context) -> dict:
    """Drive each layer over the workload's items inside its own span.

    A share is the layer's replay seconds, scaled to the whole stream,
    over the untraced run's wall seconds.  A workload on the block path
    takes its hash/estimate/route shares from the block replay and its
    fold share from ``execute_batch``; the others route and fold per
    tuple, and take them from ``policy.route``, ``scheduler.estimate``
    (which hashes), the bucket cache's scalar lookup and
    ``InstanceTracker.execute``.
    """
    from repro.core.matrices import make_shared_hashes

    policy = context.outcome.policy
    recorder = context.recorder
    stream = context.stream
    head = prefix(stream, SUBMIT_PREFIX)
    family = make_shared_hashes(policy.config, rng=context.rng())
    here = recorder.path()

    def seconds(*path: str, self_time: bool = False) -> float:
        return recorder.seconds(*here, *path, self_time=self_time)

    replay_blocks(
        policy.scheduler, np.ascontiguousarray(stream.items, dtype=np.int64), recorder
    )
    replay_tuples(context, head, family)
    message_s = on_message_seconds(policy.config, family, head)

    stats = scheduler_stats(policy)
    deliveries = (
        stats["matrices_received"]
        + K * stats["sync_rounds_completed"]
        + stats["stale_replies_dropped"]
    )
    scale = stream.m / head.m
    # ROUND_ROBIN routes without hashing or estimating, and the replay
    # runs against a scheduler that is past it: only the tuples the run
    # routed greedily are charged for those two layers
    greedy = 1.0 - context.state_share("round_robin")
    if context.workload.block_path:
        hash_s = seconds("route", "hash") * greedy
        estimate_s = seconds("route", "estimate") * greedy
        route_s = seconds("route", self_time=True)
        fold_s = seconds("execute_batch") * scale
    else:
        hash_s = seconds("hash") * scale * greedy
        estimate_s = seconds("estimate") * scale * greedy - hash_s
        route_s = (seconds("policy_route") - seconds("estimate")) * scale
        fold_s = seconds("execute") * scale
    wall = context.untraced_s
    shares = {
        "hash": hash_s / wall,
        "estimate": estimate_s / wall,
        "route": route_s / wall,
        "instance_fold": fold_s / wall,
        "control": message_s * deliveries / wall,
    }
    values = {f"simulator.run.share.{name}": share for name, share in shares.items()}
    values["simulator.run.engine_self_share"] = 1.0 - sum(shares.values())
    values["core.scheduler.block_route.k5.tuples_per_s"] = stream.m / seconds(
        "route", self_time=True
    )
    values["core.scheduler.on_message.msgs_per_s"] = 1.0 / message_s
    for name, span in (
        ("core.scheduler.submit", "submit"),
        ("core.instance.execute", "execute"),
        ("core.instance.execute_batch", "execute_batch"),
    ):
        values[f"{name}.tuples_per_s"] = head.m / seconds(span)
    return values


# ----------------------------------------------------------------------
# feature probes over a prefix of the workload's stream
# ----------------------------------------------------------------------
@probe(
    "faults.injector.overhead_ratio",
    "simulator.run.generic_vs_fast_ratio",
)
def dispatch_cliff(context: Context) -> dict:
    """What leaving ``_run_posg`` costs, and what the injector adds to it."""
    from repro import POSGGrouping

    stream = prefix(context.stream, ENGINE_PREFIX)
    plan = fault_plan(stream)
    walls = alternate(
        {
            "fast": lambda: simulate(stream, POSGGrouping(PAPER)),
            "armed": lambda: simulate(stream, POSGGrouping(RECOVERY_ARMED)),
            "faulted": lambda: simulate(
                stream, POSGGrouping(RECOVERY_ARMED), faults=plan
            ),
        },
        PAIR_ROUNDS,
    )
    return {
        "faults.injector.overhead_ratio": paired_ratio(walls, "faulted", "armed"),
        "simulator.run.generic_vs_fast_ratio": paired_ratio(walls, "armed", "fast"),
    }


@probe(
    "simulator.run.reference.tuples_per_s",
    "simulator.run.round_robin.tuples_per_s",
    "simulator.run.full_knowledge.tuples_per_s",
    "simulator.topology.tuples_per_s",
)
def other_engines(context: Context) -> dict:
    from repro import FullKnowledgeGrouping, POSGGrouping, RoundRobinGrouping
    from repro.simulator import StageTopology

    stream = prefix(context.stream, ENGINE_PREFIX)
    short = prefix(stream, REFERENCE_PREFIX)
    shorter = prefix(stream, TOPOLOGY_PREFIX)
    return {
        "simulator.run.reference.tuples_per_s": rate(
            lambda: simulate(short, POSGGrouping(PAPER), chunk_size=0),
            short.m, repetitions=1,
        ),
        "simulator.run.round_robin.tuples_per_s": rate(
            lambda: simulate(stream, RoundRobinGrouping()), stream.m
        ),
        "simulator.run.full_knowledge.tuples_per_s": rate(
            lambda: simulate(stream, FullKnowledgeGrouping), stream.m
        ),
        "simulator.topology.tuples_per_s": rate(
            lambda: StageTopology(
                K, POSGGrouping(PAPER), rng=np.random.default_rng(1)
            ).run(shorter),
            shorter.m, repetitions=1,
        ),
    }


@probe(
    "core.multisource.route.tuples_per_s",
    "core.multisource.route_coord.tuples_per_s",
)
def multisource_route(context: Context) -> dict:
    from repro.core import MultiSourcePOSGGrouping

    stream = prefix(context.stream, SUBMIT_PREFIX)
    items = stream.items.tolist()
    values = {}
    for name, config in (("route", PAPER), ("route_coord", COORDINATED)):
        policy = simulate(stream, MultiSourcePOSGGrouping(SOURCES, config)).policy
        route = policy.route

        def drive():
            for item in items:
                route(item)

        values[f"core.multisource.{name}.tuples_per_s"] = rate(
            drive, len(items), repetitions=1
        )
    return values


@probe(
    "simulator.parallel.w1.tuples_per_s",
    "simulator.parallel.w2.tuples_per_s",
    "simulator.parallel.segments",
    "simulator.parallel.fallback_tuples",
    "simulator.parallel.discarded_speculative_tuples",
)
def parallel_engine(context: Context) -> dict:
    """The process pool at 1 worker and at min(2, nproc) workers.

    The load comes from this one process and never uses more workers
    than the host has cores; scaling beyond that is not reported.
    """
    from repro.core import MultiSourcePOSGGrouping
    from repro.simulator import simulate_stream_parallel

    stream = prefix(context.stream, PARALLEL_PREFIX)
    results = {}

    def run(workers: int):
        results[workers] = simulate_stream_parallel(
            stream, MultiSourcePOSGGrouping(SOURCES, PAPER), workers=workers,
            k=K, rng=np.random.default_rng(1), chunk_size=CHUNK_SIZE,
        )

    two = min(2, os.cpu_count() or 1)
    values = {
        "simulator.parallel.w1.tuples_per_s": rate(lambda: run(1), stream.m),
        "simulator.parallel.w2.tuples_per_s": rate(lambda: run(two), stream.m),
    }
    accounting = results[two].parallel
    for name in ("segments", "fallback_tuples", "discarded_speculative_tuples"):
        values[f"simulator.parallel.{name}"] = accounting[name]
    return values


@probe(
    "telemetry.recorder.overhead_ratio",
    "telemetry.audit.overhead_ratio",
    "telemetry.flight.overhead_ratio",
    "telemetry.lineage.overhead_ratio",
    "telemetry.profiler.overhead_ratio",
)
def observer_overheads(context: Context) -> dict:
    """Each observer attached alone against none, on the sharded config."""
    from repro import TelemetryRecorder
    from repro.core import MultiSourcePOSGGrouping
    from repro.telemetry import AuditConfig, FlightRecorderConfig, PhaseProfiler
    from repro.telemetry.lineage import LineageConfig

    stream = prefix(context.stream, OBSERVER_PREFIX)

    def plain(**keywords):
        simulate(stream, MultiSourcePOSGGrouping(SOURCES, PAPER), **keywords)

    def recorded():
        recorder = TelemetryRecorder()
        policy = MultiSourcePOSGGrouping(SOURCES, PAPER, telemetry=recorder)
        simulate(stream, policy, telemetry=recorder)

    walls = alternate(
        {
            "none": plain,
            "recorder": recorded,
            "audit": lambda: plain(audit=AuditConfig()),
            "flight": lambda: plain(flight=FlightRecorderConfig()),
            "lineage": lambda: plain(lineage=LineageConfig()),
            "profiler": lambda: plain(profiler=PhaseProfiler()),
        },
        OBSERVER_ROUNDS,
    )
    return {
        f"telemetry.{name}.overhead_ratio": paired_ratio(walls, name, "none")
        for name in walls
        if name != "none"
    }


@probe(
    "storm.cluster.assg.tuples_per_s",
    "storm.posg_grouping.choose_tasks.tuples_per_s",
)
def storm_layers(context: Context) -> dict:
    from repro.storm import POSGShuffleGrouping, ShuffleGrouping

    from bench.workloads import FIGURE12, run_storm

    stream = prefix(context.stream, STORM_PREFIX)
    seed = context.workload.seed
    grouping = POSGShuffleGrouping("value", FIGURE12, context.rng())
    timer = TimedGrouping(grouping)
    run_storm(stream, grouping, seed)
    return {
        "storm.cluster.assg.tuples_per_s": rate(
            lambda: run_storm(stream, ShuffleGrouping(), seed), stream.m,
            repetitions=1,
        ),
        "storm.posg_grouping.choose_tasks.tuples_per_s": timer.calls
        / (timer.total_ns / 1e9),
    }
