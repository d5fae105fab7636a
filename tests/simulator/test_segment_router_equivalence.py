"""The in-process segment router against the per-tuple reference engine.

Every POSG-family policy — ``POSGGrouping``, its subclasses, and
``MultiSourcePOSGGrouping`` at any shard count, coordinated or not, with
any observer attached, under any ``FaultPlan`` and with or without
``RecoveryConfig`` — runs through one segment router in the chunked
engine.  This file pins that router four ways:

- a generated differential test (chunked vs ``chunk_size=0``) over shard
  count, instance count, chunk size, window size, coordination flags,
  matrices handling (merged or replaced, pooled), data latencies (one shared, one per instance), queue sampling,
  observers, fault plans
  (message faults per channel and per source, crashes) and recovery
  thresholds small enough that every
  defence fires inside the stream; and a second one for the two paper
  baselines, which run the s = 1 kernel too;
- a deterministic walk over the generated segment kernels (shard count
  x instance count x one feature at a time), each compiled once and
  legible in tracebacks;
- named regressions for the configurations the generator reaches
  rarely: a segment whose shards mix ROUND_ROBIN and greedy modes, a
  window close that cuts a segment mid-interleave right before a
  SEND_ALL stretch, shards that hold different pairs over one shared
  estimate table, and the fault/defence horizons at their edges;
- the ``SimulationResult.engine`` record, so a change that pushes
  sharded, coordinated, observed, faulted or defended runs back to the
  per-tuple loop fails here instead of only getting slower.
"""

import collections
import dataclasses
import inspect
import math
import time
import traceback

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CoordinationConfig, POSGConfig, RecoveryConfig
from repro.core.grouping import (
    FullKnowledgeGrouping,
    POSGGrouping,
    RoundRobinGrouping,
)
from repro.core.estimate_table import EstimateTable
from repro.core.messages import MatricesMessage
from repro.core.multisource import MultiSourcePOSGGrouping
from repro.core.scheduler import POSGScheduler, SchedulerState
from repro.faults.plan import CrashFault, FaultPlan, MessageFaults
from repro.simulator.run import simulate_stream
from repro.simulator.segment_kernel import Shape, kernel_source, segment_kernel
from repro.telemetry.audit import AuditConfig
from repro.telemetry.flightrecorder import FlightRecorder, FlightRecorderConfig
from repro.telemetry.lineage import LineageConfig, LineageTracer
from repro.telemetry.recorder import TelemetryRecorder
from repro.workloads.nonstationary import LoadShiftScenario
from repro.workloads.synthetic import (
    Stream,
    StreamSpec,
    ZipfItems,
    default_stream,
    generate_stream,
)

ENGINE_KEYS = {
    "path", "reason", "segments", "truncated_segments", "fallback_tuples",
    "estimate_gathers", "estimate_requests", "estimate_evaluations",
    "serves", "served_tuples", "windows", "window_tuples", "cuts", "kernel",
}


def small_config(window_size=32, coordination=None, **overrides):
    return POSGConfig(
        window_size=window_size, rows=2, cols=16, coordination=coordination,
        **overrides,
    )


def assert_same_stream(reference, chunked):
    """What any policy's run leaves in the result, compared bit for bit."""
    np.testing.assert_array_equal(
        reference.stats.completions, chunked.stats.completions
    )
    np.testing.assert_array_equal(
        reference.stats.assignments, chunked.stats.assignments
    )
    assert reference.state_transitions == chunked.state_transitions
    assert reference.control_messages == chunked.control_messages
    assert reference.control_bits == chunked.control_bits
    if reference.queue_samples is None:
        assert chunked.queue_samples is None
    else:
        np.testing.assert_array_equal(
            reference.queue_samples, chunked.queue_samples
        )
        np.testing.assert_array_equal(
            reference.queue_sample_indices, chunked.queue_sample_indices
        )
    if reference.lineage is not None:
        assert reference.lineage.timelines() == chunked.lineage.timelines()
        assert reference.lineage.report() == chunked.lineage.report()
    # each tuple became Python objects once, however SEND_ALL stretches,
    # crashes and defences moved the windows
    engine = chunked.engine
    assert engine["window_tuples"] == chunked.stats.assignments.shape[0]
    assert 1 <= engine["windows"] <= engine["window_tuples"]


def assert_same_run(reference, chunked):
    """Everything a POSG-family run leaves behind, compared bit for bit."""
    assert_same_stream(reference, chunked)
    for ours, theirs in zip(
        reference.policy.schedulers, chunked.policy.schedulers, strict=True
    ):
        np.testing.assert_array_equal(ours.c_hat, theirs.c_hat)
        assert ours._tuples_scheduled == theirs._tuples_scheduled
        assert ours._rr_counter == theirs._rr_counter
        assert ours.stats() == theirs.stats()
    assert reference.policy.stats() == chunked.policy.stats()
    executed = 0
    for k in range(len(reference.policy._agents)):
        ours, theirs = reference.policy.tracker(k), chunked.policy.tracker(k)
        assert ours.cumulated_time == theirs.cumulated_time
        assert ours.window_remaining == theirs.window_remaining
        assert ours.tuples_executed == theirs.tuples_executed
        executed += theirs.tuples_executed
    # every tuple is folded exactly once: a fold doubled or skipped where
    # ``fold_from`` changes hands (boundary, crash, per-tuple step, cut
    # window) moves this count (restarts keep the lifetime counter)
    assert executed == chunked.stats.assignments.shape[0]
    if reference.audit is not None:
        assert reference.audit.report() == chunked.audit.report()
    if reference.flight is not None:
        assert reference.flight.timelines() == chunked.flight.timelines()
        assert reference.flight.report() == chunked.flight.report()
    crashes = 0
    if reference.faults is not None:
        assert reference.faults.report() == chunked.faults.report()
        crashes = chunked.faults.report()["injected"]["crashes"]
    # every segment that stopped short of its window names one cause
    # (a defence cut can outnumber the defences that acted: a delivery
    # landing on the deadline tuple is drained first and may disarm it)
    engine = chunked.engine
    cuts = engine["cuts"]
    assert sum(cuts.values()) == engine["truncated_segments"]
    assert cuts["crash"] <= crashes
    # the estimate table never evaluates what a fresh gather would not
    assert engine["estimate_evaluations"] <= engine["estimate_requests"]


def assert_same_baseline_run(reference, chunked):
    """A Round-Robin or Full Knowledge run, end state included."""
    assert_same_stream(reference, chunked)
    ours, theirs = reference.policy, chunked.policy
    if isinstance(ours, RoundRobinGrouping):
        assert ours._counter == theirs._counter == reference.stats.m
    else:
        np.testing.assert_array_equal(ours.loads, theirs.loads)


def defence_actions(policy):
    stats = policy.stats()
    return (
        stats["sync_retransmits"]
        + stats["sync_rounds_abandoned"]
        + stats["watchdog_fallbacks"]
    )


def run_pair(make_policy, stream, k, chunk_size, recorded=False, **keywords):
    """The same run under the reference and the chunked engine.

    ``make_policy`` takes the run's telemetry recorder (``None`` unless
    ``recorded``); a recorded pair must also leave identical telemetry.
    """
    results, recorders = [], []
    for chunk in (0, chunk_size):
        recorder = TelemetryRecorder() if recorded else None
        recorders.append(recorder)
        results.append(
            simulate_stream(
                stream, make_policy(recorder), k=k,
                rng=np.random.default_rng(11), chunk_size=chunk,
                telemetry=recorder, **keywords,
            )
        )
    if recorded:
        ours, theirs = recorders
        assert ours.registry.snapshot() == theirs.registry.snapshot()
        assert ours.tracer.events() == theirs.tracer.events()
    return results


@st.composite
def message_faults(draw):
    return MessageFaults(
        drop=draw(st.sampled_from([0.0, 0.1, 0.5])),
        duplicate=draw(st.sampled_from([0.0, 0.3])),
        delay=draw(st.sampled_from([0.0, 0.3])),
        delay_ms=draw(st.sampled_from([2.0, 40.0])),
        reorder=draw(st.sampled_from([0.0, 0.5])),
        reorder_ms=draw(st.sampled_from([1.0, 30.0])),
    )


@st.composite
def fault_scripts(draw, sources, k):
    """A ``FaultPlan`` minus its clock: crash times are fractions of
    the stream, resolved by :func:`fault_plan`."""
    fraction = st.floats(min_value=0.0, max_value=1.0)
    shards = st.integers(min_value=0, max_value=sources - 1)
    overrides = st.dictionaries(shards, message_faults(), max_size=2)
    instance = st.integers(min_value=0, max_value=k - 1)
    return {
        "channels": {
            "matrices": draw(message_faults()),
            "sync_requests": draw(message_faults()),
            "sync_replies": draw(message_faults()),
            "source_sync_requests": draw(overrides) if sources > 1 else {},
            "source_sync_replies": draw(overrides) if sources > 1 else {},
            "seed": draw(st.integers(min_value=0, max_value=3)),
        },
        "crashes": draw(
            st.lists(
                st.tuples(
                    instance, fraction, st.sampled_from([0.0, 0.5]),
                    st.sampled_from([0.0, 5.0, 200.0]),
                ),
                max_size=3,
            )
        ),
    }


def fault_plan(script, stream):
    """Resolve a drawn script against the stream's arrival clock: an
    ``offset`` of 0.0 puts the event exactly on an arrival."""
    arrivals = stream.arrivals
    gap = float(arrivals[-1] - arrivals[0]) / stream.m

    def clock(position, offset):
        return float(arrivals[int(position * (stream.m - 1))]) + offset * gap

    return FaultPlan(
        crashes=[
            CrashFault(instance, clock(position, offset), outage)
            for instance, position, offset, outage in script["crashes"]
        ],
        **script["channels"],
    )


@st.composite
def recovery_configs(draw):
    timeout = draw(st.sampled_from([1, 3, 16, 64]))
    return RecoveryConfig(
        sync_timeout=timeout,
        sync_backoff=draw(st.sampled_from([1.0, 2.0])),
        sync_timeout_max=timeout * 4,
        sync_max_retries=draw(st.sampled_from([0, 1, 3])),
        staleness_limit=draw(st.sampled_from([None, 40, 300])),
        rebroadcast_windows=draw(st.sampled_from([None, 1, 3])),
    )


def latency_models(kind, k, seed, control_latency):
    """One run's ``data_latency`` / ``control_latency`` keywords."""
    if kind == "constant":
        data = 0.5
    else:
        data = [(0.0, 0.5, 3.0)[(seed + instance) % 3] for instance in range(k)]
    return {"data_latency": data, "control_latency": control_latency}


@st.composite
def configurations(draw):
    sources = draw(st.integers(min_value=1, max_value=8))
    k = draw(st.sampled_from([1, 2, 5, 7]))
    coordination = None
    if draw(st.booleans()):
        coordination = CoordinationConfig(
            gossip=draw(st.booleans()),
            gossip_stride=draw(st.sampled_from([0, 1, 16])),
            snoop=draw(st.booleans()),
        )
    # whether shards share pairs and one estimate table follows from
    # these three, at every shard count
    matrices = {
        "merge_matrices": draw(st.booleans()),
        "pooled_estimates": draw(st.booleans()),
    }
    observers = {}
    if draw(st.booleans()):
        observers["audit"] = AuditConfig(
            sample_every=draw(st.sampled_from([1, 7, 64]))
        )
    if draw(st.booleans()):
        observers["flight"] = FlightRecorderConfig(
            sample_every=draw(st.sampled_from([1, 5, 64]))
        )
    if draw(st.booleans()):
        observers["lineage"] = LineageConfig(
            sample_every=draw(st.sampled_from([1, 3, 64]))
        )
    return {
        "sources": sources,
        "k": k,
        "chunk_size": draw(st.sampled_from([1, 7, 64, 2048])),
        "window_size": draw(st.sampled_from([4, 8, 32])),
        # mu = 1.0 ships matrices at the first window close, so short
        # streams still leave ROUND_ROBIN and reach RUN
        "mu": draw(st.sampled_from([0.05, 1.0])),
        "coordination": coordination,
        "matrices": matrices,
        "data_latency": draw(
            st.sampled_from(["constant", "per-instance-constants"])
        ),
        "control_latency": draw(st.sampled_from([0.0, 1.0, 25.0])),
        # 2_000 > m: the one sample is tuple 0's
        "sample_queues_every": draw(st.sampled_from([None, 1, 7, 2_000])),
        "m": draw(st.integers(min_value=300, max_value=1_500)),
        "seed": draw(st.integers(min_value=0, max_value=5)),
        "over_provisioning": draw(st.sampled_from([0.8, 1.0, 2.0])),
        "recorded": draw(st.booleans()),
        "observers": observers,
        "faults": draw(st.none() | fault_scripts(sources, k)),
        "recovery": draw(st.none() | recovery_configs()),
    }


#: the two paper baselines, as ``run_pair`` policy makers
BASELINES = {
    "round-robin": lambda recorder: RoundRobinGrouping(),
    "full-knowledge": lambda recorder: FullKnowledgeGrouping,
}


@st.composite
def baseline_configurations(draw):
    k = draw(st.integers(min_value=1, max_value=16))
    m = draw(st.integers(min_value=50, max_value=1_200))
    scenario = None
    if draw(st.booleans()):
        multipliers = st.lists(
            st.sampled_from([0.5, 1.0, 1.5, 3.0]), min_size=k, max_size=k
        )
        scenario = LoadShiftScenario(
            phases=(tuple(draw(multipliers)), tuple(draw(multipliers))),
            boundaries=(draw(st.integers(min_value=1, max_value=m - 1)),),
        )
    return {
        "policy": draw(st.sampled_from(sorted(BASELINES))),
        "k": k,
        "m": m,
        # past m: one window holds the whole stream
        "chunk_size": draw(st.integers(min_value=1, max_value=m + 8)),
        "data_latency": draw(
            st.sampled_from(["constant", "per-instance-constants"])
        ),
        "scenario": scenario,
        "sample_queues_every": draw(st.sampled_from([None, 1, 7])),
        "lineage": draw(
            st.none() | st.sampled_from([1, 3, 64]).map(
                lambda every: LineageConfig(sample_every=every)
            )
        ),
        "seed": draw(st.integers(min_value=0, max_value=5)),
        "recorded": draw(st.booleans()),
    }


class TestGeneratedDifferential:
    @given(configurations())
    @settings(max_examples=120, deadline=None)
    def test_chunked_matches_reference(self, drawn):
        k = drawn["k"]
        stream = default_stream(
            seed=drawn["seed"], m=drawn["m"], n=64, k=k,
            over_provisioning=drawn["over_provisioning"],
        )
        config = small_config(
            drawn["window_size"], drawn["coordination"], mu=drawn["mu"],
            recovery=drawn["recovery"], **drawn["matrices"],
        )
        faults = drawn["faults"]
        reference, chunked = run_pair(
            lambda recorder: MultiSourcePOSGGrouping(
                drawn["sources"], config, telemetry=recorder
            ),
            stream, k, drawn["chunk_size"], recorded=drawn["recorded"],
            **latency_models(
                drawn["data_latency"], k, drawn["seed"],
                drawn["control_latency"],
            ),
            sample_queues_every=drawn["sample_queues_every"],
            faults=None if faults is None else fault_plan(faults, stream),
            **drawn["observers"],
        )
        assert chunked.engine["path"] == "segment"
        assert chunked.engine["reason"] is None
        assert_same_run(reference, chunked)

    @given(baseline_configurations())
    @settings(max_examples=80, deadline=None)
    def test_baselines_match_reference(self, drawn):
        """Round-Robin and Full Knowledge run the s = 1 kernel, one
        segment per window, and leave what the reference leaves."""
        k = drawn["k"]
        stream = default_stream(seed=drawn["seed"], m=drawn["m"], n=64, k=k)
        reference, chunked = run_pair(
            BASELINES[drawn["policy"]], stream, k, drawn["chunk_size"],
            recorded=drawn["recorded"],
            **latency_models(drawn["data_latency"], k, drawn["seed"], 1.0),
            scenario=drawn["scenario"],
            sample_queues_every=drawn["sample_queues_every"],
            lineage=drawn["lineage"],
        )
        engine = chunked.engine
        assert engine["path"] == "segment" and engine["reason"] is None
        assert engine["kernel"] == Shape(k, 1, False).label
        assert engine["segments"] == engine["windows"]
        assert_same_baseline_run(reference, chunked)


#: one switch per shape field or run feature the generated kernels see;
#: each builds ``(config overrides, policy keywords, run keywords)``
WALK_FEATURES = {
    "gossip": lambda k, stream: (
        {"coordination": CoordinationConfig(gossip=True, snoop=False)}, {}, {}
    ),
    "per-instance-constants": lambda k, stream: (
        {}, {}, latency_models("per-instance-constants", k, 3, 1.0)
    ),
    "observers": lambda k, stream: (
        {},
        {},
        {
            "audit": AuditConfig(sample_every=3),
            "flight": FlightRecorderConfig(sample_every=5),
            "lineage": LineageConfig(sample_every=7),
        },
    ),
    "faults-recovery": lambda k, stream: (
        {"recovery": RecoveryConfig(sync_timeout=16, sync_max_retries=1)},
        {},
        {
            "faults": FaultPlan(
                crashes=[
                    CrashFault(k - 1, float(stream.arrivals[stream.m // 2]), 5.0)
                ],
                sync_replies=MessageFaults(drop=0.2),
                seed=1,
            )
        },
    ),
}


class TestShapeWalk:
    """Every kernel shape the walk reaches, against the reference engine.

    s in {1, 2, 3, 8} crossed with k in {1, 2, 5, 7}, one feature at a
    time.  The stream is long enough that every shard leaves
    ROUND_ROBIN, so each run executes its shards' greedy arms after the
    shared round-robin ones, and reports the shape it ran; the cache is
    emptied first and must compile each shape exactly once.
    """

    SOURCES = (1, 2, 3, 8)
    KS = (1, 2, 5, 7)
    M = 600

    def test_every_shape_compiles_once_and_matches_the_reference(
        self, capsys, monkeypatch
    ):
        # block gathers per scheduler (the shards share one table, whose
        # counters count its reads once for all of them)
        gathered = collections.Counter()
        block_estimates = POSGScheduler._block_estimates

        def counted(scheduler, items, profiler=None):
            gathered[id(scheduler)] += 1
            return block_estimates(scheduler, items, profiler)

        monkeypatch.setattr(POSGScheduler, "_block_estimates", counted)
        segment_kernel.cache_clear()
        started = time.perf_counter()
        shapes = set()
        for sources in self.SOURCES:
            for k in self.KS:
                stream = default_stream(seed=1, m=self.M, n=64, k=k)
                for feature, build in WALK_FEATURES.items():
                    overrides, policy_keywords, keywords = build(k, stream)
                    config = small_config(16, mu=1.0, **overrides)
                    gathered.clear()
                    reference, chunked = run_pair(
                        lambda recorder: MultiSourcePOSGGrouping(
                            sources, config, **policy_keywords
                        ),
                        stream, k, 64, **keywords,
                    )
                    label = f"s={sources} k={k} {feature}"
                    shape = Shape(k, sources, sources > 1 and feature == "gossip")
                    shapes.add(shape)
                    try:
                        assert chunked.engine["path"] == "segment"
                        assert chunked.engine["kernel"] == shape.label
                        assert_same_run(reference, chunked)
                        # every shard routed greedily for a while, so its
                        # greedy arms ran beside the round-robin ones
                        assert all(
                            gathered[id(scheduler)] > 0
                            for scheduler in chunked.policy.schedulers
                        )
                    except AssertionError as error:
                        raise AssertionError(f"{label}: {error}") from error
        elapsed = time.perf_counter() - started
        runs = len(self.SOURCES) * len(self.KS) * len(WALK_FEATURES)
        # a miss is the only way to compile: one per shape the runs
        # reached, and asking again for exactly those shapes compiles none
        for shape in shapes:
            segment_kernel(shape)
        info = segment_kernel.cache_info()
        assert info.misses == info.currsize == len(shapes)
        assert info.hits == runs
        with capsys.disabled():
            print(
                f"\nshape walk: {len(shapes)} kernels, {runs} run pairs, "
                f"{elapsed:.1f} s"
            )

    def test_a_run_that_never_leaves_round_robin_runs_the_kernel(self):
        """No window closes, so a lone scheduler routes the whole stream
        through the kernel's round-robin arm, samples included."""
        stream = default_stream(seed=1, m=self.M, n=64)
        reference, chunked = run_pair(
            lambda recorder: MultiSourcePOSGGrouping(1, small_config(4_096)),
            stream, 5, 64,
            audit=AuditConfig(sample_every=3),
            flight=FlightRecorderConfig(sample_every=5),
            lineage=LineageConfig(sample_every=7),
        )
        assert chunked.engine["kernel"] == "k=5 s=1"
        assert chunked.engine["segments"] > 1
        assert chunked.state_transitions == []
        assert chunked.engine["estimate_gathers"] == 0
        assert_same_run(reference, chunked)

    def test_a_raising_observer_shows_the_generated_line(self):
        """The kernel's frame in a traceback names its shape and shows the
        generated line, and ``inspect`` finds the whole text."""

        class Failing(FlightRecorder):
            def record_route(self, *args):
                raise RuntimeError("observer failed")

        stream = default_stream(seed=0, m=256, n=64)
        with pytest.raises(RuntimeError, match="observer failed") as failure:
            simulate_stream(
                stream, MultiSourcePOSGGrouping(2, small_config()), k=5,
                rng=np.random.default_rng(1), chunk_size=64,
                flight=Failing(FlightRecorderConfig(sample_every=1)),
            )
        shape = Shape(5, 2, False)
        text = kernel_source(shape)
        (frame,) = [
            frame
            for frame in traceback.extract_tb(failure.tb)
            if frame.filename.startswith("<segment kernel")
        ]
        assert frame.filename == "<segment kernel k=5 s=2>"
        assert frame.line.startswith("due = probe(")
        assert text.splitlines()[frame.lineno - 1].strip() == frame.line
        assert inspect.getsource(segment_kernel(shape)) == text


class LateShard(MultiSourcePOSGGrouping):
    """The last shard misses instance 0's first matrices broadcasts, so
    it keeps routing round-robin while its siblings already run greedy.

    Only ``on_control`` is overridden, which both engines call, so the
    run stays on the segment path and the reference stays its baseline.
    """

    withheld = 3

    def on_control(self, message):
        if (
            isinstance(message, MatricesMessage)
            and message.instance == 0
            and self.withheld
        ):
            self.withheld -= 1
            for scheduler in self.schedulers[:-1]:
                scheduler.on_message(
                    dataclasses.replace(message, matrices=message.matrices.copy())
                )
            return
        super().on_control(message)


class CursorLog(MultiSourcePOSGGrouping):
    """Records where each segment handed the interleave back."""

    def setup(self, k, rng=None):
        super().setup(k, rng)
        self.segment_ends = []

    def sync_cursor(self, position):
        self.segment_ends.append(position)
        super().sync_cursor(position)


class DeafShard(MultiSourcePOSGGrouping):
    """Shard 0 hears instance 0's ``n``-th matrices broadcast only when
    ``hears(n)``; its siblings hear every one and store the broadcast
    pair itself, so shard 0 and its siblings can hold different pairs
    (or shard 0 none) for instance 0 over the table they share.

    Only ``on_control`` is overridden, which both engines call.
    """

    def __init__(self, sources, config, hears):
        assert not config.merge_matrices  # siblings store the same object
        super().__init__(sources, config)
        self.hears = hears
        self.broadcasts = 0

    def on_control(self, message):
        if isinstance(message, MatricesMessage) and message.instance == 0:
            self.broadcasts += 1
            if not self.hears(self.broadcasts):
                for scheduler in self.schedulers[1:]:
                    scheduler.on_message(message)
                return
        super().on_control(message)


class Shadowed(MultiSourcePOSGGrouping):
    """Also delivers a copy of every matrices message to one lone
    scheduler: what each shard's stored pairs must equal."""

    def setup(self, k, rng=None):
        super().setup(k, rng)
        self.shadow = POSGScheduler(k, self.config)

    def on_control(self, message):
        if isinstance(message, MatricesMessage):
            self.shadow.on_message(
                dataclasses.replace(message, matrices=message.matrices.copy())
            )
        super().on_control(message)


def record_table_fills(monkeypatch):
    """Every ``(pair, id)`` cell an estimate table evaluates, and every
    pair that claimed a row back after another pair had taken it; the
    pairs are kept alive, so ``id(pair)`` names one pair throughout."""
    evaluated, reclaimed = [], []
    owned = {}
    gather = EstimateTable.gather

    def recording(table, items, pairs, profiler=None):
        before = table.valid.copy()
        for instance, pair in enumerate(pairs):
            if table.owners[instance] is not pair:
                before[instance] = False
                if id(pair) in owned:
                    reclaimed.append(pair)
                owned[id(pair)] = pair
        held = gather(table, items, pairs, profiler)
        fresh = table.valid.copy()
        fresh[:, : before.shape[1]] &= ~before
        evaluated.extend(
            (pairs[row], int(item)) for row, item in zip(*np.nonzero(fresh))
        )
        return held

    monkeypatch.setattr(EstimateTable, "gather", recording)
    return evaluated, reclaimed


def assert_evaluated_once_per_pair(evaluated, engine):
    """With merging off, each (instance, id) is evaluated at most once
    per pair the instance shipped, across all shards."""
    keys = [(id(pair), item) for pair, item in evaluated]
    assert len(set(keys)) == len(keys) == engine["estimate_evaluations"]


class TestSharedEstimateTable:
    """Shards that store the same broadcast pairs share one estimate
    table; these are the ways they come to hold different ones."""

    K = 5
    SOURCES = 4

    def windows_and_versions(self, chunked, chunk_size):
        versions = max(
            scheduler.matrices_version for scheduler in chunked.policy.schedulers
        )
        return math.ceil(chunked.stats.assignments.shape[0] / chunk_size) + versions

    def test_a_shard_watchdog_drops_a_pair_its_siblings_still_read(
        self, monkeypatch
    ):
        """Shard 0 hears instance 0 once, so its watchdog drops that pair
        and it bootstraps again, lacking it, while its siblings (whose own
        watchdogs fire under the dropped broadcasts too) read the shared
        table: the window fills must evaluate against a sibling's pairs."""
        gathers = []
        gather = EstimateTable.gather

        def noting(table, items, pairs, profiler=None):
            gathers.append(0 in deaf[-1].schedulers[0]._matrices)
            return gather(table, items, pairs, profiler)

        monkeypatch.setattr(EstimateTable, "gather", noting)
        deaf = []
        config = small_config(
            16, recovery=RecoveryConfig(sync_timeout=64, staleness_limit=300)
        )
        stream = default_stream(seed=2, m=6_000, n=64, k=self.K)

        def make_policy(recorder):
            deaf.append(DeafShard(self.SOURCES, config, lambda n: n <= 1))
            return deaf[-1]

        reference, chunked = run_pair(
            make_policy, stream, self.K, 256,
            faults=FaultPlan(matrices=MessageFaults(drop=0.2), seed=1),
        )
        assert chunked.engine["path"] == "segment"
        assert_same_run(reference, chunked)
        first, *siblings = chunked.policy.schedulers
        assert first.watchdog_fallbacks >= 1 and 0 not in first._matrices
        assert all(sibling.watchdog_fallbacks >= 1 for sibling in siblings)
        assert all(sibling.sync_rounds_completed >= 1 for sibling in siblings)
        # the siblings gathered from the table while shard 0 lacked the
        # pair, and their windows were filled once for all of them
        assert gathers.count(False) > 10
        assert chunked.engine["estimate_gathers"] <= self.windows_and_versions(
            chunked, 256
        )

    def test_a_row_filled_from_one_pair_is_never_served_to_another(
        self, monkeypatch
    ):
        """Shard 0 misses every other broadcast of instance 0, so it keeps
        routing on the older pair while its siblings hold the newer one:
        row 0 changes hands between live pairs, and each reader must get
        its own pair's estimates."""
        evaluated, reclaimed = record_table_fills(monkeypatch)
        stream = default_stream(seed=2, m=6_000, n=64, k=self.K)
        reference, chunked = run_pair(
            lambda recorder: DeafShard(
                self.SOURCES, small_config(16, mu=0.5), lambda n: n % 2 == 1
            ),
            stream, self.K, 256,
        )
        assert chunked.engine["path"] == "segment"
        assert_same_run(reference, chunked)
        assert len(reclaimed) > 10
        assert chunked.engine["estimate_evaluations"] == len(evaluated)

    def test_merging_shards_keep_private_copies_and_tables(self):
        """With ``merge_matrices`` every shard merges into a pair of its
        own: one shared object would take every merge once per shard."""
        config = small_config(16, mu=0.5, merge_matrices=True)
        stream = default_stream(seed=2, m=4_000, n=64, k=self.K)
        reference, chunked = run_pair(
            lambda recorder: Shadowed(self.SOURCES, config), stream, self.K, 256,
        )
        assert chunked.engine["path"] == "segment"
        assert_same_run(reference, chunked)
        policy = chunked.policy
        schedulers = policy.schedulers
        assert len({id(scheduler._table) for scheduler in schedulers}) == self.SOURCES
        assert policy.shadow.matrices_received == schedulers[0].matrices_received
        for instance in range(self.K):
            stored = [scheduler._matrices[instance] for scheduler in schedulers]
            expected = policy.shadow._matrices[instance]
            for pair in stored:
                np.testing.assert_array_equal(pair.freq.matrix, expected.freq.matrix)
                np.testing.assert_array_equal(pair.work.matrix, expected.work.matrix)
            assert len({id(pair) for pair in stored}) == self.SOURCES

    def test_pooled_estimates_sum_in_each_shards_own_order(self, monkeypatch):
        """Shard 0 hears instance 0 from its third broadcast on, so it
        stores instance 0 last and its siblings first: the pooled sums
        read one shared table in each shard's own order."""
        evaluated, _ = record_table_fills(monkeypatch)
        config = small_config(16, pooled_estimates=True)
        stream = default_stream(seed=3, m=4_000, n=64, k=self.K)
        reference, chunked = run_pair(
            lambda recorder: DeafShard(self.SOURCES, config, lambda n: n > 2),
            stream, self.K, 256,
        )
        assert chunked.engine["path"] == "segment"
        assert_same_run(reference, chunked)
        first, *siblings = chunked.policy.schedulers
        assert list(first._matrices)[-1] == 0
        assert all(list(sibling._matrices)[0] == 0 for sibling in siblings)
        assert all(sibling._table is first._table for sibling in siblings)
        assert first.sync_rounds_completed >= 1
        assert_evaluated_once_per_pair(evaluated, chunked.engine)


class TestNamedRegressions:
    @pytest.mark.parametrize(
        "coordination",
        [None, CoordinationConfig(gossip_stride=1)],
        ids=["plain", "coordinated"],
    )
    def test_segment_mixing_round_robin_and_greedy_shards(self, coordination):
        k, sources = 5, 3
        stream = default_stream(seed=2, m=3_000, n=64, k=k)
        config = small_config(16, coordination)
        reference, chunked = run_pair(
            lambda recorder: LateShard(sources, config), stream, k, 256,
            flight=FlightRecorderConfig(sample_every=4),
            lineage=LineageConfig(sample_every=5),
        )
        assert chunked.engine["path"] == "segment"
        assert_same_run(reference, chunked)
        first, late = chunked.policy.schedulers[0], chunked.policy.schedulers[-1]
        # the late shard routed round-robin for far longer than the
        # first shard did, and the first shard was greedy meanwhile
        assert late._rr_counter > first._rr_counter + 10 * k
        assert first.sync_rounds_completed >= 1
        assert late.sync_rounds_completed >= 1
        if coordination is not None:
            # gossip reached the late shard while it was bootstrapping
            assert chunked.policy.stats()["gossip_updates"] > 0

    def test_window_close_cuts_segment_mid_interleave_before_send_all(self):
        k, sources, window_size = 5, 3, 8
        # over-provisioned and with an instant control plane: a window
        # close's matrices land before the next arrival, so the close
        # cuts its segment and the very next tuple opens SEND_ALL
        stream = default_stream(
            seed=1, m=2_000, n=64, k=k, over_provisioning=4.0
        )
        config = small_config(window_size)
        reference, chunked = run_pair(
            lambda recorder: CursorLog(sources, config), stream, k, 512,
            control_latency=0.0, flight=FlightRecorderConfig(sample_every=64),
        )
        assert chunked.engine["path"] == "segment"
        assert_same_run(reference, chunked)
        assignments = chunked.stats.assignments
        served = [np.cumsum(assignments == i) for i in range(k)]
        send_all_starts = set()
        for shard, timeline in enumerate(chunked.flight.timelines()):
            for event in timeline:
                if event[0] == "sync_request":
                    send_all_starts.add(shard + (event[1] - 1) * sources)
        witnesses = [
            end
            for end in chunked.policy.segment_ends
            if end % sources != 0
            and end in send_all_starts
            and served[assignments[end - 1]][end - 1] % window_size == 0
        ]
        assert witnesses, "no window close cut a segment off the shard grid"
        assert chunked.engine["fallback_tuples"] >= sources * k

    def test_gossip_skips_zero_estimates(self):
        """Even ids execute in no time, so an id whose cells (64 ids over
        256 columns) only even ids reach estimates exactly 0.0, and a
        greedy pick of it gossips nothing: a kernel that gossiped it
        anyway would count (and bill) updates the per-tuple route never
        makes."""
        k, sources = 5, 3
        stream = default_stream(seed=2, m=3_000, n=64, k=k)
        stream = dataclasses.replace(
            stream,
            base_times=np.where(stream.items % 2 == 0, 0.0, stream.base_times),
            time_table=np.where(
                np.arange(stream.time_table.shape[0]) % 2 == 0,
                0.0, stream.time_table,
            ),
        )
        config = POSGConfig(
            window_size=32, rows=2, cols=256,
            coordination=CoordinationConfig(gossip_stride=1, snoop=False),
        )
        reference, chunked = run_pair(
            lambda recorder: MultiSourcePOSGGrouping(sources, config),
            stream, k, 256,
        )
        assert chunked.engine["path"] == "segment"
        assert_same_run(reference, chunked)
        greedy = sum(
            scheduler._tuples_scheduled - scheduler._rr_counter
            for scheduler in chunked.policy.schedulers
        )
        assert 0 < chunked.policy.stats()["gossip_updates"] < greedy

    def test_instance_ids_past_one_byte_fold_to_their_own_tracker(self):
        """The folds read instance ids back from the assignment buffer:
        at k = 300 an id that wrapped at 256 would fold into the wrong
        tracker (or none) and lose the tuple count."""
        k = 300
        stream = default_stream(seed=4, m=26_000, n=64, k=k)
        reference, chunked = run_pair(
            lambda recorder: MultiSourcePOSGGrouping(
                1, small_config(16, mu=0.5)
            ),
            stream, k, 2048,
        )
        assert chunked.engine["path"] == "segment"
        assert_same_run(reference, chunked)
        # round-robin and greedy segments both ran, and both reached the
        # instances a byte cannot name
        states = [state for _, state in chunked.state_transitions]
        assert SchedulerState.WAIT_ALL in states
        assert chunked.engine["estimate_evaluations"] > 0
        greedy_from = chunked.state_transitions[1][0]
        assert chunked.stats.assignments[:greedy_from].max() >= 256
        assert chunked.stats.assignments[greedy_from:].max() >= 256


    @pytest.mark.parametrize("sources", [1, 4])
    def test_colliding_observer_strides_share_one_schedule(self, sources):
        """All three observers at stride 2: at s = 1 every sample is a
        triple hit, at s = 4 flight and lineage bump to 3 and the merged
        schedule mixes single, double and triple hits — across a
        ROUND_ROBIN stretch, SEND_ALL stretches, sampled window
        boundaries and a scripted crash."""
        k, m, window_size = 5, 4_000, 16
        stream = default_stream(seed=3, m=m, n=64, k=k)
        reference, chunked = run_pair(
            lambda recorder: MultiSourcePOSGGrouping(
                sources, small_config(window_size)
            ),
            stream, k, 256,
            faults=FaultPlan(
                crashes=[CrashFault(1, float(stream.arrivals[2_500]), 10.0)]
            ),
            audit=AuditConfig(sample_every=2),
            flight=FlightRecorderConfig(sample_every=2),
            lineage=LineageConfig(sample_every=2),
        )
        assert chunked.engine["path"] == "segment"
        assert_same_run(reference, chunked)
        stride = 2 if sources == 1 else 3
        assert chunked.flight.sample_every == stride
        assert chunked.lineage.sample_every == stride
        assert chunked.audit.samples == m // 2
        spans = [
            span for lane in chunked.lineage.timelines() for span in lane
        ]
        routes = [
            event
            for lane in chunked.flight.timelines()
            for event in lane
            if event[0] == "route"
        ]
        assert len(spans) == len(routes) == -(-m // stride)
        # the run left ROUND_ROBIN after a sampled stretch, fell back to
        # the per-tuple step, closed windows on sampled tuples and
        # crossed the crash
        assert chunked.run_entry_index() > 2 * stride
        assert chunked.engine["fallback_tuples"] >= sources * k
        assert chunked.engine["cuts"]["crash"] == 1
        assert sum(span[7] == 1 for span in spans) > m // (window_size * stride) // 2


    def test_full_knowledge_around_a_user_oracle_stays_off_the_kernel(self):
        """Only the engine's own oracle is known to return the execution
        columns' floats: a user's oracle is asked per tuple."""

        def make_policy(recorder):
            return lambda oracle: FullKnowledgeGrouping(
                lambda item, instance: 1.0 + (item + instance) % 3
            )

        stream = default_stream(seed=3, m=1_000, n=64)
        reference, chunked = run_pair(
            make_policy, stream, 5, 64, lineage=LineageConfig(sample_every=3)
        )
        assert chunked.engine["path"] == "generic"
        assert chunked.engine["kernel"] is None
        assert_same_baseline_run(reference, chunked)

    def test_full_knowledge_on_base_times_off_the_time_table(self):
        """The oracle reads ``time_table``, service reads ``base_times``:
        when they disagree the kernel's estimate columns would be wrong."""
        drawn = default_stream(seed=3, m=1_000, n=64)
        stream = Stream(
            items=drawn.items, base_times=drawn.base_times[::-1].copy(),
            arrivals=drawn.arrivals, n=drawn.n, time_table=drawn.time_table,
        )
        reference, chunked = run_pair(
            BASELINES["full-knowledge"], stream, 5, 64, sample_queues_every=7
        )
        assert chunked.engine["path"] == "generic"
        assert_same_baseline_run(reference, chunked)

    def test_a_reused_round_robin_starts_at_instance_zero(self):
        policy = RoundRobinGrouping()
        stream = default_stream(seed=0, m=1_001, n=64)
        for chunk_size in (64, 0, 0, 64):
            result = simulate_stream(stream, policy, k=5, chunk_size=chunk_size)
            np.testing.assert_array_equal(
                result.stats.assignments, np.arange(stream.m) % 5
            )
            assert policy._counter == stream.m


class TestObserverArguments:
    """``audit=``/``flight=``/``lineage=`` are type-checked at the public
    boundary, before the policy is set up or the generator drawn from."""

    @pytest.mark.parametrize("run", [simulate_stream], ids=["sequential"])
    @pytest.mark.parametrize(
        "name,bad", [("audit", "x"), ("flight", 3), ("lineage", object())],
        ids=["audit", "flight", "lineage"],
    )
    def test_bad_argument_is_rejected_before_any_state_moves(self, run, name, bad):
        stream = default_stream(seed=0, m=64)
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        policy = MultiSourcePOSGGrouping(2, small_config())
        # pre-built observers left over from a three-shard deployment
        prebuilt = {
            "flight": FlightRecorder(FlightRecorderConfig()),
            "lineage": LineageTracer(LineageConfig()),
        }
        for observer in prebuilt.values():
            observer.bind(3)
        with pytest.raises(TypeError, match=name):
            run(stream, policy, k=5, rng=rng, **{**prebuilt, name: bad})
        assert rng.bit_generator.state == before
        with pytest.raises(RuntimeError, match="not set up"):
            policy.k
        assert all(observer.sources == 3 for observer in prebuilt.values())


class ConstantScenario:
    """A duck-typed scenario: the full contract, uniform instances."""

    k = 5

    def multiplier(self, instance, index):
        return 1.0

    def multiplier_matrix(self, m):
        return np.ones((m, self.k))


class NoMatrix:
    k = 5

    def multiplier(self, instance, index):
        return 1.0


class NoInstanceCount:
    multiplier = ConstantScenario.multiplier
    multiplier_matrix = ConstantScenario.multiplier_matrix


class ShortMatrix(ConstantScenario):
    def multiplier_matrix(self, m):
        return np.ones((m - 1, self.k))


class NarrowMatrix(ConstantScenario):
    def multiplier_matrix(self, m):
        return np.ones((m, self.k - 1))


class FlatMatrix(ConstantScenario):
    def multiplier_matrix(self, m):
        return np.ones(m * self.k)


class TestScenarioContract:
    """``k``, ``multiplier`` and ``multiplier_matrix(m)`` of shape
    ``(m, >= k)``, checked once at the boundary under either engine."""

    @pytest.mark.parametrize("chunk_size", [0, 2048])
    @pytest.mark.parametrize(
        "scenario,error,needle",
        [
            (NoMatrix(), TypeError, "multiplier_matrix"),
            (NoInstanceCount(), TypeError, "lacks k"),
            (ShortMatrix(), ValueError, "shape"),
            (NarrowMatrix(), ValueError, "shape"),
            (FlatMatrix(), ValueError, "shape"),
        ],
        ids=["no-matrix", "no-k", "short", "narrow", "flat"],
    )
    def test_bad_scenario_is_rejected_before_any_state_moves(
        self, scenario, error, needle, chunk_size
    ):
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        policy = MultiSourcePOSGGrouping(2, small_config())
        with pytest.raises(error, match=needle):
            simulate_stream(
                default_stream(seed=0, m=64), policy, k=5, scenario=scenario,
                rng=rng, chunk_size=chunk_size,
            )
        assert rng.bit_generator.state == before
        with pytest.raises(RuntimeError, match="not set up"):
            policy.k

    def test_duck_typed_scenario_takes_the_segment_path(self):
        stream = default_stream(seed=0, m=2_000, n=64)
        reference, chunked = run_pair(
            lambda recorder: MultiSourcePOSGGrouping(1, small_config()),
            stream, 5, 256, scenario=ConstantScenario(),
        )
        assert chunked.engine["path"] == "segment"
        assert_same_run(reference, chunked)


class TestFaultAndDefenceHorizons:
    """The fault and defence horizons at their edges (s = 1 unless said)."""

    K = 5

    def pair(self, config, plan, chunk_size, sources=1, m=6_000, **keywords):
        stream = default_stream(seed=0, m=m, n=128, k=self.K)
        if callable(plan):
            plan = plan(stream)
        reference, chunked = run_pair(
            lambda recorder: MultiSourcePOSGGrouping(
                sources, config, telemetry=recorder
            ),
            stream, self.K, chunk_size, recorded=True, faults=plan, **keywords,
        )
        assert chunked.engine["path"] == "segment"
        assert_same_run(reference, chunked)
        return chunked

    def test_crash_mid_window_with_a_pending_batch_on_the_crashed_instance(self):
        window_size = 64
        config = small_config(window_size)
        chunked = self.pair(
            config,
            lambda stream: FaultPlan(
                crashes=[CrashFault(2, float(stream.arrivals[3_333]), 20.0)]
            ),
            chunk_size=2_048,
        )
        assert chunked.engine["cuts"]["crash"] == 1
        # run_pair compared the traces, so the restart event's lifetime
        # count proves the batch landed before the tracker was wiped
        tracker = chunked.policy.tracker(2)
        assert tracker.restarts == 1
        executed_at_crash = int(np.sum(chunked.stats.assignments[:3_333] == 2))
        assert executed_at_crash % window_size != 0
        assert tracker.tuples_executed == int(
            np.sum(chunked.stats.assignments == 2)
        )

    @pytest.mark.parametrize("offset", [-1, 0, 1], ids=["edge", "last", "inside"])
    def test_defence_deadline_on_a_window_edge_and_on_a_last_index(self, offset):
        # Every reply is lost, so each round times out ``timeout`` tuples
        # after its SEND_ALL stretch, which is also where the next
        # chunk_size window opens: with chunk_size = timeout - 1 the
        # deadline tuple is the first past the window, with timeout the
        # window's last index, with timeout + 1 one short of it.
        timeout = 32
        config = small_config(
            64,
            recovery=RecoveryConfig(
                sync_timeout=timeout, sync_backoff=1.0, sync_timeout_max=timeout,
                sync_max_retries=2, staleness_limit=None,
            ),
        )
        chunked = self.pair(
            config, FaultPlan(sync_replies=MessageFaults(drop=1.0)),
            chunk_size=timeout + offset,
        )
        actions = defence_actions(chunked.policy)
        cuts = chunked.engine["cuts"]["defence"]
        assert actions > 10
        # a deadline tuple that opens a window cut no segment short
        assert cuts == (0 if offset < 0 else actions)

    def test_one_shard_retransmits_while_its_sibling_runs(self):
        config = small_config(
            256,
            recovery=RecoveryConfig(
                sync_timeout=100, sync_max_retries=8, staleness_limit=None
            ),
        )
        chunked = self.pair(
            config,
            FaultPlan(source_sync_replies={0: MessageFaults(drop=1.0)}),
            chunk_size=512, sources=2, m=12_000,
        )
        starved, served = chunked.policy.schedulers
        assert starved.sync_retransmits > 5 and starved.sync_rounds_completed == 0
        assert served.sync_rounds_completed > 3
        # what shard 1 was doing each time shard 0 re-entered SEND_ALL
        # (run_pair compared the two engines' traces already)
        sibling_state, seen = "round_robin", set()
        for event in chunked.policy.telemetry.tracer.events():
            if event["kind"] == "scheduler_state" and event["scheduler"] == 1:
                sibling_state = event["to"]
            elif event["kind"] == "sync_retransmit" and event["scheduler"] == 0:
                seen.add(sibling_state)
        assert "run" in seen

    def test_duplicated_reply_overtaking_the_original(self):
        config = small_config(64, recovery=RecoveryConfig(sync_timeout=512))
        chunked = self.pair(
            config,
            FaultPlan(
                sync_replies=MessageFaults(
                    duplicate=1.0, reorder=1.0, reorder_ms=60.0
                ),
                seed=2,
            ),
            chunk_size=512,
        )
        injected = chunked.faults.report()["injected"]
        scheduler = chunked.policy.scheduler
        assert injected["duplicated"]["sync_reply"] > 20
        assert injected["reordered"]["sync_reply"] > 20
        # whichever copy lands second is dropped as stale
        assert scheduler.stale_replies_dropped >= scheduler.deltas_folded > 0

    def test_watchdog_fallback_mid_window_regathers_the_block(self):
        # instance 2 goes silent behind a long outage, so the watchdog
        # drops its matrices in the middle of a 4096-tuple window
        config = small_config(
            32, recovery=RecoveryConfig(sync_timeout=4_096, staleness_limit=700)
        )
        chunked = self.pair(
            config,
            lambda stream: FaultPlan(
                crashes=[CrashFault(2, float(stream.arrivals[3_000]), 4_000.0)]
            ),
            chunk_size=4_096,
        )
        scheduler = chunked.policy.scheduler
        assert scheduler.watchdog_fallbacks >= 1
        assert chunked.engine["cuts"]["defence"] >= 1
        assert 2 * 6_000 // 4_096 < chunked.engine["estimate_gathers"]


class TestWindowRelativeColumns:
    """The loops index one window's lists by position in the window while
    folds, probes, crashes and transitions keep stream indices: every
    seam between the two, at window sizes that put the seams everywhere
    (1), off every other period (3, 7), on the default, on the stream's
    last tuple (m) and past it (m + 5)."""

    K = 5
    M = 1_200

    @pytest.mark.parametrize("sources", [1, 4])
    @pytest.mark.parametrize("chunk_size", [1, 3, 7, 2_048, M, M + 5])
    @pytest.mark.parametrize(
        "latency",
        # one shared column / per-instance columns
        ["constant", "per-instance-constants"],
    )
    def test_chunked_matches_reference(self, latency, chunk_size, sources):
        stream = default_stream(seed=2, m=self.M, n=64, k=self.K)
        arrivals = stream.arrivals
        # Before the first window close (instance 0's 32nd tuple is index
        # 155) nothing has moved the windows off the chunk_size grid.
        early = 96 // chunk_size * chunk_size
        later = self.M // 2 // chunk_size * chunk_size
        plan = FaultPlan(
            # each on a window's first index
            crashes=[
                CrashFault(1, float(arrivals[early]), 5.0),
                CrashFault(3, float(arrivals[later]), 200.0),
            ],
            sync_replies=MessageFaults(drop=0.2),
            seed=1,
        )
        reference, chunked = run_pair(
            lambda recorder: MultiSourcePOSGGrouping(
                sources, small_config(32, mu=1.0), telemetry=recorder
            ),
            stream, self.K, chunk_size, recorded=True,
            **latency_models(latency, self.K, 5, 1.0),
            sample_queues_every=13, faults=plan,
            # strides coprime to every chunk size above
            audit=AuditConfig(sample_every=11),
            flight=FlightRecorderConfig(sample_every=13),
            lineage=LineageConfig(sample_every=17),
        )
        assert chunked.engine["path"] == "segment"
        assert chunked.faults.report()["injected"]["crashes"] == 2
        assert any(
            state is SchedulerState.SEND_ALL
            for _, state in chunked.state_transitions
        )
        assert_same_run(reference, chunked)
        assert chunked.engine["windows"] >= -(-self.M // chunk_size)


class TestSingleSourceTakesTheSamePath:
    def run(self, make_policy, **keywords):
        stream = default_stream(seed=4, m=4_096, n=64)
        return simulate_stream(
            stream, make_policy(), k=5, rng=np.random.default_rng(3),
            sample_queues_every=100, **keywords,
        )

    @pytest.mark.parametrize("chunk_size", [0, 512])
    def test_multisource_of_one_is_posg_grouping(self, chunk_size):
        config = small_config(64)
        single = self.run(lambda: POSGGrouping(config), chunk_size=chunk_size)
        wrapped = self.run(
            lambda: MultiSourcePOSGGrouping(1, config), chunk_size=chunk_size
        )
        assert wrapped.engine == single.engine
        assert wrapped.engine["path"] == ("segment" if chunk_size else "reference")
        assert wrapped.run_entry_index() is not None
        for field in dataclasses.fields(single):
            if field.name in ("policy", "stats", "engine"):
                continue
            ours, theirs = getattr(single, field.name), getattr(wrapped, field.name)
            if isinstance(ours, np.ndarray):
                np.testing.assert_array_equal(ours, theirs)
            else:
                assert ours == theirs, field.name
        np.testing.assert_array_equal(
            single.stats.completions, wrapped.stats.completions
        )
        np.testing.assert_array_equal(
            single.stats.assignments, wrapped.stats.assignments
        )
        assert single.policy.scheduler.stats() == wrapped.policy.scheduler.stats()

    def test_trivial_subclass_keeps_the_segment_path(self):
        class Renamed(POSGGrouping):
            name = "posg_renamed"

        result = self.run(lambda: Renamed(small_config(64)))
        assert result.engine["path"] == "segment"

    def test_custom_route_is_disqualified_with_a_reason(self):
        class Pinned(POSGGrouping):
            def route(self, item):
                return dataclasses.replace(super().route(item), instance=0)

        result = self.run(lambda: Pinned(small_config(64)))
        assert result.engine["path"] == "generic"
        assert "route" in result.engine["reason"]
        assert result.engine["kernel"] is None


class TestEngineRecord:
    M = 8_192
    K = 5
    CHUNK = 1_024

    def run(self, policy, **keywords):
        stream = default_stream(seed=0, m=self.M, n=64)
        keywords.setdefault("chunk_size", self.CHUNK)
        return simulate_stream(
            stream, policy, k=self.K, rng=np.random.default_rng(1), **keywords
        )

    @pytest.mark.parametrize(
        "coordination,observers",
        [
            (None, {}),
            (CoordinationConfig(), {}),
            (
                None,
                {
                    "audit": AuditConfig(),
                    "flight": FlightRecorderConfig(),
                    "lineage": LineageConfig(),
                },
            ),
        ],
        ids=["sharded", "coordinated", "observed"],
    )
    def test_sharded_runs_take_the_segment_path(
        self, coordination, observers, monkeypatch
    ):
        sources = 4
        evaluated, reclaimed = record_table_fills(monkeypatch)
        policy = MultiSourcePOSGGrouping(sources, small_config(64, coordination))
        engine = self.run(policy, **observers).engine
        assert set(engine) == ENGINE_KEYS
        assert engine["path"] == "segment" and engine["reason"] is None
        assert 0 < engine["truncated_segments"] < engine["segments"]
        assert engine["fallback_tuples"] >= sources * self.K
        # service and tracker reports land after routing for every tuple
        # the per-tuple step did not serve on its own, lineage or not
        assert 0 < engine["serves"] <= engine["served_tuples"]
        assert engine["served_tuples"] == self.M - engine["fallback_tuples"]
        # with merging off the shards store the broadcast pairs and share
        # one estimate table, counted once: a window's ids are gathered
        # once per chunk_size window and matrices version for all shards
        # together, never per shard or per truncated segment, and each
        # (instance, id) is evaluated at most once per pair it shipped
        (table,) = {id(s._table): s._table for s in policy.schedulers}.values()
        windows = math.ceil(self.M / self.CHUNK)
        versions = max(s.matrices_version for s in policy.schedulers)
        assert engine["estimate_gathers"] <= windows + versions
        for count in ("gathers", "requests", "evaluations"):
            assert engine[f"estimate_{count}"] == getattr(table, count)
        assert engine["estimate_gathers"] < engine["segments"]
        assert_evaluated_once_per_pair(evaluated, engine)
        assert not reclaimed
        # the estimate table never evaluates what a fresh gather would not
        assert 0 < engine["estimate_evaluations"] <= engine["estimate_requests"]

    @pytest.mark.parametrize("sources", [1, 4])
    def test_the_estimate_table_saves_most_evaluations(self, sources, monkeypatch):
        """Paper defaults on a Zipf-1.0 stream: a window re-reads hot ids
        whose rows no delivery touched, and a fill evaluates an id once
        however many positions hold it, so most requested estimates are
        table reads: 0.125 of the requests at s = 1, and 0.129 at s = 4,
        where the shards share one table and each (instance, id) is
        evaluated at most once per shipped pair across all of them
        (0.238 when each shard kept its own table; 0.20 and 0.30 when a
        fill evaluated every position).  The s = 1 counts are pinned:
        nothing about a lone scheduler's table changed with sharing."""
        evaluated, _ = record_table_fills(monkeypatch)
        spec = StreamSpec(m=2**16, k=self.K)
        stream = generate_stream(
            ZipfItems(spec.n, 1.0), spec, np.random.default_rng(0)
        )
        policy = MultiSourcePOSGGrouping(sources, POSGConfig.paper_defaults())
        engine = simulate_stream(
            stream, policy, k=self.K, rng=np.random.default_rng(1)
        ).engine
        assert engine["path"] == "segment" and engine["estimate_gathers"] > 0
        assert engine["estimate_requests"] >= self.K * 2**15
        assert engine["estimate_evaluations"] <= 0.16 * engine["estimate_requests"]
        assert_evaluated_once_per_pair(evaluated, engine)
        if sources == 1:
            assert (
                engine["estimate_gathers"],
                engine["estimate_requests"],
                engine["estimate_evaluations"],
            ) == (32, 324_970, 40_728)

    def test_flight_recorded_single_scheduler_takes_the_segment_path(self):
        result = self.run(
            POSGGrouping(small_config(64)), flight=FlightRecorderConfig()
        )
        assert result.engine["path"] == "segment"

    @pytest.mark.parametrize(
        "make_policy,keywords",
        [
            (
                lambda: POSGGrouping(small_config(64)),
                {"faults": FaultPlan(seed=3, matrices=MessageFaults(drop=0.1))},
            ),
            (
                lambda: POSGGrouping(small_config(64, recovery=RecoveryConfig())),
                {},
            ),
            (
                lambda: MultiSourcePOSGGrouping(2, small_config(64)),
                {"data_latency": [0.0, 0.1, 0.2, 0.3, 0.4]},
            ),
        ],
        ids=["faults", "recovery", "per-instance-latency"],
    )
    def test_stock_posg_runs_take_the_segment_path(self, make_policy, keywords):
        """A fault plan and armed defences are segment horizons and data
        latencies one arrival column each."""
        engine = self.run(make_policy(), **keywords).engine
        assert set(engine) == ENGINE_KEYS
        assert engine["path"] == "segment" and engine["reason"] is None
        assert engine["segments"] > 0

    def test_other_loops_name_themselves(self):
        """The two baselines run the s = 1 kernel, one segment per
        window; the reference names itself and no kernel."""
        for result in (self.run(RoundRobinGrouping()), self.run(FullKnowledgeGrouping)):
            engine = result.engine
            assert set(engine) == ENGINE_KEYS
            assert engine["path"] == "segment" and engine["reason"] is None
            assert engine["kernel"] == "k=5 s=1"
            assert engine["segments"] == engine["windows"] == self.M // self.CHUNK
        reference = self.run(POSGGrouping(small_config(64)), chunk_size=0).engine
        assert reference["path"] == "reference"
        assert reference["reason"] is None
        assert reference["kernel"] is None
