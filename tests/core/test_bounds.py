"""One refusal walk over every declared config bound (``repro.bounds``).

Every numeric field of a config dataclass declares its type and range
with ``integer(...)`` / ``real(...)``; ``check_bounds`` enforces them at
construction.  This walk derives each field's refusals from its own
declaration, so a new knob is covered the moment it is declared, and the
guard at the bottom fails when a numeric field is left undeclared.
"""

import dataclasses
import importlib
import math
import pkgutil

import numpy as np
import pytest

import repro
from repro.bounds import BOUND, Bound
from repro.analysis.estimation import (
    expected_estimator_ratio,
    independent_rows_bound,
    markov_tail_bound,
)
from repro.analysis.queueing import utilization
from repro.core.config import CoordinationConfig, POSGConfig, RecoveryConfig
from repro.core.gos import adversarial_sequence, greedy_online_schedule, opt_lower_bound
from repro.core.grouping import POSGGrouping, RoundRobinGrouping
from repro.core.instance import InstanceTracker
from repro.core.multisource import MultiSourcePOSGGrouping
from repro.core.reactive import ReactiveGrouping
from repro.core.scheduler import POSGScheduler
from repro.faults.plan import CrashFault, FaultPlan, MessageFaults
from repro.simulator.metrics import CompletionStats
from repro.simulator.run import simulate_stream
from repro.simulator.topology import StageTopology
from repro.sketches.count_min import CountMinSketch, dims_for
from repro.sketches.hashing import TwoUniversalHashFamily, random_hash_family
from repro.storm.acker import AckTracker
from repro.storm.cluster import ClusterConfig
from repro.storm.topology import TopologyBuilder
from repro.telemetry.audit import AuditConfig
from repro.telemetry.dashboard import LiveDashboard
from repro.telemetry.flightrecorder import FlightRecorder, FlightRecorderConfig
from repro.telemetry.lineage import LineageConfig, LineageTracer, SLOConfig
from repro.telemetry.quality import compute_quality
from repro.telemetry.tracer import Tracer
from repro.workloads.distributions import UniformItems, ZipfItems
from repro.workloads.exectime import ExecutionTimeModel, execution_time_values
from repro.workloads.nonstationary import LoadShiftScenario
from repro.workloads.synthetic import Stream, StreamSpec, default_stream
from repro.workloads.twitter import TwitterDatasetSpec

#: every class with declared bounds -> keyword arguments that construct
#: it and leave each closed bound reachable alone (cross-field rules hold)
CLASSES = {
    POSGConfig: {},
    RecoveryConfig: {"sync_timeout": 1},
    CoordinationConfig: {},
    FlightRecorderConfig: {},
    LineageConfig: {},
    SLOConfig: {"name": "p99", "latency_ms": 10.0},
    AuditConfig: {},
    MessageFaults: {"delay_ms": 1.0},
    CrashFault: {"instance": 0, "at_ms": 0.0},
    StreamSpec: {},
    TwitterDatasetSpec: {},
    ClusterConfig: {},
    TwoUniversalHashFamily: {"a": (1,), "b": (0,), "cols": 4},
    Stream: {
        "items": np.zeros(2, dtype=np.int64),
        "base_times": np.ones(2),
        "arrivals": np.zeros(2),
        "n": 1,
        "time_table": np.ones(1),
    },
}

#: numeric fields of ``__post_init__`` dataclasses that declare no bound
EXEMPT = {
    "repro.faults.plan.FaultPlan.seed": "a seed: numpy's default_rng judges it",
    "repro.storm.cluster.ClusterConfig.seed": "a seed: numpy's default_rng judges it",
    "repro.telemetry.audit._Segment": "running tallies the audit updates, never input",
}

DECLARED = [
    (cls, spec.name, spec.metadata[BOUND])
    for cls in CLASSES
    for spec in dataclasses.fields(cls)
    if BOUND in spec.metadata
]
INTEGERS = [case for case in DECLARED if case[2].kind is int]
REALS = [case for case in DECLARED if case[2].kind is float]


def _id(case) -> str:
    return f"{case[0].__name__}.{case[1]}"


def build(cls, name, value):
    return cls(**{**CLASSES[cls], name: value})


def valid_value(cls, name, bound):
    spec = {f.name: f for f in dataclasses.fields(cls)}[name]
    if name in CLASSES[cls]:
        return CLASSES[cls][name]
    if spec.default not in (dataclasses.MISSING, None):
        return spec.default
    return bound.low + 1


def outside(bound: Bound):
    """Values just outside each finite end of ``bound``."""
    below, above = [], []
    if bound.low is not None:
        below = [
            bound.low if bound.open_low
            else bound.low - 1 if bound.kind is int
            else math.nextafter(bound.low, -math.inf)
        ]
    if bound.high is not None:
        above = [
            bound.high if bound.open_high
            else bound.high + 1 if bound.kind is int
            else math.nextafter(bound.high, math.inf)
        ]
    return below + above


def closed_ends(bound: Bound):
    ends = []
    if bound.low is not None and not bound.open_low:
        ends.append(bound.low)
    if bound.high is not None and not bound.open_high:
        ends.append(bound.high)
    return ends


class TestRefusalWalk:
    @pytest.mark.parametrize("case", INTEGERS, ids=_id)
    @pytest.mark.parametrize("value", [2.5, np.float64(3.0), True, "3"])
    def test_non_integer_raises_type_error_naming_the_field(self, case, value):
        cls, name, _ = case
        with pytest.raises(TypeError, match=f"^{name} must be an integer"):
            build(cls, name, value)

    @pytest.mark.parametrize("case", REALS, ids=_id)
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_real_raises_value_error_naming_the_field(self, case, value):
        cls, name, _ = case
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            build(cls, name, value)

    @pytest.mark.parametrize("case", REALS, ids=_id)
    @pytest.mark.parametrize("value", [True, "3"])
    def test_non_real_raises_type_error_naming_the_field(self, case, value):
        cls, name, _ = case
        with pytest.raises(TypeError, match=f"^{name} must be a real number"):
            build(cls, name, value)

    @pytest.mark.parametrize("case", DECLARED, ids=_id)
    def test_just_outside_a_bound_raises_value_error(self, case):
        cls, name, bound = case
        for value in outside(bound):
            with pytest.raises(ValueError, match=f"^{name} must be "):
                build(cls, name, value)

    @pytest.mark.parametrize("case", DECLARED, ids=_id)
    def test_closed_ends_and_optional_none_are_accepted(self, case):
        cls, name, bound = case
        accepted = closed_ends(bound) + ([None] if bound.optional else [])
        for value in accepted:
            assert getattr(build(cls, name, value), name) == value

    @pytest.mark.parametrize("case", INTEGERS, ids=_id)
    def test_numpy_integer_is_stored_as_int(self, case):
        cls, name, bound = case
        value = valid_value(cls, name, bound)
        stored = getattr(build(cls, name, np.int64(value)), name)
        assert type(stored) is int and stored == value

    @pytest.mark.parametrize("case", REALS, ids=_id)
    def test_reals_are_stored_unchanged(self, case):
        cls, name, bound = case
        value = np.float64(valid_value(cls, name, bound))
        assert getattr(build(cls, name, value), name) is value


class TestMeasuredCases:
    """The cases that reached a run before the bounds were declared."""

    @pytest.mark.parametrize(
        "cls, kwargs",
        [
            (POSGConfig, {"window_size": 64.5}),
            (POSGConfig, {"rows": 2.5}),
            (RecoveryConfig, {"staleness_limit": 500.5}),
            (RecoveryConfig, {"sync_timeout": 100.5}),
            (CoordinationConfig, {"gossip_stride": 2.5}),
            (FlightRecorderConfig, {"sample_every": 3.5}),
            (LineageConfig, {"sample_every": 3.5}),
            (AuditConfig, {"sample_every": 3.5}),
            (StreamSpec, {"m": 100.5}),
        ],
    )
    def test_fractional_integers(self, cls, kwargs):
        (name,) = kwargs
        with pytest.raises(TypeError, match=f"^{name} must be an integer"):
            cls(**kwargs)

    @pytest.mark.parametrize(
        "build_it, name",
        [
            (lambda: POSGConfig(mu=math.nan), "mu"),
            (lambda: RecoveryConfig(sync_backoff=math.nan), "sync_backoff"),
            (lambda: StreamSpec(over_provisioning=math.nan), "over_provisioning"),
            (lambda: ClusterConfig(message_timeout=math.nan), "message_timeout"),
            (lambda: ClusterConfig(transfer_latency=math.nan), "transfer_latency"),
            (lambda: MessageFaults(delay_ms=math.nan), "delay_ms"),
            (lambda: MessageFaults(reorder_ms=math.inf), "reorder_ms"),
            (lambda: CrashFault(instance=0, at_ms=math.nan), "at_ms"),
            (lambda: SLOConfig("a", math.inf), "latency_ms"),
        ],
    )
    def test_non_finite_reals(self, build_it, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            build_it()

    @pytest.mark.parametrize(
        "build_it, message",
        [
            (lambda: RecoveryConfig(sync_timeout=0), "sync_timeout must be >= 1, got 0"),
            (
                lambda: RecoveryConfig(staleness_limit=0),
                "staleness_limit must be >= 1 or None, got 0",
            ),
            (lambda: POSGConfig(epsilon=0.0), "epsilon must be in (0, 1], got 0.0"),
            (lambda: POSGConfig(delta=1.0), "delta must be in (0, 1), got 1.0"),
            (lambda: POSGConfig(mu=-1.0), "mu must be >= 0, got -1.0"),
            (
                lambda: SLOConfig("a", 1.0, percentile=100.0),
                "percentile must be in (0, 100), got 100.0",
            ),
            (lambda: MessageFaults(drop=1.5), "drop must be in [0, 1], got 1.5"),
        ],
    )
    def test_range_messages_keep_their_wording(self, build_it, message):
        with pytest.raises(ValueError) as refusal:
            build_it()
        assert str(refusal.value) == message

    def test_staleness_limit_500_5_never_reaches_an_engine(self):
        """It used to run: 481.97 ms on the reference engine, 458.65 ms on
        the chunked one (the watchdog acting one tuple apart)."""
        with pytest.raises(TypeError, match="^staleness_limit must be an integer"):
            POSGConfig(recovery=RecoveryConfig(staleness_limit=500.5))

    def test_defence_deadlines_agree_across_engines_at_an_integer_limit(self):
        """The tick and the segment deadline read one rule: both engines
        fall back and retransmit on the same tuples."""
        config = POSGConfig(
            window_size=32,
            mu=0.3,
            recovery=RecoveryConfig(
                sync_timeout=50, sync_timeout_max=200, staleness_limit=200,
                rebroadcast_windows=None,
            ),
        )
        plan = FaultPlan(
            matrices=MessageFaults(drop=0.3), sync_replies=MessageFaults(drop=0.3), seed=1
        )
        stream = default_stream(seed=4, m=8_000)
        reference, chunked = (
            simulate_stream(
                stream, POSGGrouping(config), k=5, chunk_size=chunk_size,
                faults=plan, rng=np.random.default_rng(9),
            )
            for chunk_size in (0, 512)
        )
        stats = reference.policy.scheduler.stats()
        assert stats["watchdog_fallbacks"] > 0 and stats["sync_retransmits"] > 0
        assert chunked.engine["cuts"]["defence"] > 0
        assert chunked.policy.scheduler.stats() == stats
        assert np.array_equal(reference.stats.completions, chunked.stats.completions)
        assert np.array_equal(reference.stats.assignments, chunked.stats.assignments)


class TestSequenceElementsAndKeys:
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_load_shift_multipliers(self, value):
        with pytest.raises(ValueError, match="^multipliers must be"):
            LoadShiftScenario(phases=((1.0, value),), boundaries=())

    @pytest.mark.parametrize("value", [math.nan, 0.0])
    def test_audit_tail_thresholds(self, value):
        with pytest.raises(ValueError, match="^tail_thresholds_ms must be"):
            AuditConfig(tail_thresholds_ms=(value,))

    @pytest.mark.parametrize(
        "name", ["source_sync_requests", "source_sync_replies"]
    )
    def test_fault_plan_override_keys(self, name):
        faults = MessageFaults(drop=0.5)
        plan = FaultPlan(**{name: {np.int64(1): faults, 0: faults}})
        overrides = getattr(plan, name)
        assert overrides == ((0, faults), (1, faults))
        assert all(type(source) is int for source, _ in overrides)
        for key in (True, 1.0):
            with pytest.raises(TypeError, match=f"^{name} keys must be an integer"):
                FaultPlan(**{name: {key: faults}})
        with pytest.raises(ValueError, match=f"^{name} keys must be >= 0"):
            FaultPlan(**{name: ((-1, faults),)})


#: integer arguments checked outside a config dataclass:
#: (argument name, call taking the value, a valid value)
INTEGER_ARGUMENTS = [
    ("k", lambda v: greedy_online_schedule([1.0, 2.0], v), 2),
    ("k", lambda v: opt_lower_bound([1.0, 2.0], v), 2),
    ("k", lambda v: adversarial_sequence(v), 2),
    ("k", lambda v: RoundRobinGrouping().setup(v), 2),
    ("k", lambda v: POSGScheduler(v, POSGConfig()), 2),
    ("k", lambda v: StageTopology(v, RoundRobinGrouping), 2),
    ("instance_id", lambda v: _tracker(v), 0),
    ("sources", lambda v: MultiSourcePOSGGrouping(v), 2),
    ("sources", lambda v: FlightRecorder().bind(v), 2),
    ("sources", lambda v: LineageTracer().bind(v), 2),
    ("report_interval", lambda v: ReactiveGrouping(v), 8),
    ("capacity", lambda v: Tracer(v), 8),
    ("rows", lambda v: random_hash_family(v, 4, np.random.default_rng(0)), 2),
    ("cols", lambda v: random_hash_family(2, v, np.random.default_rng(0)), 4),
    ("bin_size", lambda v: CompletionStats(np.ones(4), np.zeros(4, int)).time_series(v), 2),
    ("m", lambda v: UniformItems(8).sample(v, np.random.default_rng(0)), 4),
    ("n", lambda v: UniformItems(v), 8),
    ("w_n", lambda v: execution_time_values(v, 1.0, 4.0), 4),
    ("n", lambda v: ExecutionTimeModel(v, w_n=4, rng=np.random.default_rng(0)), 8),
    ("cols", lambda v: expected_estimator_ratio(1.0, [1.0, 2.0, 3.0], v), 4),
    ("rows", lambda v: independent_rows_bound(0.5, v), 2),
    ("servers", lambda v: utilization(1.0, 0.5, v), 2),
    ("window", lambda v: compute_quality(np.zeros(8, int), np.ones((8, 2)), 2, v), 4),
    ("parallelism", lambda v: TopologyBuilder().set_spout("s", object, v), 2),
    ("parallelism", lambda v: TopologyBuilder().set_bolt("b", object, v), 2),
]

#: real arguments checked outside a config dataclass
REAL_ARGUMENTS = [
    ("epsilon", lambda v: dims_for(v, 0.5), 0.5),
    ("delta", lambda v: dims_for(0.5, v), 0.5),
    ("factor", lambda v: CountMinSketch(_hashes()).scale(v), 0.5),
    ("q", lambda v: CompletionStats(np.ones(4), np.zeros(4, int)).percentile(v), 50.0),
    ("threshold", lambda v: markov_tail_bound(1.0, v), 2.0),
    ("row_probability", lambda v: independent_rows_bound(v, 2), 0.5),
    ("interval", lambda v: LiveDashboard(None, interval=v), 0.5),
    ("message_timeout", lambda v: AckTracker(v), 0.5),
    ("data_latency", lambda v: _simulate(simulate_stream, data_latency=v), 0.5),
    ("control_latency", lambda v: _simulate(simulate_stream, control_latency=v), 0.5),
    ("data_latency", lambda v: _simulate(simulate_stream, chunk_size=0, data_latency=v), 0.5),
    (
        "control_latency",
        lambda v: _simulate(simulate_stream, chunk_size=0, control_latency=v),
        0.5,
    ),
    ("data_latency", lambda v: StageTopology(2, RoundRobinGrouping, data_latency=v), 0.5),
    (
        "control_latency",
        lambda v: StageTopology(2, RoundRobinGrouping, control_latency=v),
        0.5,
    ),
    ("alpha", lambda v: ZipfItems(8, v), 0.5),
]


def _tracker(instance_id):
    config = POSGConfig(rows=2, cols=4)
    return InstanceTracker(instance_id, config, _hashes())


def _hashes():
    return random_hash_family(2, 4, np.random.default_rng(0))


def _simulate(engine, **options):
    """A 64-tuple sharded run at s = 1 through ``engine``; ``chunk_size=0``
    in ``options`` selects the per-tuple reference engine."""
    return engine(
        default_stream(seed=0, m=64), MultiSourcePOSGGrouping(1), k=2,
        **options,
    )


def _arg_id(case) -> str:
    return case[0]


class TestArgumentChecks:
    """Counts, indices and rates passed to functions and constructors go
    through the same :class:`~repro.bounds.Bound` as the config fields."""

    @pytest.mark.parametrize("case", INTEGER_ARGUMENTS, ids=_arg_id)
    def test_fractional_integer_raises_type_error_naming_the_argument(self, case):
        name, call, _ = case
        with pytest.raises(TypeError, match=f"^{name} must be an integer"):
            call(2.5)

    @pytest.mark.parametrize("case", INTEGER_ARGUMENTS, ids=_arg_id)
    def test_numpy_integer_is_accepted(self, case):
        _, call, valid = case
        call(np.int64(valid))

    @pytest.mark.parametrize("case", REAL_ARGUMENTS, ids=_arg_id)
    def test_non_finite_and_non_real_are_refused(self, case):
        name, call, valid = case
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            call(math.nan)
        with pytest.raises(TypeError, match=f"^{name} must be a real number"):
            call("x")
        call(np.float64(valid))


def _numeric(annotation) -> bool:
    text = annotation if isinstance(annotation, str) else str(annotation)
    names = {part.strip(" '\"") for part in text.split("|")} - {"None"}
    return bool(names) and names <= {"int", "float"}


def _validated_dataclasses():
    """Every dataclass under ``repro`` that has a ``__post_init__``."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        for cls in vars(module).values():
            if (
                isinstance(cls, type)
                and dataclasses.is_dataclass(cls)
                and cls.__module__ == module.__name__
                and hasattr(cls, "__post_init__")
            ):
                yield cls


class TestGuard:
    def test_every_numeric_field_declares_its_bound(self):
        undeclared, seen = [], set()
        for cls in _validated_dataclasses():
            where = f"{cls.__module__}.{cls.__qualname__}"
            seen.add(where)
            for spec in dataclasses.fields(cls):
                key = f"{where}.{spec.name}"
                seen.add(key)
                if _numeric(spec.type) and BOUND not in spec.metadata:
                    if key not in EXEMPT and where not in EXEMPT:
                        undeclared.append(key)
        assert undeclared == [], "declare with repro.bounds.integer/real or exempt"
        assert set(EXEMPT) <= seen, "an exemption names nothing"

    def test_the_walk_covers_every_class_with_declared_bounds(self):
        declaring = {
            cls
            for cls in _validated_dataclasses()
            if any(BOUND in spec.metadata for spec in dataclasses.fields(cls))
        }
        assert declaring == set(CLASSES)
