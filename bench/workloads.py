"""The six benchmark workloads, on the top-level public API only.

Streams come from ``repro.workloads`` seeded with ``--seed``; the policy
rng uses ``seed + 1``.  Simulator workloads use ``k = 5``,
``chunk_size = 2048`` and Zipf-1.0 items with the paper's Section V-A
defaults.  ``bench/README.md`` records why each workload exists.

This module imports ``repro`` and numpy at import time, so the worker
imports it inside its timed set-up.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro import (
    CrashFault,
    FaultPlan,
    MessageFaults,
    POSGConfig,
    POSGGrouping,
    RecoveryConfig,
    TelemetryRecorder,
    ZipfItems,
    StreamSpec,
    generate_stream,
    generate_twitter_stream,
    simulate_stream,
)
from repro.core import MultiSourcePOSGGrouping
from repro.core.config import CoordinationConfig
from repro.storm import ClusterConfig, LocalCluster, POSGShuffleGrouping, TopologyBuilder
from repro.storm.components import STREAM_SPOUT_FIELDS, StreamSpout, WorkBolt
from repro.telemetry import AuditConfig, FlightRecorderConfig
from repro.telemetry.lineage import LineageConfig
from repro.workloads import TwitterDatasetSpec

K = 5
CHUNK_SIZE = 2048
SOURCES = 4
PAPER = POSGConfig.paper_defaults()
RECOVERY_ARMED = dataclasses.replace(PAPER, recovery=RecoveryConfig())
COORDINATED = dataclasses.replace(PAPER, coordination=CoordinationConfig())
#: Figure 12's prototype configuration (``experiments.figures.figure12_twitter``)
FIGURE12 = POSGConfig(
    window_size=128, rows=4, cols=54, merge_matrices=True, pooled_estimates=True
)

#: tuples per run.  One run takes 0.6-1.5 s on the 2-core box, so a
#: 10 s measurement holds 7-16 repetitions and its median is steady, and
#: the scheduler spends most of each run past its ROUND_ROBIN warm-up.
SIZES = {
    "fast_single": 2**18,
    "sharded_s4": 2**17,
    "coordinated_s4": 2**17,
    "faulted_recovery": 2**17,
    "observed_s4": 2**17,
    "storm_twitter": 30_000,
}
#: the workloads whose run reaches ``_run_posg`` and the block router; the
#: others route and fold tuple by tuple (the layer replay follows suit)
BLOCK_PATH = {"fast_single"}
#: chunked-vs-reference correctness stream.  2^15 and not 2^14: with
#: N = 1024 and k = 5 the scheduler leaves ROUND_ROBIN after ~16-21k
#: tuples, and a check that never reaches RUN checks little.
CHECK_M = 2**15
SMOKE_DIVISOR = 8


@dataclass
class Outcome:
    """What one run produced, in the same shape for both engines."""

    m: int
    #: completion time (simulated ms) of every tuple that completed
    completions: np.ndarray
    #: tuples without a finite completion, plus storm timeouts/failures
    failed: int
    control_bits: int
    control_messages: int
    #: the warmed POSG-family policy (layer replay drives its scheduler)
    policy: object
    #: ``SimulationResult`` or ``LocalCluster``, for per-layer counters
    detail: object

    def exact(self) -> dict:
        """The metrics that repeat bit for bit under one seed."""
        return {
            "avg_completion_ms": float(self.completions.mean()),
            "p99_completion_ms": float(np.percentile(self.completions, 99)),
            "control_bits_per_tuple": self.control_bits / self.m,
            "failed_share": self.failed / self.m,
        }


def fault_plan(stream) -> FaultPlan:
    """10% loss on every control channel and one crash of instance 2 at
    the stream's mid-point arrival time, out for 500 ms."""
    lossy = MessageFaults(drop=0.10)
    return FaultPlan(
        seed=3,
        matrices=lossy,
        sync_requests=lossy,
        sync_replies=lossy,
        crashes=(
            CrashFault(
                instance=2,
                at_ms=float(stream.arrivals[stream.m // 2]),
                outage_ms=500.0,
            ),
        ),
    )


class SimulatorWorkload:
    """``repro.simulate_stream`` over a Zipf-1.0 stream."""

    engine = "simulator"

    def __init__(self, name: str, seed: int, m: int, check_m: int) -> None:
        self.name = name
        self.seed = seed
        self.m = m
        self.check_m = check_m
        self.block_path = name in BLOCK_PATH
        self.stream = self.generate(m)

    def generate(self, m: int):
        spec = StreamSpec(m=m, k=K)
        return generate_stream(
            ZipfItems(spec.n, 1.0), spec, np.random.default_rng(self.seed)
        )

    def configure(self, stream) -> tuple[object, dict]:
        """A fresh policy and the ``simulate_stream`` keywords for it."""
        name = self.name
        if name == "fast_single":
            return POSGGrouping(PAPER), {}
        if name == "sharded_s4":
            return MultiSourcePOSGGrouping(SOURCES, PAPER), {}
        if name == "coordinated_s4":
            return MultiSourcePOSGGrouping(SOURCES, COORDINATED), {}
        if name == "faulted_recovery":
            return POSGGrouping(RECOVERY_ARMED), {"faults": fault_plan(stream)}
        if name == "observed_s4":
            recorder = TelemetryRecorder()
            policy = MultiSourcePOSGGrouping(SOURCES, PAPER, telemetry=recorder)
            return policy, {
                "telemetry": recorder,
                "audit": AuditConfig(),
                "flight": FlightRecorderConfig(),
                "lineage": LineageConfig(),
            }
        raise ValueError(f"unknown simulator workload {name!r}")

    def run(self, stream=None, chunk_size: int = CHUNK_SIZE) -> Outcome:
        stream = stream if stream is not None else self.stream
        policy, keywords = self.configure(stream)
        result = simulate_stream(
            stream,
            policy,
            k=K,
            rng=np.random.default_rng(self.seed + 1),
            chunk_size=chunk_size,
            **keywords,
        )
        completions = result.stats.completions
        return Outcome(
            m=stream.m,
            completions=completions,
            failed=int(np.count_nonzero(~np.isfinite(completions))),
            control_bits=result.control_bits,
            control_messages=result.control_messages,
            policy=result.policy,
            detail=result,
        )

    def check(self, outcome: Outcome) -> list[str]:
        """Chunked and reference engines must agree on a shorter stream."""
        problems = _finite(outcome)
        stream = self.generate(self.check_m)
        chunked = self.run(stream).detail
        reference = self.run(stream, chunk_size=0).detail
        for field in ("completions", "assignments"):
            if not np.array_equal(
                getattr(chunked.stats, field), getattr(reference.stats, field)
            ):
                problems.append(f"chunked and reference engines differ on {field}")
        for field in ("state_transitions", "control_messages", "control_bits"):
            if getattr(chunked, field) != getattr(reference, field):
                problems.append(f"chunked and reference engines differ on {field}")
        return problems


def run_storm(stream, grouping, seed: int) -> Outcome:
    """One ``StreamSpout`` -> ``WorkBolt`` x 5 topology run behind ``grouping``."""
    builder = TopologyBuilder()
    builder.set_spout(
        "source", lambda: StreamSpout(stream), output_fields=STREAM_SPOUT_FIELDS
    )
    builder.set_bolt(
        "worker", lambda: WorkBolt(stream.time_table, None), parallelism=K
    ).custom_grouping("source", grouping)
    cluster = LocalCluster(ClusterConfig(message_timeout=30_000.0, seed=seed))
    cluster.submit(builder.build())
    cluster.run()
    metrics = cluster.metrics
    completions = metrics.completion_latencies()
    return Outcome(
        m=stream.m,
        completions=completions,
        failed=(
            metrics.timed_out
            + metrics.failed
            + int(np.count_nonzero(~np.isfinite(completions)))
        ),
        control_bits=metrics.control_bits,
        control_messages=metrics.control_messages,
        policy=getattr(grouping, "policy", None),
        detail=cluster,
    )


class StormWorkload:
    """``repro.storm`` with ``POSGShuffleGrouping`` over the Twitter stream."""

    engine = "storm"
    block_path = False

    def __init__(self, name: str, seed: int, m: int, check_m: int) -> None:
        self.name = name
        self.seed = seed
        self.m = m
        self.stream = self.generate(m)

    def generate(self, m: int):
        return generate_twitter_stream(
            TwitterDatasetSpec(m=m, k=K), np.random.default_rng(self.seed)
        )

    def grouping(self):
        return POSGShuffleGrouping(
            "value", FIGURE12, np.random.default_rng(self.seed + 1)
        )

    def run(self, grouping=None) -> Outcome:
        """One run; the traced run passes its own timed ``grouping``."""
        return run_storm(
            self.stream, grouping if grouping is not None else self.grouping(),
            self.seed,
        )

    def check(self, outcome: Outcome) -> list[str]:
        problems = _finite(outcome)
        metrics = outcome.detail.metrics
        settled = metrics.completed + metrics.timed_out + metrics.failed
        if settled != metrics.emitted or metrics.emitted != outcome.m:
            problems.append(
                f"storm accounting: completed {metrics.completed} + timed out "
                f"{metrics.timed_out} + failed {metrics.failed} != emitted "
                f"{metrics.emitted} (m = {outcome.m})"
            )
        return problems


def _finite(outcome: Outcome) -> list[str]:
    if outcome.completions.size and np.all(np.isfinite(outcome.completions)):
        return []
    return ["not every completion time is finite"]


def build(name: str, seed: int, smoke: bool = False):
    """Generate the workload's stream and return the workload."""
    if name not in SIZES:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(SIZES)}")
    divisor = SMOKE_DIVISOR if smoke else 1
    cls = StormWorkload if name == "storm_twitter" else SimulatorWorkload
    return cls(name, seed, SIZES[name] // divisor, CHECK_M // divisor)
