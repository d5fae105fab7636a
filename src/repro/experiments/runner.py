"""Shared machinery for the figure experiments.

The paper's protocol (Section V-A): per configuration, generate 100
streams differing in the (randomized) item-to-execution-time association,
run every algorithm on each stream, and report min/mean/max.  This module
provides the seeded stream-replication loop and the three-way
POSG / Round-Robin / Full-Knowledge comparison on the fast simulator.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.bounds import COUNT, POSITIVE
from repro.core.config import POSGConfig
from repro.core.grouping import (
    FullKnowledgeGrouping,
    POSGGrouping,
    RoundRobinGrouping,
)
from repro.simulator.metrics import aggregate_runs
from repro.simulator.run import simulate_stream
from repro.workloads.nonstationary import LoadShiftScenario
from repro.workloads.synthetic import Stream


def env_reps(default: int = 5) -> int:
    """Repetitions per configuration; ``REPRO_REPS=100`` = paper scale."""
    return COUNT.check("REPRO_REPS", int(os.environ.get("REPRO_REPS", default)))


def env_scale(default: float = 1.0) -> float:
    """Stream-length scale factor (``REPRO_SCALE=1.0`` = paper sizes)."""
    return POSITIVE.check("REPRO_SCALE", float(os.environ.get("REPRO_SCALE", default)))


#: POSG configuration for the m = 32,768 parameter sweeps (Figures 4-9).
#:
#: Three deliberate deviations from Section V-A's N = 1024 per-instance
#: replace-mode setup, all documented and quantified in EXPERIMENTS.md
#: and tests/experiments/test_design_claims.py:
#:
#: - ``window_size=128`` — the ROUND_ROBIN bootstrap then covers ~4 % of
#:   the 32,768-tuple stream, comparable to the proportion the paper's
#:   own Figure 10 shows (RUN entry at 10,690 of 150,000 ≈ 7 %); with
#:   N = 1024 the bootstrap covers >60 % of a 32k stream and every sweep
#:   figure would mostly measure Round-Robin against itself.
#: - ``merge_matrices=True`` — the linear-sketch reading of Figure 3.F
#:   ("update local F and W"): estimates sharpen as the stream unfolds.
#: - ``pooled_estimates=True`` — with *uniform* instances (the setting of
#:   every sweep figure) all per-instance matrices estimate the same
#:   function; averaging them removes the cross-instance sampling noise
#:   that otherwise makes the greedy scheduler systematically favour
#:   under-estimating instances.  Figures 10-12 keep the paper's
#:   per-instance estimates (their instances are heterogeneous).
SWEEP_POSG_CONFIG = POSGConfig(
    window_size=128, rows=4, cols=54, mu=0.05,
    merge_matrices=True, pooled_estimates=True,
)

#: Faithful Section V-A configuration (used by the Figure 10/11 runs,
#: whose m = 150,000 stream matches the paper's bootstrap proportions).
PAPER_POSG_CONFIG = POSGConfig.paper_defaults()


@dataclass(frozen=True)
class ExperimentSettings:
    """Knobs shared by every figure run."""

    k: int = 5
    reps: int = field(default_factory=env_reps)
    base_seed: int = 1000
    posg_config: POSGConfig = SWEEP_POSG_CONFIG
    control_latency: float = 1.0
    data_latency: float = 0.0


@dataclass
class PolicyOutcome:
    """Per-policy per-stream results of one comparison."""

    #: average completion time L for each repetition
    completion_times: list[float] = field(default_factory=list)
    #: speedup over Round-Robin for each repetition
    speedups: list[float] = field(default_factory=list)

    def summary(self) -> dict[str, float]:
        """min/mean/max of L over the repetitions."""
        return aggregate_runs(self.completion_times)

    def speedup_summary(self) -> dict[str, float]:
        """min/mean/max of the speedup over the repetitions."""
        return aggregate_runs(self.speedups)


def default_policies(
    settings: ExperimentSettings,
) -> dict[str, Callable[[], object]]:
    """The paper's three algorithms as policy factories.

    ``full_knowledge`` is a factory taking the simulation oracle; the
    others ignore it.
    """
    return {
        "round_robin": lambda oracle: RoundRobinGrouping(),
        "posg": lambda oracle: POSGGrouping(settings.posg_config),
        "full_knowledge": lambda oracle: FullKnowledgeGrouping(oracle),
    }


def compare_policies(
    stream_factory: Callable[[np.random.Generator], Stream],
    settings: ExperimentSettings | None = None,
    scenario: LoadShiftScenario | None = None,
    policies: dict[str, Callable] | None = None,
) -> dict[str, PolicyOutcome]:
    """Run every policy on ``settings.reps`` freshly generated streams.

    All policies see the *same* stream within a repetition (paired
    comparison, as in the paper); streams differ across repetitions via
    the seeded generator chain.
    """
    settings = settings if settings is not None else ExperimentSettings()
    policies = policies if policies is not None else default_policies(settings)
    outcomes = {name: PolicyOutcome() for name in policies}
    for rep in range(settings.reps):
        stream_rng = np.random.default_rng(settings.base_seed + rep)
        stream = stream_factory(stream_rng)
        baseline_total: float | None = None
        for name, factory in policies.items():
            result = simulate_stream(
                stream,
                factory,
                k=settings.k,
                scenario=scenario,
                data_latency=settings.data_latency,
                control_latency=settings.control_latency,
                rng=np.random.default_rng(settings.base_seed + 7919 * (rep + 1)),
            )
            outcomes[name].completion_times.append(
                result.stats.average_completion_time
            )
            total = result.stats.total_completion_time
            if name == "round_robin":
                baseline_total = total
            if baseline_total is not None:
                outcomes[name].speedups.append(baseline_total / total)
            else:  # round_robin must come first for paired speedups
                outcomes[name].speedups.append(float("nan"))
    return outcomes
