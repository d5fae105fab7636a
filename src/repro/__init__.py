"""repro — Proactive Online Shuffle Grouping (POSG), reproduced.

A from-scratch Python implementation of

    N. Rivetti, E. Anceaume, Y. Busnel, L. Querzoni, B. Sericola.
    "Proactive Online Scheduling for Shuffle Grouping in Distributed
    Stream Processing Systems", MIDDLEWARE 2016.

Layers (see README.md / DESIGN.md):

- :mod:`repro.sketches`   — 2-universal hashing, Count-Min sketches;
- :mod:`repro.core`       — POSG itself: F/W matrices, the instance and
  scheduler state machines, the greedy online scheduler, grouping
  policies (POSG, Round-Robin, Full-Knowledge oracle, ...);
- :mod:`repro.simulator`  — discrete-event simulation of the scheduling
  stage (the substrate behind the paper's Figures 4-10);
- :mod:`repro.storm`      — a miniature Apache-Storm-like engine hosting
  POSG as a custom stream grouping (Figures 11-12);
- :mod:`repro.workloads`  — synthetic and Twitter-like stream generators;
- :mod:`repro.analysis`   — the paper's theorems, executable;
- :mod:`repro.experiments` — the harness regenerating every figure;
- :mod:`repro.telemetry`  — opt-in metrics registry, event tracing and
  run reports across all of the above (off by default, zero-cost when
  off);
- :mod:`repro.faults`     — seeded fault injection (control-message
  drop/delay/duplicate/reorder, instance crash-restarts)
  exercising the recovery defenses of
  :class:`~repro.core.config.RecoveryConfig`.
"""

from repro._version import __version__
from repro.core import (
    FWPair,
    FullKnowledgeGrouping,
    GroupingPolicy,
    InstanceTracker,
    POSGConfig,
    POSGGrouping,
    POSGScheduler,
    RecoveryConfig,
    RoundRobinGrouping,
)
from repro.faults import CrashFault, FaultInjector, FaultPlan, MessageFaults
from repro.simulator import CompletionStats, SimulationResult, simulate_stream
from repro.telemetry import (
    NULL_RECORDER,
    MetricsRegistry,
    RunReport,
    TelemetryRecorder,
    Tracer,
)
from repro.workloads import (
    Stream,
    StreamSpec,
    UniformItems,
    ZipfItems,
    generate_stream,
    generate_twitter_stream,
)

__all__ = [
    "__version__",
    "POSGConfig",
    "RecoveryConfig",
    "FaultPlan",
    "FaultInjector",
    "MessageFaults",
    "CrashFault",
    "POSGGrouping",
    "POSGScheduler",
    "InstanceTracker",
    "FWPair",
    "GroupingPolicy",
    "RoundRobinGrouping",
    "FullKnowledgeGrouping",
    "simulate_stream",
    "SimulationResult",
    "CompletionStats",
    "TelemetryRecorder",
    "NULL_RECORDER",
    "MetricsRegistry",
    "Tracer",
    "RunReport",
    "Stream",
    "StreamSpec",
    "UniformItems",
    "ZipfItems",
    "generate_stream",
    "generate_twitter_stream",
]
