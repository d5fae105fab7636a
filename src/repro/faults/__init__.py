"""Seeded, deterministic fault injection for the POSG control plane.

The paper's protocol (Figure 3) is specified for a reliable network;
this package supplies the adversary that the recovery defenses in
:class:`~repro.core.scheduler.POSGScheduler` (armed via
:class:`~repro.core.config.RecoveryConfig`) are measured against:

- :class:`~repro.faults.plan.FaultPlan` — a frozen, validated
  description of what goes wrong: per-kind drop/delay/duplicate/reorder
  probabilities for control messages and scripted instance
  crash-restarts.
- :class:`~repro.faults.injector.FaultInjector` — the seeded runtime
  that turns the plan into concrete fault decisions, counts them, and
  traces them through telemetry.

Both simulator engines (``simulator/run.py``) accept an injector; with
the plan inactive they skip the interposition entirely, preserving
bit-identical fault-free behaviour.  ``python -m repro.experiments chaos`` runs the packaged
recovery-timeline scenario.
"""

from repro.faults.plan import (
    CrashFault,
    FaultPlan,
    MessageFaults,
    NO_FAULTS,
)
from repro.faults.injector import FaultInjector

__all__ = [
    "CrashFault",
    "FaultInjector",
    "FaultPlan",
    "MessageFaults",
    "NO_FAULTS",
]
