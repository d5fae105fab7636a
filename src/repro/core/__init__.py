"""POSG — the paper's primary contribution.

This package implements Proactive Online Shuffle Grouping exactly as
described in Section III of the paper, split into engine-agnostic pieces:

- :class:`~repro.core.config.POSGConfig` — algorithm parameters
  (``epsilon``, ``delta``, window size ``N``, stability tolerance ``mu``).
- :class:`~repro.core.matrices.FWPair` — the two Count-Min matrices
  (frequencies ``F`` and cumulated execution times ``W``) sharing hash
  functions, with snapshotting and the relative-error criterion of Eq. 1.
- :class:`~repro.core.instance.InstanceTracker` — the operator-instance
  side: the START/STABILIZING finite state machine of Figure 2.
- :class:`~repro.core.scheduler.POSGScheduler` — the scheduler side: the
  ROUND_ROBIN/SEND_ALL/WAIT_ALL/RUN finite state machine of Figure 3,
  including the synchronization protocol.
- :mod:`~repro.core.gos` — the Greedy Online Scheduler and makespan
  utilities backing Theorem 4.2.
- :mod:`~repro.core.grouping` — engine-facing grouping policies
  (Round-Robin, POSG, Full Knowledge oracle, ...).
"""

from repro.core.config import POSGConfig, RecoveryConfig
from repro.core.matrices import FWPair
from repro.core.messages import MatricesMessage, SyncReply, SyncRequest
from repro.core.instance import InstanceTracker, InstanceState
from repro.core.scheduler import POSGScheduler, SchedulerState, SchedulingDecision
from repro.core.gos import greedy_online_schedule, makespan, opt_lower_bound
from repro.core.grouping import (
    GroupingPolicy,
    RoundRobinGrouping,
    KeyGrouping,
    FullKnowledgeGrouping,
    POSGGrouping,
)
from repro.core.multisource import MultiSourcePOSGGrouping
from repro.core.reactive import ReactiveGrouping

__all__ = [
    "POSGConfig",
    "RecoveryConfig",
    "FWPair",
    "MatricesMessage",
    "SyncRequest",
    "SyncReply",
    "InstanceTracker",
    "InstanceState",
    "POSGScheduler",
    "SchedulerState",
    "SchedulingDecision",
    "greedy_online_schedule",
    "makespan",
    "opt_lower_bound",
    "GroupingPolicy",
    "RoundRobinGrouping",
    "KeyGrouping",
    "FullKnowledgeGrouping",
    "POSGGrouping",
    "MultiSourcePOSGGrouping",
    "ReactiveGrouping",
]
