"""Declarative fault plans: *what* goes wrong, when, and how often.

A :class:`FaultPlan` is a frozen, fully-validated description of the
faults to inject into one run — per-message-kind probabilities for the
control plane plus scripted at-time events for the instances.  It holds
no mutable state and draws no randomness itself; pairing a plan with a
seed-derived generator is the job of
:class:`~repro.faults.injector.FaultInjector`, which keeps runs
deterministic: the same plan, seed and workload produce the same faults.

The model follows the failure assumptions of the paper's evaluation
(Figure 10 is a recovery-timeline experiment) and of the systems POSG
targets: control messages ride an asynchronous network that may drop,
delay, duplicate or reorder them, and operator instances may crash
(losing their in-memory ``F``/``W`` matrices and ``C_op``).  A slow
instance is not a fault: it is a
:class:`~repro.workloads.nonstationary.LoadShiftScenario` phase.  Data
tuples are *not* faulted — shuffle grouping sits on the data path, and
the point of the subsystem is to stress the control plane underneath
it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bounds import INDEX, check_bounds, integer, real


@dataclass(frozen=True)
class MessageFaults:
    """Per-kind control-message fault probabilities.

    Each probability is evaluated independently per message:
    ``drop`` discards it, ``duplicate`` delivers a second copy,
    ``delay`` adds a fixed ``delay_ms``, and ``reorder`` adds a
    uniform random extra latency in ``[0, reorder_ms)`` (which is what
    actually reorders messages relative to each other).
    """

    drop: float = real(0.0, low=0, high=1)
    duplicate: float = real(0.0, low=0, high=1)
    delay: float = real(0.0, low=0, high=1)
    delay_ms: float = real(0.0, low=0)
    reorder: float = real(0.0, low=0, high=1)
    reorder_ms: float = real(8.0, low=0)

    def __post_init__(self) -> None:
        check_bounds(self)
        if self.delay > 0.0 and self.delay_ms == 0.0:
            raise ValueError("delay > 0 requires delay_ms > 0")

    @property
    def active(self) -> bool:
        """Whether any fault can fire for this message kind."""
        return (
            self.drop > 0.0
            or self.duplicate > 0.0
            or self.delay > 0.0
            or self.reorder > 0.0
        )

    def summary(self) -> dict:
        """Plain-dict form for run reports."""
        return {
            "drop": self.drop,
            "duplicate": self.duplicate,
            "delay": self.delay,
            "delay_ms": self.delay_ms,
            "reorder": self.reorder,
            "reorder_ms": self.reorder_ms,
        }


@dataclass(frozen=True)
class CrashFault:
    """Scripted crash-restart of one operator instance.

    At virtual time ``at_ms`` the instance loses all in-memory state
    (matrices, snapshot, ``C_op`` — see ``InstanceTracker.restart``) and
    stays down for ``outage_ms`` before the new incarnation starts
    executing again.
    """

    instance: int = integer(low=0)
    at_ms: float = real(low=0)
    outage_ms: float = real(0.0, low=0)

    def __post_init__(self) -> None:
        check_bounds(self)

    def summary(self) -> dict:
        """Plain-dict form for run reports."""
        return {
            "instance": self.instance,
            "at_ms": self.at_ms,
            "outage_ms": self.outage_ms,
        }


#: a MessageFaults with every probability at zero (the default)
NO_FAULTS = MessageFaults()


@dataclass(frozen=True)
class FaultPlan:
    """Complete fault description for one run.

    Parameters
    ----------
    matrices, sync_requests, sync_replies:
        Per-kind control-plane fault probabilities.  Piggy-backed
        :class:`~repro.core.messages.SyncRequest` messages ride on data
        tuples, so only their ``drop`` probability applies (delaying or
        duplicating the carrying tuple would fault the data plane).
    source_sync_requests, source_sync_replies:
        Per-*scheduler* overrides for multi-source deployments (see
        :class:`~repro.core.multisource.MultiSourcePOSGGrouping`): a
        mapping from scheduler shard id to :class:`MessageFaults`,
        applied instead of the global probability for messages carrying
        that ``source`` tag.  Shards without an entry use the global
        channel.  Matrices messages are a *broadcast* channel (the
        fan-out to the shards happens inside the policy, past the
        network the injector models), so they have no per-scheduler
        override.  Accepts a dict for convenience; stored as a sorted
        tuple of ``(source, faults)`` pairs.
    crashes:
        Scripted :class:`CrashFault` events, any order (the injector
        sorts them by time).
    seed:
        Seed for the injector's private random generator; the same plan
        and seed reproduce the same fault sequence.
    """

    matrices: MessageFaults = NO_FAULTS
    sync_requests: MessageFaults = NO_FAULTS
    sync_replies: MessageFaults = NO_FAULTS
    source_sync_requests: tuple[tuple[int, MessageFaults], ...] = ()
    source_sync_replies: tuple[tuple[int, MessageFaults], ...] = ()
    crashes: tuple[CrashFault, ...] = field(default_factory=tuple)
    seed: int = 0

    @staticmethod
    def _normalize_overrides(name: str, overrides) -> tuple:
        mapping = isinstance(overrides, dict)
        overrides = tuple(
            (INDEX.check(f"{name} keys", source), faults)
            for source, faults in (overrides.items() if mapping else overrides)
        )
        if mapping:
            overrides = tuple(sorted(overrides))
        for _, faults in overrides:
            if not isinstance(faults, MessageFaults):
                raise TypeError(
                    f"{name} values must be MessageFaults, got {faults!r}"
                )
        if len({source for source, _ in overrides}) != len(overrides):
            raise ValueError(f"{name} has duplicate scheduler ids")
        return overrides

    def __post_init__(self) -> None:
        # accept lists for convenience, store tuples (frozen dataclass)
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(
            self,
            "source_sync_requests",
            self._normalize_overrides(
                "source_sync_requests", self.source_sync_requests
            ),
        )
        object.__setattr__(
            self,
            "source_sync_replies",
            self._normalize_overrides(
                "source_sync_replies", self.source_sync_replies
            ),
        )
        for crash in self.crashes:
            if not isinstance(crash, CrashFault):
                raise TypeError(f"crashes must hold CrashFault, got {crash!r}")

    @property
    def active(self) -> bool:
        """Whether this plan can inject anything at all.

        An inactive plan is the contract behind the bit-identity
        guarantee: engines check it once and skip the interposition
        entirely, so a run with ``FaultPlan()`` equals a run with no
        plan.
        """
        return (
            self.matrices.active
            or self.sync_requests.active
            or self.sync_replies.active
            or any(faults.active for _, faults in self.source_sync_requests)
            or any(faults.active for _, faults in self.source_sync_replies)
            or bool(self.crashes)
        )

    def summary(self) -> dict:
        """Plain-dict form for ``RunReport`` / ``report.json``."""
        summary = {
            "seed": self.seed,
            "matrices": self.matrices.summary(),
            "sync_requests": self.sync_requests.summary(),
            "sync_replies": self.sync_replies.summary(),
            "crashes": [crash.summary() for crash in self.crashes],
        }
        if self.source_sync_requests:
            summary["source_sync_requests"] = {
                str(source): faults.summary()
                for source, faults in self.source_sync_requests
            }
        if self.source_sync_replies:
            summary["source_sync_replies"] = {
                str(source): faults.summary()
                for source, faults in self.source_sync_replies
            }
        return summary
